"""FSST symbol-table codec tests (north-rule extension; core/fsst.py)."""
from __future__ import annotations

import io

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyparquet_writer_ray import ColumnSpec, WriteOptions, write_table_to_bytes
from hyparquet_writer_ray.core import fsst
from hyparquet_writer_ray.core.reader import read_byte_array_column


def test_roundtrip_simple():
    data = b"the quick brown fox jumps over the lazy dog " * 50
    table = fsst.train(data)
    enc = fsst.compress(data, table)
    assert fsst.decompress(enc, table) == data
    assert len(enc) < len(data) * 0.6  # repetitive text must compress


def test_page_framing():
    data = b"hello world, hello parquet, hello fsst! " * 100
    page = fsst.encode_fsst_page(data)
    assert fsst.decode_fsst_page(page) == data
    assert len(page) < len(data)


@given(st.binary(max_size=2000))
@settings(max_examples=50, deadline=None)
def test_roundtrip_random(data):
    table = fsst.train(data)
    assert fsst.decompress(fsst.compress(data, table), table) == data


def test_empty_and_escape_heavy():
    assert fsst.decode_fsst_page(fsst.encode_fsst_page(b"")) == b""
    data = bytes(range(256)) * 4  # all byte values, incl. the escape byte
    page = fsst.encode_fsst_page(data)
    assert fsst.decode_fsst_page(page) == data


def test_fsst_column_in_parquet():
    texts = [f"document body with repeated words {i % 7} common tokens here" for i in range(800)]
    texts[10] = None
    t = pa.table({"doc_id": pa.array(range(800), pa.int64()), "text": texts})
    opts = WriteOptions(column_specs={"text": ColumnSpec(fsst=True)}, page_size=8192)
    buf = write_table_to_bytes(t, opts)
    # our reader decodes the FSST column
    got = read_byte_array_column(buf, "text")
    want = [None if x is None else x.encode() for x in texts]
    assert got == want
    # non-FSST columns remain standard-readable
    other = pq.read_table(io.BytesIO(buf), columns=["doc_id"])
    assert other.column("doc_id").to_pylist() == list(range(800))


def test_fsst_compresses_web_text():
    from hyparquet_writer_ray.sources.webtable import synthesize_table

    t = synthesize_table(2000).select(["url", "text"])
    plain = write_table_to_bytes(
        t, WriteOptions(codec=0)  # UNCOMPRESSED
    )
    fsst_buf = write_table_to_bytes(
        t,
        WriteOptions(
            codec=0,
            column_specs={"text": ColumnSpec(fsst=True), "url": ColumnSpec(fsst=True)},
        ),
    )
    assert len(fsst_buf) < len(plain)
    got = read_byte_array_column(fsst_buf, "text")
    want = [None if x is None else x.encode() for x in t.column("text").to_pylist()]
    assert got == want


def test_reader_decodes_standard_columns_too():
    t = pa.table({"s": pa.array([f"v{i % 5}" if i % 9 else None for i in range(500)])})
    buf = write_table_to_bytes(t)
    got = read_byte_array_column(buf, "s")
    want = [None if x is None else x.encode() for x in t.column("s").to_pylist()]
    assert got == want


def test_reader_resolves_top_level_column_past_struct_leaf():
    """A struct field sharing a top-level column's name and sitting
    before it in leaf order must not be decoded in its place."""
    t = pa.table({
        "s": pa.array([{"text": "inner-a"}, None], pa.struct([("text", pa.string())])),
        "text": pa.array(["top-a", "top-b"]),
    })
    assert read_byte_array_column(write_table_to_bytes(t), "text") == [b"top-a", b"top-b"]


def test_read_footer_rejects_a_file_without_trailing_magic():
    from hyparquet_writer_ray.core.reader import read_footer

    buf = write_table_to_bytes(pa.table({"x": [1, 2]}))
    assert read_footer(io.BytesIO(buf))[3] == 2  # num_rows
    with pytest.raises(ValueError, match="PAR1"):
        read_footer(io.BytesIO(buf[:-4] + b"PARX"))


def test_fsst_kernel_fuzz_roundtrip():
    """The compiled kernel must roundtrip arbitrary byte strings —
    including 0xFF runs (escape-code collisions), symbol-boundary
    overlaps, and empty/tiny inputs — and agree with the pure-Python
    decoder on its own output. Fed a ``bytearray``, or a ``memoryview``
    whose buffer goes on with 0xFF and symbol bytes (which a read past
    the end would match), it gives the Python parse of the view's bytes."""
    from hypothesis import given, settings, strategies as st

    from hyparquet_writer_ray.core import _fsst_kernel, fsst

    @settings(max_examples=120, deadline=None)
    @given(st.binary(min_size=0, max_size=4000))
    def run(data):
        tbl = fsst.train(data[:2048] or b"ab")
        enc = fsst.compress(data, tbl)
        assert fsst.decompress(enc, tbl) == data
        # pure-python decoder agrees on the kernel's parse
        lib = _fsst_kernel._lib
        _fsst_kernel._lib = None
        try:
            assert fsst.decompress(enc, tbl) == data
            enc_py = fsst.compress(data, tbl)
        finally:
            _fsst_kernel._lib = lib
        # and the kernel decodes the python parse
        assert fsst.decompress(enc_py, tbl) == data
        # both paths claim the same greedy longest-match parse — hold
        # them to byte identity, not just roundtrip
        assert enc == enc_py
        if _fsst_kernel.get_kernel() is None:
            return
        longest = max(tbl.symbols, key=len)
        for tail in (b"\xff" * 16, longest * 2, b"\xff" + longest):
            buf = bytearray(b"\x07" * 5 + data + tail)
            view = memoryview(buf)[5 : 5 + len(data)]
            assert _fsst_kernel.compress(view, tbl) == enc_py
        assert _fsst_kernel.compress(bytearray(data), tbl) == enc_py

    run()
    tbl = fsst.train(b"abcabcabd")
    if _fsst_kernel.get_kernel() is not None:
        for empty in (b"", bytearray(), memoryview(b"abc")[3:]):
            assert _fsst_kernel.compress(empty, tbl) == b""


def test_fsst_kernel_escape_heavy():
    from hyparquet_writer_ray.core import fsst

    # table trained on text, data full of bytes the table never saw
    tbl = fsst.train(b"the quick brown fox " * 100)
    data = bytes(range(256)) * 40 + b"\xff" * 100
    enc = fsst.compress(data, tbl)
    assert fsst.decompress(enc, tbl) == data


def test_deserialize_rejects_crafted_symbol_lengths():
    # an unvalidated length > 8 previously reached the C kernel, whose
    # output buffer assumes <= 8-byte symbols: heap overwrite/segfault
    import pytest

    from hyparquet_writer_ray.core.fsst import SymbolTable

    crafted = bytes([1, 200]) + b"A" * 200  # one symbol, length 200
    with pytest.raises(ValueError, match="symbol length"):
        SymbolTable.deserialize(crafted)
    with pytest.raises(ValueError, match="truncated"):
        SymbolTable.deserialize(bytes([1, 5]) + b"ab")  # shorter than ln


def test_kernel_rejects_oversized_symbols_directly():
    import pytest

    from hyparquet_writer_ray.core import _fsst_kernel
    from hyparquet_writer_ray.core.fsst import SymbolTable

    t = SymbolTable([b"A" * 200, b"B"])
    with pytest.raises(ValueError, match="outside 1..8"):
        _fsst_kernel._packed(t)


def test_truncated_escape_raises_on_both_paths():
    import pytest

    from hyparquet_writer_ray.core import _fsst_kernel
    from hyparquet_writer_ray.core.fsst import SymbolTable, decompress

    table = SymbolTable([b"ab"])
    corrupt = bytes([0, 255])  # symbol then a lone escape marker
    with pytest.raises(ValueError, match="truncated escape"):
        decompress(corrupt, table)
    if _fsst_kernel.get_kernel() is not None:  # kernel path agrees
        with pytest.raises(ValueError, match="truncated escape"):
            _fsst_kernel.decompress(corrupt, table)


def test_decompress_unregistered_codec_clear_error():
    import pytest

    from hyparquet_writer_ray.core.compress import decompress
    from hyparquet_writer_ray.core.types import Codec

    with pytest.raises(ValueError, match="decompressor"):
        decompress(b"xx", Codec.LZ4, 10)
    # and the plug-in hook mirrors compress()
    got = decompress(b"xx", Codec.LZ4, 2,
                     decompressors={"LZ4": lambda d, n: d})
    assert got == b"xx"


@given(st.binary(min_size=2, max_size=4000))
@settings(max_examples=60, deadline=None)
def test_vectorized_count_matches_scalar(sample):
    """_count_stream_np must match _count_stream_scalar exactly —
    counts AND dict insertion order (train's stable-sort tie-breaking
    reads the order) — on escape-free code streams."""
    table = fsst.train(sample)
    codes = fsst.compress(sample, table)
    sc_sym, sc_pair = fsst._count_stream_scalar(codes, table)
    if fsst.ESCAPE in codes:
        return  # np path not used for escape-bearing streams
    np_sym, np_pair = fsst._count_stream_np(codes, table)
    assert list(sc_sym.items()) == list(np_sym.items())
    assert list(sc_pair.items()) == list(np_pair.items())


def test_vectorized_count_same_merged_from_two_pairs():
    """Two distinct code pairs concatenating to the SAME merged bytes
    must aggregate into one dict entry at the earlier stream position
    (matches the scalar loop)."""
    table = fsst.SymbolTable([b"ab", b"c", b"a", b"bc", b"x"])
    # codes: (ab)(c) then (a)(bc) -> both merge to b"abc"
    codes = bytes([0, 1, 4, 2, 3])
    sc = fsst._count_stream_scalar(codes, table)
    np_ = fsst._count_stream_np(codes, table)
    assert list(sc[0].items()) == list(np_[0].items())
    assert list(sc[1].items()) == list(np_[1].items())
    assert sc[1][b"abc"] == 2
