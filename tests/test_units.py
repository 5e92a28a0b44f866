"""Byte-layer unit tests: varint/zigzag, thrift compact protocol
round-trip, RLE hybrid decode (reference test/bytewriter.test.js,
test/thrift.test.js, test/encoding.test.js)."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyparquet_writer_ray.core.bufwriter import BufWriter
from hyparquet_writer_ray.core.rle import encode_rle_hybrid
from hyparquet_writer_ray.core.thrift import I64, CompactReader, serialize


def test_varint_known_values():
    w = BufWriter()
    w.varint(0)
    w.varint(127)
    w.varint(128)
    w.varint(300)
    assert w.getvalue() == bytes([0, 0x7F, 0x80, 0x01, 0xAC, 0x02])


def test_write_appends_the_bytes_of_any_buffer():
    """An ndarray or memoryview appends its bytes after what is there
    (a numpy ``+=`` would broadcast-add into them instead)."""
    w = BufWriter()
    w.write(b"prefix")
    w.write(np.array([3, 250], np.uint8))
    w.write(memoryview(b"-view-")[1:5])
    w.write(np.array([1], np.uint32))
    assert w.getvalue() == b"prefix\x03\xfaview\x01\x00\x00\x00"
    assert w.offset == 16


def test_zigzag_known_values():
    for v, expect in [(0, [0]), (-1, [1]), (1, [2]), (-2, [3]), (2, [4])]:
        w = BufWriter()
        w.zigzag(v)
        assert list(w.getvalue()) == expect


@given(st.integers(-(2**63), 2**63 - 1))
@settings(max_examples=200, deadline=None)
def test_zigzag_roundtrip(v):
    w = BufWriter()
    w.zigzag(v)
    assert CompactReader(w.getvalue()).zigzag() == v


def test_thrift_struct_roundtrip():
    data = {
        1: 2,
        2: I64(2**40),
        3: "hello",
        4: b"\x00\xff",
        5: True,
        6: False,
        7: [1, 2, 3],
        8: {1: "nested", 2: [I64(5), I64(6)]},
        9: [True, False, True],
        20: 7,  # forces long-form field header (delta > 15)
    }
    out = CompactReader(serialize(data)).read_struct()
    assert out[1] == 2
    assert out[2] == 2**40
    assert out[3] == b"hello"
    assert out[4] == b"\x00\xff"
    assert out[5] is True and out[6] is False
    assert out[7] == [1, 2, 3]
    assert out[8][1] == b"nested" and out[8][2] == [5, 6]
    assert out[9] == [True, False, True]
    assert out[20] == 7


def test_thrift_long_list():
    data = {1: list(range(100))}
    assert CompactReader(serialize(data)).read_struct()[1] == list(range(100))


def _decode_rle(data: bytes, bit_width: int, count: int) -> list[int]:
    """Independent decoder of the parquet RLE/bit-packed hybrid."""
    r = CompactReader(data)
    out: list[int] = []
    nbytes = (bit_width + 7) >> 3
    while len(out) < count and r.pos < len(r.data):
        header = r.varint()
        if header & 1:  # bit-packed groups
            groups = header >> 1
            total_bits = groups * 8 * bit_width
        raw = None
        if header & 1:
            nb = groups * bit_width  # bytes: 8 values * bw bits / 8
            raw = bytes(r.data[r.pos : r.pos + nb])
            r.pos += nb
            bits = np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")
            for i in range(groups * 8):
                v = 0
                for b in range(bit_width):
                    v |= int(bits[i * bit_width + b]) << b
                out.append(v)
        else:
            run = header >> 1
            v = int.from_bytes(bytes(r.data[r.pos : r.pos + nbytes]), "little")
            r.pos += nbytes
            out.extend([v] * run)
    return out[:count]


@given(st.lists(st.integers(0, 7), max_size=500), st.just(3))
@settings(max_examples=50, deadline=None)
def test_rle_hybrid_roundtrip(vals, bw):
    w = BufWriter()
    encode_rle_hybrid(w, np.array(vals, dtype=np.uint32), bw)
    assert _decode_rle(w.getvalue(), bw, len(vals)) == vals


@pytest.mark.parametrize("bw", [1, 2, 5, 8, 12, 20, 32])
def test_rle_hybrid_widths(bw):
    rng = np.random.default_rng(bw)
    vals = rng.integers(0, 2**bw, 1000, dtype=np.uint64).astype(np.uint32 if bw <= 32 else np.uint64)
    vals[100:300] = vals[100]  # long run
    w = BufWriter()
    encode_rle_hybrid(w, vals, bw)
    assert _decode_rle(w.getvalue(), bw, len(vals)) == vals.tolist()


def test_rle_all_equal_uses_run():
    w = BufWriter()
    encode_rle_hybrid(w, np.zeros(10000, dtype=np.uint8), 1)
    assert w.offset <= 4  # single RLE run, not bit-packed


def test_compressor_plugin_receives_bytes():
    """Pages are compressed from views of the page buffer; a
    ``compressors`` plug-in is still handed ``bytes``."""
    import io

    import pyarrow as pa
    import pyarrow.parquet as pq

    from hyparquet_writer_ray import WriteOptions, write_table_to_bytes

    calls = []

    def snappy(data):
        assert isinstance(data, bytes)
        calls.append(len(data))
        return pa.Codec("snappy").compress(data, asbytes=True)

    t = pa.table({
        "s": pa.array([f"v{i % 7}" for i in range(3000)]),  # dictionary page
        "text": pa.array([f"row {i} " * (i % 5) for i in range(3000)]),
        "b": pa.array([i % 3 == 0 for i in range(3000)]),
        "x": pa.array(np.arange(3000, dtype=np.float64)),
    })
    buf = write_table_to_bytes(t, WriteOptions(compressors={"SNAPPY": snappy}))
    assert pq.read_table(io.BytesIO(buf)).equals(t)
    assert calls  # the plug-in ran, and saw only bytes


def test_compress_returns_the_codec_bytes_as_a_view():
    """A built-in codec's output is a byte view of pyarrow's buffer, as
    long as its size (a plain memoryview of it has the capacity as its
    shape and signed items): the same length and bytes
    as ``asbytes=True``, from ``bytes``, ``bytearray`` and numpy views
    alike. ``UNCOMPRESSED`` hands the input back and a plug-in's output
    is returned as the plug-in made it."""
    import pyarrow as pa

    from hyparquet_writer_ray.core.compress import _PA_NAME, compress
    from hyparquet_writer_ray.core.types import Codec

    rng = np.random.default_rng(4)
    page = rng.integers(0, 4, 50_000, dtype=np.uint8)
    for data in (page.tobytes(), bytearray(page), page.data, page[3:].data, b""):
        for codec, name in _PA_NAME.items():
            got = compress(data, codec)
            want = pa.Codec(name).compress(data, asbytes=True)
            assert len(got) == len(want)
            assert got == want  # a byte view: unsigned, as ``bytes`` compares
        assert compress(data, Codec.UNCOMPRESSED) is data
        out = compress(data, Codec.SNAPPY, {"SNAPPY": lambda b: b"plug-in " + b})
        assert out == b"plug-in " + bytes(data)


def test_decompress_shares_the_compress_codec_cache(monkeypatch):
    """Each built-in codec is built once per process and level, and both
    directions use it: pages round-trip with no ``pa.Codec`` built after
    the first page of each codec."""
    import pyarrow as pa

    from hyparquet_writer_ray.core import compress as K
    from hyparquet_writer_ray.core.types import Codec

    page = np.random.default_rng(5).integers(0, 4, 20_000, dtype=np.uint8).tobytes()
    monkeypatch.setattr(K, "_codec_cache", {})
    built, codec_type = [], pa.Codec
    monkeypatch.setattr(K.pa, "Codec", lambda *a, **k: built.append(a) or codec_type(*a, **k))
    for _ in range(3):
        for codec in K._PA_NAME:
            comp = bytes(K.compress(page, codec))
            assert K.decompress(comp, codec, len(page)) == page
    assert sorted(built) == sorted((name,) for name in K._PA_NAME.values())
    with pytest.raises(ValueError, match="no decompressor"):
        K.decompress(b"", Codec.LZO, 0)
