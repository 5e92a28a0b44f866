"""Per-encoding round-trip matrix (FIXTURES.md F2) + codec matrix.

Encoded pages are validated through pyarrow's independent decoder, the
same correctness contract as the reference's hyparquet-oracle tests
(test/delta.test.js, test/encoding.test.js, ...).
"""
from __future__ import annotations

import io

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_roundtrip
from hyparquet_writer_ray import Codec, ColumnSpec, Encoding, WriteOptions


def opts_enc(col, enc, **kw):
    return WriteOptions(column_specs={col: ColumnSpec(encoding=enc)}, **kw)


def read_encodings(buf):
    md = pq.ParquetFile(io.BytesIO(buf)).metadata
    return md.row_group(0).column(0).encodings


class TestDelta:
    def test_int32_extremes(self):
        t = pa.table({"a": pa.array([-(2**31), 2**31 - 1, 0, -1, 5, 6, 7, 8] * 50, type=pa.int32())})
        buf = assert_roundtrip(t, opts_enc("a", Encoding.DELTA_BINARY_PACKED))
        assert "DELTA_BINARY_PACKED" in read_encodings(buf)

    def test_int64_extremes(self):
        t = pa.table({"a": pa.array([-(2**63), 2**63 - 1, 0, -1, 5, 6, 7, 8] * 50, type=pa.int64())})
        assert_roundtrip(t, opts_enc("a", Encoding.DELTA_BINARY_PACKED))

    def test_monotone(self):
        rng = np.random.default_rng(42)
        t = pa.table({"a": pa.array(np.cumsum(rng.integers(0, 1000, 5000)), type=pa.int64())})
        assert_roundtrip(t, opts_enc("a", Encoding.DELTA_BINARY_PACKED))

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 31, 32, 33, 127, 128, 129, 513])
    def test_boundary_sizes(self, n):
        t = pa.table({"a": pa.array(range(n), type=pa.int32())})
        assert_roundtrip(t, opts_enc("a", Encoding.DELTA_BINARY_PACKED))

    @given(st.lists(st.integers(-(2**31), 2**31 - 1), max_size=400))
    @settings(max_examples=30, deadline=None)
    def test_random_int32(self, vals):
        t = pa.table({"a": pa.array(vals, type=pa.int32())})
        assert_roundtrip(t, opts_enc("a", Encoding.DELTA_BINARY_PACKED))

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=400))
    @settings(max_examples=30, deadline=None)
    def test_random_int64(self, vals):
        t = pa.table({"a": pa.array(vals, type=pa.int64())})
        assert_roundtrip(t, opts_enc("a", Encoding.DELTA_BINARY_PACKED))

    def test_with_nulls(self):
        t = pa.table({"a": pa.array([None if i % 5 == 0 else i * 3 for i in range(1000)], type=pa.int64())})
        assert_roundtrip(t, opts_enc("a", Encoding.DELTA_BINARY_PACKED))


class TestDeltaByteArray:
    def test_delta_length(self):
        strs = [f"https://host{i % 100}.example.org/path/{i:06d}" for i in range(3000)]
        t = pa.table({"s": strs})
        buf = assert_roundtrip(t, opts_enc("s", Encoding.DELTA_LENGTH_BYTE_ARRAY))
        assert "DELTA_LENGTH_BYTE_ARRAY" in read_encodings(buf)

    def test_delta_byte_array_sorted(self):
        strs = sorted(f"https://host{i % 100}.example.org/path/{i:06d}" for i in range(3000))
        t = pa.table({"s": strs})
        buf = assert_roundtrip(t, opts_enc("s", Encoding.DELTA_BYTE_ARRAY))
        assert "DELTA_BYTE_ARRAY" in read_encodings(buf)
        # prefix compression must actually help on sorted urls
        plain = assert_roundtrip(t, opts_enc("s", Encoding.DELTA_LENGTH_BYTE_ARRAY, codec=Codec.UNCOMPRESSED))
        dba = assert_roundtrip(t, opts_enc("s", Encoding.DELTA_BYTE_ARRAY, codec=Codec.UNCOMPRESSED))
        assert len(dba) < len(plain)

    @given(st.lists(st.binary(max_size=40), max_size=120))
    @settings(max_examples=30, deadline=None)
    def test_random_binary(self, vals):
        t = pa.table({"s": pa.array(vals, type=pa.binary())})
        assert_roundtrip(t, opts_enc("s", Encoding.DELTA_BYTE_ARRAY))

    def test_long_shared_prefix(self):
        base = "p" * 200
        t = pa.table({"s": [base + str(i) for i in range(100)]})
        assert_roundtrip(t, opts_enc("s", Encoding.DELTA_BYTE_ARRAY))

    def test_with_nulls_and_empties(self):
        t = pa.table({"s": ["", None, "abc", "abd", None, "", "x"] * 30})
        assert_roundtrip(t, opts_enc("s", Encoding.DELTA_BYTE_ARRAY))


class TestByteStreamSplit:
    @pytest.mark.parametrize("dtype,ptype", [("f4", pa.float32()), ("f8", pa.float64())])
    def test_floats(self, dtype, ptype):
        rng = np.random.default_rng(7)
        t = pa.table({"x": pa.array(rng.normal(0, 1, 2000).astype(dtype), type=ptype)})
        buf = assert_roundtrip(t, opts_enc("x", Encoding.BYTE_STREAM_SPLIT))
        assert "BYTE_STREAM_SPLIT" in read_encodings(buf)

    def test_ints_and_nulls(self):
        t = pa.table({"x": pa.array([None if i % 7 == 0 else i * 1000 for i in range(500)], type=pa.int64())})
        assert_roundtrip(t, opts_enc("x", Encoding.BYTE_STREAM_SPLIT))


class TestDictionary:
    def test_dict_selected_for_low_cardinality(self):
        t = pa.table({"s": pa.array(["apple", "banana", "cherry"][i % 3] for i in range(500))})
        buf = assert_roundtrip(t)
        encs = read_encodings(buf)
        assert "RLE_DICTIONARY" in encs or "PLAIN_DICTIONARY" in encs
        md = pq.ParquetFile(io.BytesIO(buf)).metadata.row_group(0).column(0)
        assert md.has_dictionary_page

    def test_plain_for_high_cardinality(self):
        t = pa.table({"s": pa.array(f"unique-{i}" for i in range(2000))})
        buf = assert_roundtrip(t)
        assert "RLE_DICTIONARY" not in read_encodings(buf)

    def test_dict_with_nulls(self):
        t = pa.table({"s": pa.array([None if i % 4 == 0 else f"v{i % 3}" for i in range(600)])})
        buf = assert_roundtrip(t)
        assert "RLE_DICTIONARY" in read_encodings(buf)

    def test_dict_int_columns(self):
        t = pa.table({"i": pa.array([i % 5 for i in range(1000)], type=pa.int64())})
        buf = assert_roundtrip(t)
        assert "RLE_DICTIONARY" in read_encodings(buf)

    def test_dict_abort_when_dictionary_too_big(self):
        # low sample cardinality but huge values -> dict bytes > page_size
        vals = [("x" * 5000) + str(i % 300) for i in range(1000)]
        t = pa.table({"s": vals})
        buf = assert_roundtrip(t, WriteOptions(page_size=4096))
        assert "RLE_DICTIONARY" not in read_encodings(buf)

    @settings(max_examples=200, deadline=None)
    @given(
        typ=st.sampled_from([pa.string(), pa.binary(), pa.large_string(), pa.large_binary()]),
        width=st.integers(0, 9),
        data=st.data(),
    )
    def test_dictionary_encode_matches_arrow(self, typ, width, data):
        """The kernel's integer-key dictionary takes exactly the
        equal-width 1/2/4/8-byte chunks (widths 0 and 9, and a chunk
        with one value of another width, are left to Arrow) and gives
        ``pc.dictionary_encode``'s dictionary (values, type, byte size)
        and indices."""
        import pyarrow.compute as pc

        from hyparquet_writer_ray.core import _kernel
        from hyparquet_writer_ray.core.chunk import _kernel_dictionary, _Values
        from hyparquet_writer_ray.core.schema import schema_from_arrow
        from hyparquet_writer_ray.core.types import leaf_columns

        if _kernel.get_kernel() is None:
            pytest.skip("no compiled kernel")
        text = pa.types.is_string(typ) or pa.types.is_large_string(typ)
        alphabet = (st.text(st.characters(max_codepoint=127), min_size=width, max_size=width)
                    .map(str.encode) if text else st.binary(min_size=width, max_size=width))
        distinct = data.draw(st.lists(alphabet, min_size=1, max_size=6, unique=True))
        picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=300))
        vals = [distinct[i] for i in picks]
        if data.draw(st.booleans()):  # one value of another width
            vals.insert(data.draw(st.integers(0, len(vals))), b"z" * (width + 1))
        arr = pa.array(vals, pa.binary()).cast(typ)
        leaf = leaf_columns(schema_from_arrow(pa.schema([("s", typ, False)])))[0]
        start = data.draw(st.integers(0, len(arr) - 1))
        for a in (arr, arr.slice(start), arr.slice(start, (len(arr) - start) // 2)):
            got = _kernel_dictionary(_Values(a, leaf), leaf, 0)
            widths = set(pc.binary_length(a).to_pylist())
            if not len(a) or widths - {1, 2, 4, 8} or len(widths) > 1:
                assert got is None
                continue
            dictionary, indices = got
            want = pc.dictionary_encode(a)
            assert dictionary.type == want.dictionary.type
            assert dictionary.equals(want.dictionary)
            assert dictionary.nbytes == want.dictionary.nbytes
            assert indices.tolist() == want.indices.to_pylist()


class TestBooleanRle:
    def test_rle_for_long_bool(self):
        t = pa.table({"b": pa.array([i % 37 == 0 for i in range(1000)])})
        buf = assert_roundtrip(t)
        assert "RLE" in read_encodings(buf)

    def test_plain_for_short_bool(self):
        t = pa.table({"b": pa.array([True, False] * 8)})
        buf = assert_roundtrip(t)
        assert "PLAIN" in read_encodings(buf)

    @given(st.lists(st.one_of(st.booleans(), st.none()), max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_random_bools(self, vals):
        t = pa.table({"b": pa.array(vals, type=pa.bool_())})
        assert_roundtrip(t)


@pytest.mark.parametrize(
    "codec",
    [Codec.UNCOMPRESSED, Codec.SNAPPY, Codec.GZIP, Codec.ZSTD, Codec.LZ4_RAW, Codec.BROTLI],
)
def test_codecs(codec):
    t = pa.table({
        "s": [f"value-{i % 50}" for i in range(2000)],
        "i": pa.array(range(2000), type=pa.int64()),
    })
    assert_roundtrip(t, WriteOptions(codec=codec))


def test_per_column_codec_override():
    t = pa.table({"a": pa.array(range(100), type=pa.int64()), "b": [f"s{i}" for i in range(100)]})
    buf = assert_roundtrip(
        t,
        WriteOptions(codec=Codec.SNAPPY, column_specs={"b": ColumnSpec(codec=Codec.ZSTD)}),
    )
    md = pq.ParquetFile(io.BytesIO(buf)).metadata
    assert md.row_group(0).column(0).compression == "SNAPPY"
    assert md.row_group(0).column(1).compression == "ZSTD"


def test_smart_auto_codec():
    # warc_ts-like monotone timestamps should pick delta; text delta-length
    rng = np.random.default_rng(3)
    ts = 1_600_000_000_000 + np.cumsum(rng.integers(0, 750, 5000))
    t = pa.table({
        "warc_ts": pa.array(ts, type=pa.timestamp("ms")),
        "text": [f"doc body {i} words" * 3 for i in range(5000)],
        "value": pa.array(rng.normal(0, 1, 5000)),
    })
    buf = assert_roundtrip(t, WriteOptions(auto_codec="smart"))
    md = pq.ParquetFile(io.BytesIO(buf)).metadata
    by_col = {
        md.row_group(0).column(i).path_in_schema: md.row_group(0).column(i).encodings
        for i in range(md.num_columns)
    }
    assert "DELTA_BINARY_PACKED" in by_col["warc_ts"]
    assert "DELTA_LENGTH_BYTE_ARRAY" in by_col["text"]
    assert "BYTE_STREAM_SPLIT" in by_col["value"]


def test_dict_sort_frequency_roundtrip():
    """Opt-in dictionary sort-by-frequency (the reference's own TODO,
    src/dictionary.js:133): hot values get the smallest indices; values
    and nulls round-trip unchanged."""
    import io

    import pyarrow.parquet as pq

    from hyparquet_writer_ray import WriteOptions, write_table_to_bytes

    vals = (["hot"] * 700 + ["warm"] * 200 + ["cold"] * 60 + [None] * 40
            + [f"rare{i}" for i in range(30)])
    t = pa.table({"c": pa.array(vals)})
    buf = write_table_to_bytes(t, WriteOptions(dict_sort_frequency=True))
    f = pq.ParquetFile(io.BytesIO(buf))
    assert "RLE_DICTIONARY" in str(f.metadata.row_group(0).column(0).encodings)
    got = pq.read_table(io.BytesIO(buf)).column("c").to_pylist()
    assert got == vals
    # the dictionary page stores entries most-frequent-first
    dt = pq.read_table(io.BytesIO(buf), read_dictionary=["c"]).column("c")
    first_entry = dt.chunk(0).dictionary[0].as_py()
    assert first_entry == "hot"


def test_rejected_dictionary_is_logged(caplog):
    """The auto decision logs one DEBUG record per rejected dictionary,
    naming the column and the reason; an accepted or a forced
    dictionary logs nothing."""
    from hyparquet_writer_ray import write_table_to_bytes

    n = 2_000
    t = pa.table({
        "unique": pa.array([f"u{i}" for i in range(n)]),  # distinct_ratio 1.0
        "wide": pa.array([f"{i % 400:04d}" + "x" * 40 for i in range(n)]),
        "flag": pa.array(["A", "N", "R"] * (n // 3) + ["A"] * (n % 3)),
        "forced": pa.array([f"f{i}" for i in range(n)]),
    })
    opts = WriteOptions(page_size=4096, row_group_size=(n,), column_specs={
        "forced": ColumnSpec(encoding=Encoding.RLE_DICTIONARY)})
    with caplog.at_level("DEBUG", logger="hyparquet_writer_ray"):
        write_table_to_bytes(t, opts)
    records = [r for r in caplog.records if r.name == "hyparquet_writer_ray"]
    assert all(r.levelname == "DEBUG" for r in records)
    msgs = sorted(r.getMessage() for r in records)
    assert msgs == [
        "dictionary rejected for column unique: distinct_ratio 1.0000 > 0.5",
        "dictionary rejected for column wide: dict_bytes 19200 > page_size 4096",
    ]


def test_fsst_training_is_logged(caplog):
    """Each chunk that trains an FSST table logs one DEBUG record
    naming the column, the sample bytes (at most the 64 KiB ``train``
    reads) and the symbol count."""
    from hyparquet_writer_ray import write_table_to_bytes
    from hyparquet_writer_ray.core import fsst

    n = 3_000
    text = [f"row {i} says hello, " + "abcd" * 10 for i in range(n)]
    t = pa.table({"text": pa.array(text),
                  "other": pa.array([f"o{i}" for i in range(n)])})
    opts = WriteOptions(row_group_size=(2_000,), column_specs={
        "text": ColumnSpec(fsst=True)})
    with caplog.at_level("DEBUG", logger="hyparquet_writer_ray"):
        write_table_to_bytes(t, opts)
    msgs = [r.getMessage() for r in caplog.records
            if r.name == "hyparquet_writer_ray" and "fsst" in r.getMessage()]
    want = []
    for rows in (text[:2_000], text[2_000:]):  # one record per row group
        sample = "".join(rows).encode()[:fsst.TRAIN_SAMPLE_BYTES]
        want.append(f"fsst table trained for column text: {len(sample)} sample "
                    f"bytes, {len(fsst.train(sample).symbols)} symbols")
    assert msgs == want


def test_unsupported_dictionary_type_is_logged(caplog):
    """A type ``pc.dictionary_encode`` has no kernel for (float16) falls
    back to PLAIN with one DEBUG record naming the column and the type;
    a forced dictionary on it raises and logs nothing."""
    from hyparquet_writer_ray import write_table_to_bytes

    t = pa.table({"h": pa.array(np.arange(2_000, dtype=np.float16) % 4)})
    with caplog.at_level("DEBUG", logger="hyparquet_writer_ray"):
        write_table_to_bytes(t, WriteOptions(row_group_size=(2_000,)))  # one chunk
    msgs = [r.getMessage() for r in caplog.records if r.name == "hyparquet_writer_ray"]
    assert msgs == ["dictionary rejected for column h: type halffloat cannot be "
                    "dictionary-encoded"]
    caplog.clear()
    with caplog.at_level("DEBUG", logger="hyparquet_writer_ray"):
        with pytest.raises(TypeError, match="cannot be dictionary-encoded"):
            write_table_to_bytes(t, opts_enc("h", Encoding.RLE_DICTIONARY))
    assert not [r for r in caplog.records if r.name == "hyparquet_writer_ray"]


def test_smart_encoding_is_logged(caplog):
    """``auto_codec="smart"`` logs one DEBUG record per chunk that it
    encodes, naming the column, the encoding and the rule that chose it."""
    from hyparquet_writer_ray import write_table_to_bytes

    n = 1_000
    i = np.arange(n)
    big = pa.table({
        "ts": pa.array(i * 1_000, pa.timestamp("ms")),  # 10-bit deltas
        "swing": pa.array((-1) ** i * i * 1_000_000, pa.int32()),  # 31-bit deltas
        "text": pa.array([f"doc {k}" for k in i]),
        "value": pa.array(np.random.default_rng(0).normal(0, 1, n)),
        "flag": pa.array(i % 3 == 0),
        "fixed": pa.array([int(k).to_bytes(4, "little") for k in i], pa.binary(4)),
    })
    small = pa.table({"id": pa.array(np.arange(5, dtype=np.int64) * 7)})
    with caplog.at_level("DEBUG", logger="hyparquet_writer_ray"):
        for t in (big, small):
            write_table_to_bytes(t, WriteOptions(auto_codec="smart"))
    msgs = [r.getMessage() for r in caplog.records
            if r.name == "hyparquet_writer_ray" and "smart" in r.getMessage()]
    rule = "smart encoding for column {}: {} ({})".format
    assert msgs == [
        rule("ts", "DELTA_BINARY_PACKED",
             "max-delta rule: sampled max delta of 10 bits + 8 < width 64"),
        rule("swing", "PLAIN", "max-delta rule: sampled max delta of 31 bits + 8 >= width 32"),
        rule("text", "DELTA_LENGTH_BYTE_ARRAY", "byte-array rule"),
        rule("value", "BYTE_STREAM_SPLIT", "float rule"),
        rule("flag", "RLE", "boolean rule: more than 16 slots"),
        rule("fixed", "PLAIN", "PLAIN default"),
        rule("id", "PLAIN", "max-delta rule: 5 sampled values, fewer than 8"),
    ]
