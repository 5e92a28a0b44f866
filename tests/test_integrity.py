"""Page CRC-32 checksums and RowGroup.sorting_columns footer metadata.

Both are optional parquet-spec fields the reference serializes when a
caller provides them (src/datapage.js:113, src/metadata.js:92-96); we
also COMPUTE them. Verification is through pyarrow, which shares no
code with the writer: ``page_checksum_verification=True`` recomputes
every page CRC on read, and ``metadata.row_group(i).sorting_columns``
decodes the footer field.
"""
from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from hyparquet_writer_ray import write_table_to_bytes
from hyparquet_writer_ray.core.options import ColumnSpec, WriteOptions


def _sample_table(n=5000):
    import numpy as np
    rng = np.random.default_rng(7)
    return pa.table({
        "k": pa.array(rng.integers(0, 50, n)),          # dict-encoded
        "v": pa.array(rng.standard_normal(n)),           # plain doubles
        "s": pa.array([f"row-{int(x)}" for x in rng.integers(0, 30, n)]),
        "nested": pa.array([[int(x)] * (int(x) % 3) for x in range(n)]),
    })


def _write(tmp_path, table, opts, name="f.parquet"):
    p = os.path.join(str(tmp_path), name)
    with open(p, "wb") as f:
        f.write(write_table_to_bytes(table, opts))
    return p


def test_page_crc_verified_by_pyarrow(tmp_path):
    t = _sample_table()
    p = _write(tmp_path, t, WriteOptions(page_crc=True))
    back = pq.ParquetFile(p, page_checksum_verification=True).read()
    assert back.num_rows == t.num_rows
    assert back.cast(t.schema).equals(t)


def test_page_crc_detects_corruption(tmp_path):
    t = _sample_table()
    p = _write(tmp_path, t, WriteOptions(page_crc=True))
    data = bytearray(open(p, "rb").read())
    data[150] ^= 0xFF  # flip one bit inside the first page region
    bad = os.path.join(str(tmp_path), "bad.parquet")
    open(bad, "wb").write(bytes(data))
    with pytest.raises(OSError, match="CRC"):
        pq.ParquetFile(bad, page_checksum_verification=True).read()


def test_page_crc_covers_forced_encodings(tmp_path):
    """CRC must hold whatever the page body encoding is."""
    from hyparquet_writer_ray.core.types import Encoding
    t = pa.table({
        "d": pa.array(list(range(4000))),
        "txt": pa.array([f"value-{i % 97}" for i in range(4000)]),
    })
    opts = WriteOptions(page_crc=True, column_specs={
        "d": ColumnSpec(encoding=Encoding.DELTA_BINARY_PACKED),
        "txt": ColumnSpec(encoding=Encoding.DELTA_BYTE_ARRAY),
    })
    p = _write(tmp_path, t, opts)
    back = pq.ParquetFile(p, page_checksum_verification=True).read()
    assert back.cast(t.schema).equals(t)


def test_page_crc_with_fsst_reader():
    """The crc field (PageHeader field 4) must be transparently skipped
    by the library's own thrift page reader on the FSST path."""
    from hyparquet_writer_ray.core.reader import read_byte_array_column
    t = pa.table({"s": pa.array(
        [f"hello world hello world {i % 50}" for i in range(4000)])})
    blob = write_table_to_bytes(
        t, WriteOptions(page_crc=True,
                        column_specs={"s": ColumnSpec(fsst=True)}))
    back = read_byte_array_column(blob, "s")
    assert [v.decode() for v in back] == t.column("s").to_pylist()


def test_fsst_page_crc_covers_levels_table_and_codes():
    """An FSST page is written as its level runs, its symbol table and
    its codes, three pieces; its CRC is the CRC-32 of all of them, as
    pyarrow would verify it on a standard page."""
    import io
    import zlib

    from hyparquet_writer_ray.core.reader import read_footer
    from hyparquet_writer_ray.core.thrift import CompactReader

    words = ["hello", "world", "fsst", None]
    t = pa.table({"s": pa.array(
        [None if words[i % 4] is None else f"{words[i % 4]} {i % 50}" * 3
         for i in range(6000)])})
    blob = write_table_to_bytes(t, WriteOptions(
        page_crc=True, page_size=8192, column_specs={"s": ColumnSpec(fsst=True)}))
    md = read_footer(io.BytesIO(blob))[4][0][1][0][3]
    pos, end, pages = md[9], md[9] + md[7], 0
    while pos < end:
        r = CompactReader(memoryview(blob), pos)
        header = r.read_struct()
        page = blob[r.pos:r.pos + header[3]]
        assert header[4] & 0xFFFFFFFF == zlib.crc32(page)
        pos, pages = r.pos + header[3], pages + 1
    assert pages > 1


def test_sorting_columns_in_footer(tmp_path):
    t = _sample_table().sort_by([("k", "ascending"), ("s", "ascending")])
    opts = WriteOptions(
        sorting_columns=[("k", False, False), ("s", False, False)]
    )
    p = _write(tmp_path, t, opts)
    md = pq.ParquetFile(p).metadata
    for i in range(md.num_row_groups):
        sc = md.row_group(i).sorting_columns
        assert [c.column_index for c in sc] == [0, 2]  # k=0, v=1, s=2
        assert all(not c.descending and not c.nulls_first for c in sc)


def test_sorting_columns_unknown_name_raises():
    t = pa.table({"a": [1, 2]})
    with pytest.raises(ValueError, match="not a top-level leaf"):
        write_table_to_bytes(
            t, WriteOptions(sorting_columns=[("missing", False, False)])
        )


def test_dataset_sort_by_advertises_sorting_columns(tmp_path, ray_session):
    """write_parquet_dataset(sort_by=...) stamps every part's footer."""
    import ray.data

    from hyparquet_writer_ray.pipelines.write import write_parquet_dataset

    t = _sample_table(3000).drop_columns(["nested"])
    out = os.path.join(str(tmp_path), "parts")
    write_parquet_dataset(
        ray.data.from_arrow(t).repartition(3), out, sort_by="k",
    )
    parts = [f for f in os.listdir(out) if f.endswith(".parquet")]
    assert parts
    for f in parts:
        md = pq.ParquetFile(os.path.join(out, f)).metadata
        rows_sorted = pq.read_table(os.path.join(out, f), columns=["k"])
        ks = rows_sorted.column("k").to_pylist()
        assert ks == sorted(ks)
        for i in range(md.num_row_groups):
            sc = md.row_group(i).sorting_columns
            assert [c.column_index for c in sc] == [0]


def test_sorting_columns_nested_name_not_shadowed(tmp_path):
    """A nested leaf named like a top-level column (map value) must not
    steal the ordinal (regression: first-match leaf resolution)."""
    t = pa.table({
        "attrs": pa.array([[("k", 1)], [("k", 2)]],
                          pa.map_(pa.string(), pa.int64())),
        "value": pa.array([2.0, 1.0]),
    }).sort_by("value")
    p = _write(tmp_path, t,
               WriteOptions(sorting_columns=[("value", False, False)]))
    sc = pq.ParquetFile(p).metadata.row_group(0).sorting_columns
    # leaf order: attrs.key=0, attrs.value=1, value=2
    assert [c.column_index for c in sc] == [2]
