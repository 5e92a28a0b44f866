"""``core/rowgroup.dumps`` / ``loads``, the one serialized form of an
encoded row group (the single-file encode stage's rows and its
checkpoint blobs): assembling ``loads(dumps(blob, meta))`` writes the
same file bytes as assembling ``(blob, meta)``, feature by feature, and
bytes that are not such a group raise ``ValueError``."""
from __future__ import annotations

import io
import pickle
import random

import pyarrow as pa
import pytest

from hyparquet_writer_ray import ColumnSpec, WriteOptions
from hyparquet_writer_ray.core import geo
from hyparquet_writer_ray.core import variant as V
from hyparquet_writer_ray.core.assemble import FileAssembler
from hyparquet_writer_ray.core.rowgroup import TRAILER, dumps, encode_row_group, loads
from hyparquet_writer_ray.core.schema import normalize_table, schema_from_arrow
from hyparquet_writer_ray.core.types import leaf_columns

N = 600


def _chunks(metas):
    return [cm for m in metas for _, cm in m.chunks]


def _ints():
    return pa.array([(i * 7919) % 1_000_003 for i in range(N)], pa.int64())


def _words():
    return pa.array([f"w{i % 5}" for i in range(N)])


# name -> (table, options, check that the groups carry the feature)
CASES = {
    "dictionary_and_data_pages": (
        lambda: pa.table({"k": _words(), "v": _ints()}),
        WriteOptions(page_size=512),
        lambda ms: any(c.dictionary_page_offset is not None for c in _chunks(ms))
        and any(c.column_index and len(c.offset_index) > 1 for c in _chunks(ms))),
    "truncated_statistics": (
        lambda: pa.table({"s": pa.array(["a" * 20 + str(i) for i in range(N)] + ["\xff" * 40])}),
        WriteOptions(page_size=512),
        lambda ms: any(c.stats.is_min_exact is False or c.stats.is_max_exact is False
                       for c in _chunks(ms))),
    "no_statistics": (
        lambda: pa.table({"k": _words(), "v": _ints()}),
        WriteOptions(statistics=False, page_size=512),
        lambda ms: all(c.stats is None and c.encoding_stats is None for c in _chunks(ms))),
    "no_page_indexes": (
        lambda: pa.table({"k": _words(), "v": _ints()}),
        WriteOptions(page_size=512, column_specs={
            c: ColumnSpec(column_index=False, offset_index=False) for c in ("k", "v")}),
        lambda ms: all(c.column_index is None and c.offset_index is None
                       for c in _chunks(ms))),
    "bloom_filter": (
        lambda: pa.table({"k": _words(), "v": _ints()}),
        WriteOptions(page_size=512, column_specs={"v": ColumnSpec(bloom_filter=True)}),
        lambda ms: any(c.bloom for c in _chunks(ms))),
    "fsst": (
        lambda: pa.table({"text": pa.array([f"the page {i} of the web" for i in range(N)])}),
        WriteOptions(column_specs={"text": ColumnSpec(fsst=True)}),
        lambda ms: all(c.kv_metadata == [("hpw_fsst", "1")] for c in _chunks(ms))),
    "geometry": (
        lambda: pa.table({"g": pa.array(
            [geo.geojson_to_wkb({"type": "Point", "coordinates": [i * 0.5, -i * 1.0, 2.0]})
             for i in range(N - 1)] + [None], pa.binary())}),
        WriteOptions(schema_overrides={"g": geo.geometry_schema_override("OGC:CRS84")},
                     column_specs={"g": ColumnSpec(geospatial=True)}),
        lambda ms: all(c.geo_stats.has_bbox and c.geo_stats.zmax == 2.0
                       for c in _chunks(ms))),
    "nested_and_variant": (
        lambda: pa.table({
            "l": pa.array([[i, None] if i % 3 else None for i in range(N)],
                          pa.list_(pa.int64())),
            "m": pa.array([[("a", i)] if i % 4 else [] for i in range(N)],
                          pa.map_(pa.string(), pa.int32())),
            "s": pa.array([{"a": i, "b": None if i % 2 else str(i)} for i in range(N)],
                          pa.struct([("a", pa.int32()), ("b", pa.string())])),
            "v": V.variant_column([{"a": i} if i % 5 else None for i in range(N)]),
        }),
        WriteOptions(kv_metadata=V.variant_kv_metadata(["v"]), page_size=512),
        lambda ms: len(ms[0].chunks) == 7),
    "crc_sorting_all_null": (
        lambda: pa.table({"id": pa.array(range(N), pa.int64()),
                          "none": pa.array([None] * N, pa.string())}),
        WriteOptions(page_crc=True, sorting_columns=[("id", False, True)], page_size=512),
        lambda ms: all(c.stats.null_count == c.num_values
                       for c in _chunks(ms) if c.path == ["none"])),
}


def _encode(table: pa.Table, opts: WriteOptions, rows: int = 250):
    table = normalize_table(table)
    schema_ir = schema_from_arrow(table.schema, opts.schema_overrides)
    leaves = leaf_columns(schema_ir)
    groups = [encode_row_group(table.slice(i, rows), schema_ir, leaves, opts)
              for i in range(0, table.num_rows, rows)]
    return schema_ir, groups


def _assemble(schema_ir, opts, groups) -> bytes:
    sink = io.BytesIO()
    asm = FileAssembler(sink, schema_ir, opts)
    for blob, meta in groups:
        asm.append_group(blob, meta)
    asm.finish()
    return sink.getvalue()


@pytest.mark.parametrize("case", list(CASES))
def test_roundtrip_assembles_the_same_bytes(case):
    make, opts, has_feature = CASES[case]
    schema_ir, groups = _encode(make(), opts)
    assert has_feature([m for _, m in groups])
    data = [dumps(blob, meta) for blob, meta in groups]
    loaded = [loads(d) for d in data]
    assert has_feature([m for _, m in loaded])
    assert [b"".join(p) for p, _ in loaded] == [b"".join(p) for p, _ in groups]
    assert _assemble(schema_ir, opts, loaded) == _assemble(schema_ir, opts, groups)
    assert [dumps(*g) for g in loaded] == data


@pytest.fixture(scope="module")
def group() -> bytes:
    make, opts, _ = CASES["dictionary_and_data_pages"]
    _, groups = _encode(make(), opts, rows=N)
    return dumps(*groups[0])


def _framed(body: bytes, n: int) -> bytes:
    """``body`` followed by the length ``n`` and the trailer."""
    return body + n.to_bytes(4, "little") + TRAILER


@pytest.mark.parametrize("bad", [
    "empty", "short", "truncated", "trailer", "length_past_start",
    "length_into_blob", "length_short", "padded", "pickle"])
def test_not_a_group_raises_value_error(group, bad):
    n, body = int.from_bytes(group[-8:-4], "little"), group[:-8]
    data = {
        "empty": b"",
        "short": TRAILER,
        "truncated": group[:-1],
        "trailer": group[:-4] + b"PAR1",
        "length_past_start": _framed(body, len(body) + 1),
        "length_into_blob": _framed(body, n + 100),
        "length_short": _framed(body, n - 1),
        "padded": _framed(body + b"\0", n + 1),
        "pickle": pickle.dumps((b"blob", {"m": 1})),
    }[bad]
    with pytest.raises(ValueError, match="not a row group"):
        loads(data)


def test_corrupt_struct_raises_value_error_or_loads(group):
    """Random byte flips inside the struct either still parse or raise
    ``ValueError``: the parse is bounded by the struct's bytes, so no
    corruption makes it loop or raise anything else."""
    n = int.from_bytes(group[-8:-4], "little")
    start = len(group) - 8 - n
    rng = random.Random(21)
    for _ in range(400):
        data = bytearray(group)
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(start, start + n)] = rng.randrange(256)
        try:
            loads(bytes(data))
        except ValueError:
            pass
