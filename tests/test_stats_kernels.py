"""Chunk and page statistics against the frozen two-pass oracle in
``stats_oracle.py``: ``encode_chunk`` takes a chunk's statistics from
its dictionary, from its pages' folded bounds or from one pass over its
values, and every one of those must give the ``Stats`` (bytes, raw
bounds, exactness flags, null count) and the ``ColumnIndexData`` that
one ``min_max`` pass over the chunk and one over each page gave."""
from __future__ import annotations

import decimal

import numpy as np
import pyarrow as pa
import pytest

import stats_oracle as oracle
from hyparquet_writer_ray.core import arrays as A
from hyparquet_writer_ray.core import chunk as C
from hyparquet_writer_ray.core.geo import geojson_to_wkb
from hyparquet_writer_ray.core.options import ColumnSpec, WriteOptions
from hyparquet_writer_ray.core.rowgroup import _leaf_arrays
from hyparquet_writer_ray.core.schema import schema_from_arrow
from hyparquet_writer_ray.core.types import leaf_columns

NAN, INF = float("nan"), float("inf")
N = 3_000


def _pages(lv, meta) -> list[tuple[int, int, int]]:
    """(v0, v1, num_nulls) per page, from the chunk's offset index."""
    n_slots = lv.num_rows if lv.def_levels is None else len(lv.def_levels)
    if not meta.offset_index:
        starts = [0]
    else:
        rows = [p.first_row_index for p in meta.offset_index]
        if lv.rep_levels is not None:
            row_starts = np.nonzero(lv.rep_levels == 0)[0]
            starts = [int(row_starts[r]) for r in rows]
        else:
            starts = rows
    if lv.def_levels is None:
        vcum = np.arange(n_slots + 1)
    else:
        vcum = np.concatenate([[0], np.cumsum(lv.def_levels == lv.max_def)])
    ends = starts[1:] + [n_slots]
    return [(int(vcum[s0]), int(vcum[s1]), (s1 - s0) - int(vcum[s1] - vcum[s0]))
            for s0, s1 in zip(starts, ends)]


def _check(table: pa.Table, opts: WriteOptions) -> set:
    """Every leaf's chunk Stats and ColumnIndexData equal the oracle's;
    returns the statistics sources the chunks exercised."""
    leaves = leaf_columns(schema_from_arrow(table.schema))
    sources = set()
    for leaf, col in zip(leaves, _leaf_arrays(table, leaves)):
        spec = opts.column_specs.get(".".join(leaf.path)) or opts.spec(leaf.path[0])
        _, meta = C.encode_chunk(col, leaf, spec, opts)
        lv, _ = C._prepare(col, leaf)
        pages = _pages(lv, meta)
        # the oracle takes the non-null values; a flat string/binary
        # leaf keeps its null slots in ``lv.values``
        want_stats, want_ci = oracle.two_pass(
            A.drop_null_fast(lv.values), leaf.element, lv.null_count, pages,
            spec.column_index, spec.geospatial)
        where = f"{'.'.join(leaf.path)} ({len(pages)} pages)"
        assert meta.column_index == want_ci, where
        if not opts.statistics:
            assert meta.stats is None, where
            continue
        assert meta.stats == want_stats, where
        # -0.0 == 0.0 in the dataclass comparison: pin the bytes too
        assert (meta.stats.min_bytes, meta.stats.max_bytes) == \
            (want_stats.min_bytes, want_stats.max_bytes), where
        if spec.geospatial:
            sources.add("geo")
        elif want_ci is not None:
            sources.add("pages")
        elif int(C.Encoding.RLE_DICTIONARY) in meta.encodings:
            sources.add("dictionary")
        else:
            sources.add("values")
    return sources


SMALL = dict(page_size=512, row_group_size=(N,))
OPTS = {
    "pages": WriteOptions(**SMALL),
    "pages_sorted_dict": WriteOptions(**SMALL, dict_sort_frequency=True),
    "no_column_index": WriteOptions(**SMALL, column_specs={
        c: ColumnSpec(column_index=False)
        for c in ("f64", "f64_dict", "f32", "f32_dict", "all_nan", "nan_runs", "s", "b", "fl")}),
    "one_page": WriteOptions(row_group_size=(N,)),
    "one_page_sorted_dict": WriteOptions(row_group_size=(N,), dict_sort_frequency=True),
    "no_statistics": WriteOptions(**SMALL, statistics=False),
}


def _masked(rng, values, p, typ=None):
    return pa.array(values, type=typ, mask=rng.random(len(values)) < p)


def _floats(rng, dtype) -> dict:
    special = np.array([NAN, 0.0, -0.0, INF, -INF, 1.5, -2.25], dtype=dtype)
    rand = rng.normal(0, 1e3, N).astype(dtype)
    pick = rng.random(N) < 0.2
    rand[pick] = special[rng.integers(0, len(special), int(pick.sum()))]
    # runs of NaN long enough to fill whole pages
    nan_runs = rand.copy()
    for start in (0, 700, 1900):
        nan_runs[start:start + 400] = NAN
    zeros = np.where(rng.random(N) < 0.5, 0.0, -0.0).astype(dtype)
    zeros[rng.random(N) < 0.3] = NAN
    return {
        "plain": _masked(rng, rand, 0.05),
        "dict": _masked(rng, special[rng.integers(0, len(special), N)], 0.05),
        "nan_runs": pa.array(nan_runs),
        "zeros": pa.array(zeros),
        "all_nan": _masked(rng, np.full(N, NAN, dtype=dtype), 0.1),
        "neg": pa.array(-np.abs(rand[~np.isnan(rand)][:N // 2])),
    }


def _float_table(seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    f64, f32 = _floats(rng, np.float64), _floats(rng, np.float32)
    half = rng.normal(0, 100, N).astype(np.float16)
    half[rng.random(N) < 0.1] = np.nan
    half[:5] = [0.0, -0.0, np.inf, -np.inf, np.nan]
    return pa.table({
        "f64": f64["plain"], "f64_dict": f64["dict"], "nan_runs": f64["nan_runs"],
        "zeros": f64["zeros"], "all_nan": f64["all_nan"], "neg": pa.array(
            np.resize(f64["neg"].to_numpy(), N)),
        "f32": f32["plain"], "f32_dict": f32["dict"], "f32_nan_runs": f32["nan_runs"],
        "f32_zeros": f32["zeros"], "f32_all_nan": f32["all_nan"],
        "f16": _masked(rng, half, 0.05),
        "f16_all_nan": pa.array(np.full(N, np.nan, np.float16)),
    })


def _int_time_table(seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    out = {}
    for name, typ in (("i8", np.int8), ("i32", np.int32), ("u32", np.uint32),
                      ("i64", np.int64), ("u64", np.uint64)):
        info = np.iinfo(typ)
        v = rng.integers(info.min, info.max, N, dtype=typ, endpoint=True)
        v[:4] = [info.min, info.max, 0, info.max // 2 + 1]
        out[name] = _masked(rng, v, 0.05)
        out[name + "_dict"] = pa.array(np.array([info.min, info.max, 0], typ)[
            rng.integers(0, 3, N)])
        out[name + "_sorted"] = pa.array(np.sort(v))
    day_ms = 86_400_000
    ts = 694_224_000_000 + rng.integers(-5000, 5000, N) * day_ms
    out["ts_ms"] = _masked(rng, ts, 0.05, pa.timestamp("ms"))
    out["ts_us_tz"] = pa.array(np.sort(ts) * 1000, pa.timestamp("us", "UTC"))
    out["date"] = _masked(rng, rng.integers(-20_000, 20_000, N).astype(np.int32), 0.1,
                          pa.date32())
    out["time_ms"] = pa.array(rng.integers(0, 86_400_000, N).astype(np.int32),
                              pa.time32("ms"))
    out["time_ns"] = pa.array(rng.integers(0, 86_400 * 10**9, N), pa.time64("ns"))
    out["bool"] = _masked(rng, rng.random(N) < 0.3, 0.1)
    scale = decimal.Decimal(10) ** -4
    decs = [decimal.Decimal(int(x)) * scale
            for x in rng.integers(-10**12, 10**12, N)]
    decs[:3] = [decimal.Decimal(0), decimal.Decimal("-0.0001"), decimal.Decimal("99999999.9999")]
    out["dec"] = _masked(rng, decs, 0.05, pa.decimal128(12, 4))
    out["dec_dict"] = pa.array([decs[i] for i in rng.integers(0, 4, N)],
                               pa.decimal128(12, 4))
    return pa.table(out)


def _bytes_table(seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    ff = b"\xff" * 17
    pool = [b"", b"a", b"\x00" * 20, b"\xff", ff, ff + b"\x00", ff + b"\xff\x01",
            b"\xfe" + b"\xff" * 20, b"abcdefghijklmnop", b"abcdefghijklmnopq",
            b"zzzzzzzzzzzzzzzz\xff\xff"]
    rand = [bytes(rng.integers(0, 256, int(k), dtype=np.uint8))
            for k in rng.integers(0, 40, N)]
    b = [pool[i] if rng.random() < 0.3 else rand[j]
         for j, i in enumerate(rng.integers(0, len(pool), N))]
    words = ["", "a", "ü" * 9, "日本語のテキスト" * 2, "http://example.com/" + "x" * 30,
             "\U0010ffff" * 5, "zzzzzzzzzzzzzzzzzz", "zzzzzzzzzzzzzzzz"]
    s = [words[i] + ("" if rng.random() < 0.5 else str(int(k)))
         for i, k in zip(rng.integers(0, len(words), N), rng.integers(0, 10**6, N))]
    fl = [bytes(rng.integers(0, 256, 20, dtype=np.uint8)) for _ in range(N)]
    fl[:3] = [b"\xff" * 20, b"\x00" * 20, b"\xff" * 16 + b"\x00" * 4]
    all_null = [None] * N
    for i in range(0, N, 1000):
        all_null[i:i + 3] = ["x" * 30, "y", "w" * 17]
    return pa.table({
        "b": _masked(rng, b, 0.05, pa.binary()),
        "b_ff_only": pa.array([ff + bytes([i % 2]) for i in range(N)], pa.binary()),
        "b_dict": pa.array([pool[i] for i in rng.integers(0, len(pool), N)], pa.binary()),
        "s": _masked(rng, s, 0.05, pa.string()),
        "s_large": pa.array(s, pa.large_string()),
        "s_dict": pa.array([words[i] for i in rng.integers(0, len(words), N)]),
        "fl": _masked(rng, fl, 0.05, pa.binary(20)),
        # pages that hold only nulls between the sparse values
        "mostly_null": pa.array(all_null, pa.string()),
        "all_null": pa.array([None] * N, pa.float64()),
    })


def _nested_table(seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    lens = rng.integers(0, 6, N)
    offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
    n = int(offsets[-1])
    elems = rng.normal(0, 10, n)
    elems[rng.random(n) < 0.1] = NAN
    elems[:200] = NAN
    floats = pa.ListArray.from_arrays(
        pa.array(offsets), _masked(rng, elems, 0.1), mask=pa.array(rng.random(N) < 0.05))
    words = pa.array([f"{'w' * int(k)}{k}" for k in rng.integers(0, 30, n)])
    strings = pa.ListArray.from_arrays(pa.array(offsets), words)
    point = pa.StructArray.from_arrays(
        [_masked(rng, rng.integers(-1 << 40, 1 << 40, N), 0.2),
         _masked(rng, rng.integers(0, 3, N).astype(np.float32), 0.1)],
        names=["x", "y"], mask=pa.array(rng.random(N) < 0.1))
    return pa.table({"floats": floats, "strings": strings, "point": point})


TABLES = {"float": _float_table, "int_time": _int_time_table,
          "bytes": _bytes_table, "nested": _nested_table}


@pytest.mark.parametrize("opts", OPTS, ids=list(OPTS))
@pytest.mark.parametrize("kind", TABLES)
@pytest.mark.parametrize("seed", range(2))
def test_chunk_and_page_stats_match_oracle(kind, opts, seed):
    sources = _check(TABLES[kind](seed), OPTS[opts])
    if opts in ("pages", "pages_sorted_dict"):
        assert {"pages", "dictionary"} <= sources or kind == "nested"
        assert "pages" in sources
    if opts.startswith("one_page"):
        assert sources == {"values", "dictionary"}


@pytest.mark.parametrize("opts", ["pages", "one_page", "no_column_index"])
@pytest.mark.parametrize("offset", [1, 777])
def test_sliced_arrays_match_oracle(opts, offset):
    """Tables and arrays viewed at a non-zero offset into their buffers."""
    for kind in ("float", "int_time", "bytes", "nested"):
        t = TABLES[kind](5)
        _check(t.slice(offset, N - offset - 3), OPTS[opts])
        sliced = pa.table({name: col.chunk(0).slice(offset) for name, col in
                           zip(t.column_names, t.columns)})
        _check(sliced, OPTS[opts])


def test_all_nan_chunk_has_no_min_max():
    t = pa.table({"d": pa.array([NAN] * N), "f": pa.array([NAN] * N, pa.float32())})
    for opts in (OPTS["pages"], OPTS["one_page"]):
        _check(t, opts)
        leaves = leaf_columns(schema_from_arrow(t.schema))
        for leaf, col in zip(leaves, _leaf_arrays(t, leaves)):
            _, meta = C.encode_chunk(col, leaf, ColumnSpec(), opts)
            assert meta.stats.min_bytes is None and meta.stats.max_bytes is None


def test_geospatial_chunk_keeps_null_only_stats():
    rng = np.random.default_rng(3)
    wkb = [geojson_to_wkb({"type": "Point", "coordinates": [float(x), float(y)]})
           for x, y in rng.normal(0, 50, (N, 2))]
    t = pa.table({"geom": _masked(rng, wkb, 0.1, pa.binary())})
    for page_size in (512, 1 << 20):
        opts = WriteOptions(page_size=page_size, row_group_size=(N,),
                            column_specs={"geom": ColumnSpec(geospatial=True)})
        assert _check(t, opts) == {"geo"}
