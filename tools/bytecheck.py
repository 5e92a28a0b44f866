#!/usr/bin/env python
"""Byte-identity check for encoder changes.

Writes a fixed set of parquet files from in-repo generators and prints
one ``sha256  name`` line per file. Output bytes are the writer's
contract, so an encoder refactor is checked by running this on the
parent commit and on the change and diffing the two outputs:

    python tools/bytecheck.py > /tmp/after.txt
    (cd <parent checkout> && python tools/bytecheck.py) > /tmp/before.txt
    diff /tmp/before.txt /tmp/after.txt

The files cover:

- ``lineitem.parquet``: a seeded TPC-H-lineitem-shaped table (int keys,
  doubles, low-cardinality flag strings, timestamps) with default
  options: dictionary pages, bit-packed indexes, no-null level runs.
- ``webtable_smart.parquet``: ``sources.webtable`` rows with
  ``auto_codec="smart"``: delta, delta-length and byte-stream-split
  pages, and nullable text with scattered nulls.
- ``webtable_plain.parquet``: the same rows with default options:
  PLAIN BYTE_ARRAY pages of multi-KB values (``html``, ``text``) and
  of ``url``, with scattered nulls, plus the ``lang`` dictionary page.
- ``text_fsst.parquet``: web-table ``url`` + ``text`` with FSST on
  ``text``.
- ``url_fsst.parquet``: web-table ``url`` with FSST on it: a second
  table shape, mostly 6- to 8-byte symbols, for the scan's 8-byte
  probe.
- ``nested.parquet``: lists, structs and a map with nulls at every
  level, plus boolean columns, so repetition levels and the boolean
  RLE path are covered; written with small pages so each column spans
  several pages.
- ``stats_edge.parquet``: float64 and float32 columns with NaN, -0.0,
  +0.0 and +-inf (all-NaN pages, one row group all NaN), and
  dictionary columns (skewed strings, doubles with NaN and signed
  zeros) written with ``dict_sort_frequency=True`` in 5,000-row groups
  of 1 KiB pages: multi-page chunks take their statistics from the
  column index's page statistics, single-page dictionary chunks from
  the dictionary.
- ``delta_edge.parquet``: int8, int16, int32, uint32, int64, uint64,
  date32 and timestamp columns forced to DELTA_BINARY_PACKED, each
  with full-range random values (wrapping deltas), a monotone run,
  constant runs and alternating min/max extremes, plus a url-like
  string column forced to DELTA_BYTE_ARRAY, all with nulls, in 1 KiB
  pages.
- ``dict_edge.parquet``: dictionary chunks of int8, int16 (with
  nulls), uint32, date32, a time-zoned timestamp, float32, a float64
  column with one NaN late in one chunk, and 2- and 8-byte strings;
  int32 columns at the trial's boundary (exactly 500 and 501 distinct
  values in a 1,000-value sample, 500 in a 999-row chunk), an int64
  column whose dictionary outgrows the 4 KiB page in the larger
  chunks, and an all-distinct column forced to RLE_DICTIONARY. The
  input is a slice at a non-zero offset, cut into row groups of 999,
  1,000, 1,001, 6,000, 6,000 and 300 rows.
- ``nullable_large.parquet``: ``large_string`` and ``large_binary``
  columns (64-bit offsets) whose null slots own bytes (``pc.if_else``
  output), sliced at a non-zero offset and written in 4 KiB pages:
  PLAIN pages of both types, DELTA_LENGTH_BYTE_ARRAY, DELTA_BYTE_ARRAY,
  an accepted dictionary, and FSST on web text.
- ``nullable_bloom.parquet``: ``string`` and ``large_string`` columns
  whose null slots own bytes, each with a bloom filter, under PLAIN,
  under DELTA_LENGTH_BYTE_ARRAY and under an accepted dictionary of
  2-byte values (the kernel's equal-width keys), sliced at a non-zero
  offset and written in 4 KiB pages: the bloom filter and the pages
  read the same chunk's values.
- ``byte_bounds.parquet``: ``string`` and ``binary`` columns (and one
  ``large_binary``) whose page minima and maxima hinge on byte order:
  values that tie on their first 8 bytes and differ later, a value
  and its prefix (``ab`` and ``ab\\x00``), 0x00 and 0xFF bytes, empty
  values and 0xFF-led values longer than 16 bytes (the max's
  truncation falls back to the whole value), with null slots owning
  bytes, sliced, in 1 KiB pages: PLAIN, DELTA_LENGTH_BYTE_ARRAY and
  FSST over either, with and without a column index.
- ``rows.parquet``: ``write_rows`` of row dicts to a path sink with
  ``row_group_size=(700, 1500)``: inferred int32, int64, double,
  string, boolean and timestamp columns with nulls, and a dict-valued
  column written as JSON text.
- ``writer_calls.parquet``: one ``ParquetWriter`` fed three
  ``write()`` calls (split, unsplit, split) across the schedule
  ``(300, 500, 800)``, so each call picks the schedule up where the
  previous one left it.

The ``lineitem.parquet`` to ``byte_bounds.parquet`` files are written
by ``write_table`` to a path sink.

With ``--ray`` it starts a local Ray session and checks the Ray
writers instead: ``write_parquet_dataset`` (plain and with ``sort_by``),
``write_parquet_partitioned``, ``write_parquet_files``,
``compact_parquet_dataset`` and ``write_parquet_single_file`` with a
``checkpoint_dir``, all on four small seeded web-table files, plus
``dataset_chunked`` and ``single_chunked``: ``write_parquet_dataset``
and the checkpointed ``write_parquet_single_file`` of
``read_parquet_fused(inp).map_batches(identity)`` under a 2 MiB
``target_max_block_size``, whose read blocks hold several read batches
(a 2,000-row input is one batch at the default target, so the other
lines cannot see how the read chunks its blocks). It prints
one ``sha256  writer/relative-name`` line per output part and per
lineage ``parts/*.json`` record or checkpoint blob, sorted by name (a
checkpoint dir holds blobs only: each is one row group as
``core/rowgroup.dumps`` bytes, the blob, its metadata as Thrift, their
length and a trailer, and is its own record).
Then it deletes one part per writer (for the two single-file writers,
one checkpoint blob), reruns every writer as a resume, and exits with
an error unless the resumed files hash the same as the fresh ones; the
printed lines are the fresh run's. It also writes one input with
``write_table_parallel`` in 250-row slices (``parallel/data.parquet``)
and exits with an error unless its bytes equal the serial
``write_table`` output of the same table. Last, it runs
``write_parquet_files`` on the four inputs named as ``file://`` URIs
(into ``files_uri``, which prints no line) and exits with an error
unless every part's bytes equal the matching ``files/`` part's. Part
names of ``write_parquet_files`` hash the absolute input path and
compaction bucket ids hash input mtimes, so the inputs live at a fixed
path (``--out``, default ``<tmpdir>/hpw-bytecheck-ray``) and get a
fixed mtime.

With ``--no-kernel`` it writes the default files with the compiled
kernel (``core/_kernel``) disabled, so every encoder runs its Python or
numpy fallback; its lines must equal the plain run's:

    diff <(python tools/bytecheck.py) <(python tools/bytecheck.py --no-kernel)

Usage: python tools/bytecheck.py [--ray | --no-kernel] [--out DIR]
(files are kept in DIR when given, else removed at the end)
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import os
import shutil
import sys
import tempfile
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from hyparquet_writer_ray import (  # noqa: E402
    ColumnSpec,
    Encoding,
    ParquetWriter,
    WriteOptions,
    write_rows,
    write_table,
)
from hyparquet_writer_ray.sources.webtable import synthesize_batch  # noqa: E402


def _lineitem(n: int = 200_000, seed: int = 7) -> pa.Table:
    rng = np.random.default_rng(seed)
    lines = rng.integers(1, 8, n)
    orderkey = np.repeat(np.arange(1, n + 1, dtype=np.int64), lines)[:n]
    quantity = rng.integers(1, 51, n).astype(np.float64)
    day_ms = 86_400_000
    ship = 694_224_000_000 + rng.integers(0, 2526, n) * day_ms
    return pa.table({
        "l_orderkey": orderkey,
        "l_partkey": rng.integers(1, 200_001, n),
        "l_suppkey": rng.integers(1, 10_001, n),
        "l_linenumber": rng.integers(1, 8, n).astype(np.int32),
        "l_quantity": quantity,
        "l_extendedprice": np.round(quantity * rng.uniform(900, 2000, n), 2),
        "l_discount": rng.integers(0, 11, n) / 100,
        "l_returnflag": pa.array(["A", "N", "R"]).take(rng.integers(0, 3, n)),
        "l_linestatus": pa.array(["F", "O"]).take(rng.integers(0, 2, n)),
        "l_shipdate": pa.array(ship, pa.timestamp("ms")),
    })


def _nested(n: int = 30_000, seed: int = 11) -> pa.Table:
    rng = np.random.default_rng(seed)

    def masked(values, p):
        return pa.array(values, mask=rng.random(len(values)) < p)

    # list<int32> with null lists, empty lists and null elements
    lens = rng.integers(0, 6, n)
    offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
    elems = masked(rng.integers(0, 300, int(offsets[-1])).astype(np.int32), 0.1)
    ints = pa.ListArray.from_arrays(pa.array(offsets), elems,
                                    mask=pa.array(rng.random(n) < 0.05))
    # list<bool> where most lists are long runs of one value
    blens = rng.integers(0, 40, n)
    boffsets = np.concatenate([[0], np.cumsum(blens)]).astype(np.int32)
    bvals = np.repeat(rng.random(n) < 0.5, blens)
    bvals[rng.random(len(bvals)) < 0.02] ^= True
    bools = pa.ListArray.from_arrays(pa.array(boffsets), pa.array(bvals))
    point = pa.StructArray.from_arrays(
        [masked(rng.integers(0, 1 << 20, n), 0.2), masked(rng.random(n) < 0.3, 0.1)],
        names=["x", "flag"], mask=pa.array(rng.random(n) < 0.1))
    mlens = rng.integers(0, 3, n)
    moffsets = np.concatenate([[0], np.cumsum(mlens)]).astype(np.int32)
    nkeys = int(moffsets[-1])
    tags = pa.MapArray.from_arrays(
        pa.array(moffsets),
        pa.array([f"k{i % 7}" for i in range(nkeys)]),
        masked(rng.integers(0, 5, nkeys).astype(np.int64), 0.3))
    return pa.table({
        "id": np.arange(n, dtype=np.int64),
        "flag": masked(rng.random(n) < 0.9, 0.01),
        "dense_flag": pa.array(rng.random(n) < 0.5),
        "ints": ints,
        "bools": bools,
        "point": point,
        "tags": tags,
    })


def _stats_edge(n: int = 20_000, seed: int = 13) -> pa.Table:
    rng = np.random.default_rng(seed)
    special = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf])
    dbl = rng.normal(0, 1e6, n)
    pick = rng.random(n) < 0.1
    dbl[pick] = special[rng.integers(0, len(special), int(pick.sum()))]
    dbl[1_000:1_500] = np.nan  # all-NaN pages among the first group's
    dbl[5_000:10_000] = np.nan  # the second row group is all NaN
    zeros = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    zeros[rng.random(n) < 0.2] = np.nan
    words = [f"w{i:02d}-" + "x" * (i % 23) for i in range(40)]
    return pa.table({
        "dbl": pa.array(dbl, mask=rng.random(n) < 0.05),
        "flt": pa.array(dbl.astype(np.float32)),
        "zeros": pa.array(zeros),
        "dict_str": pa.array(words).take(rng.zipf(1.5, n) % len(words)),
        "dict_dbl": pa.array(special[:3]).take(rng.integers(0, 3, n)),
    })


def _delta_edge(n: int = 20_000, seed: int = 17) -> pa.Table:
    rng = np.random.default_rng(seed)
    q = n // 4

    def ints(dtype) -> pa.Array:
        info = np.iinfo(dtype)
        v = rng.integers(info.min, info.max, n, endpoint=True, dtype=dtype)
        v[q:2 * q] = np.sort(v[q:2 * q])
        v[2 * q:3 * q] = np.repeat(v[2 * q:3 * q:300], 300)[:q]
        v[3 * q::2], v[3 * q + 1::2] = info.min, info.max
        return pa.array(v, mask=rng.random(n) < 0.05)

    hosts = np.sort(rng.integers(0, 60, n))
    return pa.table({
        "i8": ints(np.int8), "i16": ints(np.int16), "i32": ints(np.int32),
        "u32": ints(np.uint32), "i64": ints(np.int64), "u64": ints(np.uint64),
        "date": ints(np.int32).cast(pa.date32()),
        "ts": ints(np.int64).cast(pa.timestamp("us")),
        "url": pa.array([f"https://host{h}.example.org/p/{i % 97}/{i}" for i, h in enumerate(hosts)],
                        mask=rng.random(n) < 0.05),
    })


def _dict_edge(n: int = 15_300, seed: int = 29) -> pa.Table:
    rng = np.random.default_rng(seed)
    skip = 123  # sliced off below
    m = n + skip
    i = np.arange(m) - skip

    def pick(values, dtype=None) -> np.ndarray:
        return np.asarray(values, dtype)[rng.integers(0, len(values), m)]

    f64 = pick(np.round(rng.normal(0, 50, 20), 1))
    f64[12_000 + skip] = np.nan
    return pa.table({
        "i8": pick(np.arange(-128, 128), np.int8),
        "i16": pa.array(pick(np.arange(-200, 200), np.int16), mask=rng.random(m) < 0.05),
        "u32": pick(rng.integers(0, 2**32, 50), np.uint32),
        "date": pa.array(pick(np.arange(10_950, 11_250), np.int32), pa.date32()),
        "ts_tz": pa.array(pick(rng.integers(0, 2**50, 100)), pa.timestamp("us", tz="America/New_York")),
        "f32": pick([np.inf, -np.inf, 0.0, *rng.normal(0, 1e3, 61)], np.float32),
        "f64_late_nan": f64,
        "s2": pa.array(pick([f"{c}{d}" for c in "ABCDEFGH" for d in "xyz"])),
        "s8": pa.array(pick([f"code{k:04d}".encode() for k in range(40)]), pa.binary()),
        "b500": (i % 500).astype(np.int32),
        "b501": (i % 501).astype(np.int32),
        "wide": i // 3,
        "forced": i,
    }).slice(skip)


def _nullable_large(n: int = 12_000, seed: int = 31) -> pa.Table:
    rng = np.random.default_rng(seed)
    skip = 77  # sliced off below
    m = n + skip

    def owned(values: pa.Array, p: float) -> pa.Array:
        # pc.if_else keeps each null slot's bytes in the value buffer
        return pc.if_else(pa.array(rng.random(m) < p), pa.scalar(None, values.type), values)

    words = [f"w{k}-" + "y" * (k % 29) for k in range(300)]
    text = synthesize_batch(60_000, m).column("text").combine_chunks()
    hosts = np.sort(rng.integers(0, 40, m))
    return pa.table({
        "plain_str": owned(pa.array(words, pa.large_string()).take(rng.integers(0, 300, m)), 0.1),
        "plain_bin": owned(pa.array([bytes(rng.integers(0, 256, int(k), dtype=np.uint8))
                                     for k in rng.integers(0, 90, m)], pa.large_binary()), 0.3),
        "dlba": owned(pa.array([w.encode() * int(k) for w, k in
                                zip(np.array(words)[rng.integers(0, 300, m)], rng.integers(0, 4, m))],
                               pa.large_binary()), 0.05),
        "dba": owned(pa.array([f"https://host{h}.example.org/p/{i % 89}/{i}" for i, h in enumerate(hosts)],
                              pa.large_string()), 0.05),
        "dict": owned(pa.array(words[:25], pa.large_string()).take(rng.integers(0, 25, m)), 0.2),
        "fsst": owned(text.fill_null("").cast(pa.large_string()), 0.02),
    }).slice(skip)


def _nullable_bloom(n: int = 12_000, seed: int = 37) -> pa.Table:
    rng = np.random.default_rng(seed)
    skip = 45  # sliced off below
    m = n + skip
    words = [f"w{k}-" + "q" * (k % 23) for k in range(2_000)]
    codes = [f"{c}{d}" for c in "ABCDEFGH" for d in "xyz"]
    cols = {}
    for typ in (pa.string(), pa.large_string()):
        for kind, pool in (("plain", words), ("dlba", words), ("dict2", codes)):
            values = pa.array(pool, typ).take(rng.integers(0, len(pool), m))
            # pc.if_else keeps each null slot's bytes in the value buffer
            cols[f"{kind}_{typ}"] = pc.if_else(
                pa.array(rng.random(m) < 0.1), pa.scalar(None, typ), values)
    return pa.table(cols).slice(skip)


def _byte_bounds(n: int = 12_000, seed: int = 41) -> pa.Table:
    rng = np.random.default_rng(seed)
    skip = 21  # sliced off below
    m = n + skip
    binary = [b"", b"\x00", b"\x01", b"ab", b"ab\x00", b"abcdefgh", b"abcdefghA",
              b"\x7f", b"\x80", b"\xfe", b"\xff", b"\xff" * 17, b"\xff" * 20 + b"\x01"]
    text = [b"", b"\x00", b"ab", b"ab\x00", b"abcdefgh", b"abcdefghB", b"\x7f",
            "\u00e9".encode(), "\U0010ffff".encode()]

    def column(tokens: list, typ: pa.DataType) -> pa.Array:
        stems = [b"".join(tokens[i] for i in rng.integers(0, len(tokens), 3))
                 for _ in range(40)]
        values = [stems[int(s)] + tokens[int(t)] + b"%d" % k for s, t, k in zip(
            rng.integers(0, 40, m), rng.integers(0, len(tokens), m), rng.integers(0, 9, m))]
        values = pa.array(values, pa.binary()).cast(typ)
        # pc.if_else keeps each null slot's bytes in the value buffer
        return pc.if_else(pa.array(rng.random(m) < 0.1), pa.scalar(None, typ), values)

    return pa.table({
        "bin_plain": column(binary, pa.binary()),
        "bin_dlba": column(binary, pa.large_binary()),
        "bin_fsst": column(binary, pa.binary()),
        "str_plain": column(text, pa.string()),
        "str_dlba": column(text, pa.string()),
        "str_fsst": column(text, pa.large_string()),
        "str_no_index": column(text, pa.string()),
    }).slice(skip)


def _files() -> list[tuple[str, pa.Table, WriteOptions]]:
    web = synthesize_batch(0, 20_000)
    return [
        ("lineitem.parquet", _lineitem(), WriteOptions()),
        ("webtable_smart.parquet", web, WriteOptions(auto_codec="smart")),
        ("webtable_plain.parquet", web, WriteOptions()),
        ("text_fsst.parquet", synthesize_batch(20_000, 20_000).select(["url", "text"]),
         WriteOptions(column_specs={"text": ColumnSpec(fsst=True)})),
        ("url_fsst.parquet", synthesize_batch(40_000, 20_000).select(["url"]),
         WriteOptions(column_specs={"url": ColumnSpec(fsst=True)})),
        ("nested.parquet", _nested(), WriteOptions(page_size=16 << 10)),
        ("stats_edge.parquet", _stats_edge(),
         WriteOptions(page_size=1 << 10, row_group_size=(5_000,),
                      dict_sort_frequency=True)),
        ("delta_edge.parquet", _delta_edge(),
         WriteOptions(page_size=1 << 10, column_specs={
             **{c: ColumnSpec(encoding=Encoding.DELTA_BINARY_PACKED)
                for c in ("i8", "i16", "i32", "u32", "i64", "u64", "date", "ts")},
             "url": ColumnSpec(encoding=Encoding.DELTA_BYTE_ARRAY)})),
        ("dict_edge.parquet", _dict_edge(),
         WriteOptions(page_size=4 << 10, row_group_size=(999, 1_000, 1_001, 6_000, 6_000, 300),
                      column_specs={"forced": ColumnSpec(encoding=Encoding.RLE_DICTIONARY)})),
        ("nullable_large.parquet", _nullable_large(),
         WriteOptions(page_size=4 << 10, row_group_size=(5_000,), column_specs={
             "plain_str": ColumnSpec(encoding=Encoding.PLAIN),
             "plain_bin": ColumnSpec(encoding=Encoding.PLAIN),
             "dlba": ColumnSpec(encoding=Encoding.DELTA_LENGTH_BYTE_ARRAY),
             "dba": ColumnSpec(encoding=Encoding.DELTA_BYTE_ARRAY),
             "fsst": ColumnSpec(fsst=True)})),
        ("nullable_bloom.parquet", _nullable_bloom(),
         WriteOptions(page_size=4 << 10, row_group_size=(5_000,), column_specs={
             f"{kind}_{typ}": ColumnSpec(encoding=encoding, bloom_filter=True)
             for typ in ("string", "large_string")
             for kind, encoding in (("plain", Encoding.PLAIN),
                                    ("dlba", Encoding.DELTA_LENGTH_BYTE_ARRAY),
                                    ("dict2", None))})),
        ("byte_bounds.parquet", _byte_bounds(),
         WriteOptions(page_size=1 << 10, row_group_size=(5_000,), column_specs={
             "bin_plain": ColumnSpec(encoding=Encoding.PLAIN),
             "bin_dlba": ColumnSpec(encoding=Encoding.DELTA_LENGTH_BYTE_ARRAY),
             "bin_fsst": ColumnSpec(encoding=Encoding.DELTA_LENGTH_BYTE_ARRAY, fsst=True),
             "str_plain": ColumnSpec(encoding=Encoding.PLAIN),
             "str_dlba": ColumnSpec(encoding=Encoding.DELTA_LENGTH_BYTE_ARRAY),
             "str_fsst": ColumnSpec(encoding=Encoding.PLAIN, fsst=True),
             "str_no_index": ColumnSpec(encoding=Encoding.PLAIN, column_index=False)})),
    ]


def _rows(n: int = 5_000, seed: int = 19) -> list[dict]:
    rng = np.random.default_rng(seed)
    t0 = datetime.datetime(2024, 1, 1)
    return [{
        "id": i,
        "big": None if i % 13 == 4 else int(rng.integers(-2**40, 2**40)),
        "score": None if i % 11 == 5 else float(rng.normal()),
        "name": None if i % 7 == 3 else f"user-{int(rng.integers(0, 300))}",
        "ok": None if i % 17 == 1 else bool(rng.random() < 0.5),
        "ts": t0 + datetime.timedelta(milliseconds=int(rng.integers(0, 10**10))),
        "meta": None if i % 5 == 2 else {
            "k": int(rng.integers(0, 9)),
            "tags": [f"t{int(x)}" for x in rng.integers(0, 20, int(rng.integers(0, 4)))],
            "note": "ü" * int(rng.integers(0, 3))},
    } for i in range(n)]


def _writer_calls(path: str) -> None:
    table = _lineitem(4_000, seed=23)
    with open(path, "wb") as f:
        pw = ParquetWriter(f, table.schema, WriteOptions(row_group_size=(300, 500, 800)))
        pw.write(table.slice(0, 1_000))
        pw.write(table.slice(1_000, 700), split_row_groups=False)
        pw.write(table.slice(1_700))
        pw.finish()


def _writes():
    """``(name, write(path))`` per file of the default check."""
    for name, table, opts in _files():
        yield name, partial(write_table, table, opts=opts)
    yield "rows.parquet", partial(write_rows, _rows(),
                                  opts=WriteOptions(row_group_size=(700, 1500)))
    yield "writer_calls.parquet", _writer_calls


WRITERS = ["dataset", "dataset_sorted", "partitioned", "files", "compact", "single",
           "dataset_chunked", "single_chunked"]


def _ray_writers(work: str) -> None:
    """Run every Ray writer into ``work/<writer>`` (a rerun resumes)."""
    import pyarrow.parquet as pq
    import ray.data

    from hyparquet_writer_ray.pipelines.write import (
        compact_parquet_dataset,
        read_parquet_fused,
        write_parquet_dataset,
        write_parquet_files,
        write_parquet_partitioned,
        write_parquet_single_file,
    )

    inp = os.path.join(work, "in")
    paths = [os.path.join(inp, f"web-{i}.parquet") for i in range(4)]
    if not os.path.isdir(inp):
        os.makedirs(inp)
        for i, path in enumerate(paths):
            pq.write_table(synthesize_batch(i * 2_000, 2_000), path)
            os.utime(path, ns=(1_700_000_000 * 10**9,) * 2)
    opts = WriteOptions(auto_codec="smart")
    small = dict(max_group_rows=700)
    out = lambda name: os.path.join(work, name)  # noqa: E731
    write_parquet_dataset(read_parquet_fused(inp), out("dataset"), opts, **small)
    write_parquet_dataset(read_parquet_fused(inp), out("dataset_sorted"), opts,
                          sort_by=["lang", "url"], **small)
    write_parquet_partitioned(read_parquet_fused(inp), out("partitioned"), "lang",
                              opts, **small)
    write_parquet_files(paths, out("files"), opts, **small)
    compact_parquet_dataset(inp, out("compact"), opts,
                            target_part_bytes=3 * os.path.getsize(paths[0]), **small)
    write_parquet_single_file(read_parquet_fused(inp),
                              os.path.join(out("single"), "data.parquet"), opts,
                              checkpoint_dir=out("single/checkpoint"), **small)
    # The same inputs under a 2 MiB block target: each read block holds
    # about ten read batches and each input gives two blocks, so a
    # changed chunk layout of the read renames these content-named parts
    # and checkpoint blobs.
    ctx = ray.data.DataContext.get_current()
    target, ctx.target_max_block_size = ctx.target_max_block_size, 2 << 20
    try:
        def chunked():
            return read_parquet_fused(inp).map_batches(lambda b: b,
                                                       batch_format="pyarrow")

        write_parquet_dataset(chunked(), out("dataset_chunked"), opts, **small)
        write_parquet_single_file(chunked(),
                                  os.path.join(out("single_chunked"), "data.parquet"),
                                  opts, checkpoint_dir=out("single_chunked/checkpoint"),
                                  **small)
    finally:
        ctx.target_max_block_size = target


def _parallel_line(work: str) -> str:
    """Write one input with ``write_table_parallel`` in 250-row slices;
    fail unless it equals the serial ``write_table`` output."""
    import pyarrow.parquet as pq

    from hyparquet_writer_ray import write_table_parallel, write_table_to_bytes

    table = pq.read_table(os.path.join(work, "in", "web-0.parquet"))
    opts = WriteOptions(row_group_size=(250,))
    path = os.path.join(work, "parallel", "data.parquet")
    os.makedirs(os.path.dirname(path))
    write_table_parallel(table, path, opts)
    with open(path, "rb") as f:
        data = f.read()
    if data != write_table_to_bytes(table, opts):
        raise SystemExit("write_table_parallel differs from the serial write_table")
    return f"{hashlib.sha256(data).hexdigest()}  parallel/data.parquet"


def _file_uri_check(work: str) -> None:
    """Write the four inputs named as ``file://`` URIs with
    ``write_parquet_files``; fail unless every part equals the matching
    local ``files/`` part (the names differ only in their path hash)."""
    from hyparquet_writer_ray.pipelines.write import write_parquet_files

    inp = os.path.join(work, "in")
    out = os.path.join(work, "files_uri")
    write_parquet_files([f"file://{os.path.join(inp, f'web-{i}.parquet')}" for i in range(4)],
                        out, WriteOptions(auto_codec="smart"), max_group_rows=700)

    def parts(d: str) -> dict[str, bytes]:
        found = {}
        for name in os.listdir(d):
            if name.endswith(".parquet"):
                with open(os.path.join(d, name), "rb") as f:
                    found[name.rsplit("-", 1)[0]] = f.read()
        return found

    got, want = parts(out), parts(os.path.join(work, "files"))
    if got != want:
        raise SystemExit("write_parquet_files of file:// inputs differs from local inputs: "
                         + ", ".join(sorted(k for k in got.keys() | want.keys()
                                            if got.get(k) != want.get(k))))


def _delete_one_part(work: str, lines: list[str]) -> None:
    """Delete each writer's first part in name order; for ``single``
    and ``single_chunked``, its first checkpoint blob."""
    names = [line.split("  ", 1)[1] for line in lines]
    for writer in WRITERS:
        kind = "/blobs/" if writer.startswith("single") else ".parquet"
        os.remove(os.path.join(work, next(
            n for n in names if n.startswith(writer + "/") and kind in n)))


def _ray_lines(work: str) -> list[str]:
    import ray

    ray.init(address="local", num_cpus=2, include_dashboard=False)
    try:
        _ray_writers(work)
        fresh = _hashes(work)
        _delete_one_part(work, fresh)
        _ray_writers(work)
        parallel = _parallel_line(work)
        _file_uri_check(work)
    finally:
        ray.shutdown()
    resumed = _hashes(work)
    if resumed != fresh:
        changed = sorted(set(fresh) ^ set(resumed), key=lambda line: line.split("  ", 1)[1])
        raise SystemExit("resume changed these files:\n" + "\n".join(changed))
    return sorted(fresh + [parallel], key=lambda line: line.split("  ", 1)[1])


def _hashes(work: str) -> list[str]:
    lines = []
    for writer in WRITERS:
        base = os.path.join(work, writer)
        for root, _, names in os.walk(base):
            for name in names:
                rel = os.path.relpath(os.path.join(root, name), base)
                parts = rel.split(os.sep)
                kept = name.endswith(".parquet") and not parts[0].startswith("_lineage") \
                    or len(parts) > 2 and parts[-2] in ("parts", "blobs")
                if kept:
                    with open(os.path.join(base, rel), "rb") as f:
                        digest = hashlib.sha256(f.read()).hexdigest()
                    lines.append(f"{digest}  {writer}/{'/'.join(parts)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="directory to keep the files in")
    ap.add_argument("--ray", action="store_true", help="check the Ray writers")
    ap.add_argument("--no-kernel", action="store_true",
                    help="write the default files without the compiled kernel")
    args = ap.parse_args()
    if args.no_kernel:
        if args.ray:
            ap.error("--no-kernel applies to the default files only: "
                     "Ray workers load the kernel in their own processes")
        from hyparquet_writer_ray.core import _kernel
        _kernel._tried, _kernel._lib = True, None
    if args.ray:
        work = args.out or os.path.join(tempfile.gettempdir(), "hpw-bytecheck-ray")
        shutil.rmtree(work, ignore_errors=True)
        try:
            for line in _ray_lines(work):
                print(line)
        finally:
            if not args.out:
                shutil.rmtree(work, ignore_errors=True)
        return
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or tmp
        os.makedirs(out, exist_ok=True)
        for name, write in _writes():
            path = os.path.join(out, name)
            write(path)
            with open(path, "rb") as f:
                print(f"{hashlib.sha256(f.read()).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
