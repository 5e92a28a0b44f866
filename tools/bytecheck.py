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
- ``text_fsst.parquet``: web-table ``url`` + ``text`` with FSST on
  ``text``.
- ``nested.parquet``: lists, structs and a map with nulls at every
  level, plus boolean columns, so repetition levels and the boolean
  RLE path are covered; written with small pages so each column spans
  several pages.

Usage: python tools/bytecheck.py [--out DIR]   (files are kept in DIR
when given, else written to a temporary directory and removed)
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

import numpy as np
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from hyparquet_writer_ray import ColumnSpec, WriteOptions, write_table  # noqa: E402
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


def _files() -> list[tuple[str, pa.Table, WriteOptions]]:
    web = synthesize_batch(0, 20_000)
    return [
        ("lineitem.parquet", _lineitem(), WriteOptions()),
        ("webtable_smart.parquet", web, WriteOptions(auto_codec="smart")),
        ("text_fsst.parquet", synthesize_batch(20_000, 20_000).select(["url", "text"]),
         WriteOptions(column_specs={"text": ColumnSpec(fsst=True)})),
        ("nested.parquet", _nested(), WriteOptions(page_size=16 << 10)),
    ]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="directory to keep the files in")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or tmp
        os.makedirs(out, exist_ok=True)
        for name, table, opts in _files():
            path = os.path.join(out, name)
            write_table(table, path, opts)
            with open(path, "rb") as f:
                print(f"{hashlib.sha256(f.read()).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
