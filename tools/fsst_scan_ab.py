#!/usr/bin/env python
"""A/B timing of the compiled FSST scan (``fsst_compress``) between two
revisions of the package.

Usage: python tools/fsst_scan_ab.py <rev-a> <rev-b> [--runs N] [--rows N]

It takes ``_C_SRC`` from each revision's ``hyparquet_writer_ray/core/_kernel.py``
(``git show <rev>:<path>``, parsed with ``ast``; an empty rev, ``""``,
is the index), compiles each with ``cc -O3 -shared -fPIC`` into a temp
dir and loads both with ctypes. On every corpus it first checks that
the two scans give equal codes, and exits 1 naming the corpus if they
do not. Then it times ``fsst_compress`` over the corpus' pages, A and B
alternating, and prints the best of ``--runs`` samples for each, in
MB/s of scanned input, with their ratio.

Each corpus is laid out as the page loop lays out a FSST chunk: PLAIN
BYTE_ARRAY pages (u32 length, then the bytes) of about 1 MiB, scanned
with one table trained, by the checkout's own ``fsst.train``, on the
value bytes of the first 2,000 values, as ``chunk.encode_chunk`` trains
it. The corpora are fixed:

- ``text`` and ``url``: those columns of ``sources.webtable.synthesize_batch``
  from row 600,000 (the ``text_fsst`` workload's seed-3 rows);
- ``json``: JSON-like rows (ids, names, scores, tags, timestamps) from a
  seeded generator;
- ``random``: values of 0-100 seeded random bytes, whose table holds
  mostly single bytes.
"""
from __future__ import annotations

import argparse
import ast
import ctypes
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from hyparquet_writer_ray.core import _kernel, fsst  # noqa: E402

KERNEL = "hyparquet_writer_ray/core/_kernel.py"
PAGE_BYTES = 1 << 20
TRAIN_VALUES = 2_000
MIN_SAMPLE_S = 0.05  # each timed sample scans the corpus this long at least


def _c_src(rev: str) -> str:
    """``_C_SRC`` of ``rev``'s kernel module."""
    text = subprocess.run(["git", "-C", ROOT, "show", f"{rev}:{KERNEL}"],
                          check=True, capture_output=True, text=True).stdout
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "_C_SRC" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"{rev}: no _C_SRC in {KERNEL}")


def _load(src: str, path: str) -> ctypes.CDLL:
    with open(path + ".c", "w") as f:
        f.write(src)
    subprocess.run(["cc", "-O3", "-shared", "-fPIC", "-o", path, path + ".c"],
                   check=True, capture_output=True)
    lib = ctypes.CDLL(path)
    lib.fsst_compress.restype = ctypes.c_size_t
    lib.fsst_compress.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_char_p,
                                  ctypes.c_char_p, ctypes.c_int, ctypes.c_void_p]
    return lib


def _json_rows(n: int) -> list[bytes]:
    rng = np.random.default_rng(11)
    names = [f"user_{i:04d}" for i in range(500)]
    tags = ["red", "green", "blue", "sale", "new", "archived", "priority"]
    return [json.dumps({
        "id": 100_000 + i,
        "name": names[int(rng.integers(500))],
        "score": round(float(rng.normal(50, 15)), 3),
        "active": bool(rng.random() < 0.7),
        "tags": [tags[int(t)] for t in rng.integers(0, len(tags), int(rng.integers(0, 4)))],
        "ts": f"2024-{int(rng.integers(1, 13)):02d}-{int(rng.integers(1, 29)):02d}"
              f"T{int(rng.integers(24)):02d}:{int(rng.integers(60)):02d}:00Z",
    }).encode() for i in range(n)]


def _random_values(n: int) -> list[bytes]:
    rng = np.random.default_rng(5)
    return [rng.bytes(int(k)) for k in rng.integers(0, 101, n)]


def corpora(rows: int) -> dict[str, list[bytes]]:
    from hyparquet_writer_ray.sources.webtable import synthesize_batch

    web = synthesize_batch(600_000, rows).select(["url", "text"])
    return {
        "text": [v for v in web.column("text").to_pylist() if v is not None],
        "url": [v for v in web.column("url").to_pylist() if v is not None],
        "json": _json_rows(rows),
        "random": _random_values(rows),
    }


def _pages(values: list) -> list[np.ndarray]:
    """PLAIN BYTE_ARRAY pages of about ``PAGE_BYTES``, each followed by
    the kernel's zero slack."""
    pages, cur, size = [], [], 0
    for v in values:
        b = v.encode() if isinstance(v, str) else v
        cur += (len(b).to_bytes(4, "little"), b)
        size += 4 + len(b)
        if size >= PAGE_BYTES:
            pages.append(b"".join(cur))
            cur, size = [], 0
    if cur:
        pages.append(b"".join(cur))
    out = []
    for p in pages:
        buf = np.zeros(len(p) + _kernel.SLACK, np.uint8)
        buf[:len(p)] = np.frombuffer(p, np.uint8)
        out.append(buf)
    return out


def _scan(lib, pages, packed, outs) -> list[bytes]:
    sb, sl, nsym = packed
    return [out[:lib.fsst_compress(p.ctypes.data, p.size - _kernel.SLACK, sb, sl, nsym,
                                   out.ctypes.data)].tobytes()
            for p, out in zip(pages, outs)]


def _time(lib, pages, packed, outs, reps: int) -> float:
    sb, sl, nsym = packed
    f = lib.fsst_compress
    t = time.perf_counter()
    for _ in range(reps):
        for p, out in zip(pages, outs):
            f(p.ctypes.data, p.size - _kernel.SLACK, sb, sl, nsym, out.ctypes.data)
    return (time.perf_counter() - t) / reps


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev_a")
    ap.add_argument("rev_b")
    ap.add_argument("--runs", type=int, default=9, help="timed samples per side")
    ap.add_argument("--rows", type=int, default=40_000, help="rows per corpus")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        libs = [_load(_c_src(rev), os.path.join(tmp, f"scan_{i}.so"))
                for i, rev in enumerate((args.rev_a, args.rev_b))]
    print(f"A = {args.rev_a or '(index)'}, B = {args.rev_b or '(index)'}: "
          f"best of {args.runs}, MB/s of scanned input")
    print(f"{'corpus':<8}{'MB':>7}{'8-byte':>8}{'A MB/s':>10}{'B MB/s':>10}{'B/A':>7}  codes")
    failed = []
    for name, values in corpora(args.rows).items():
        head = b"".join(v.encode() if isinstance(v, str) else v
                        for v in values[:TRAIN_VALUES])
        table = fsst.train(head[:fsst.TRAIN_SAMPLE_BYTES])
        packed = _kernel._packed(table)
        pages = _pages(values)
        mb = sum(p.size - _kernel.SLACK for p in pages) / 1e6
        outs = [np.empty(2 * p.size + 8, np.uint8) for p in pages]
        equal = _scan(libs[0], pages, packed, outs) == _scan(libs[1], pages, packed, outs)
        if not equal:
            failed.append(name)
        once = _time(libs[0], pages, packed, outs, 1)
        reps = max(1, int(MIN_SAMPLE_S / max(once, 1e-6)))
        best = [float("inf"), float("inf")]
        for _ in range(args.runs):
            for side, lib in enumerate(libs):
                best[side] = min(best[side], _time(lib, pages, packed, outs, reps))
        a, b = (mb / s for s in best)
        n8 = sum(len(s) == 8 for s in table.symbols)
        print(f"{name:<8}{mb:>7.1f}{n8:>8}{a:>10.0f}{b:>10.0f}{b / a:>7.2f}  "
              f"{'equal' if equal else 'DIFFER'}")
    if failed:
        raise SystemExit(f"codes differ on: {', '.join(failed)}")


if __name__ == "__main__":
    main()
