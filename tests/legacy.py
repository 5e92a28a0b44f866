"""Lineage state as older versions left it, for the tests of
``python -m hyparquet_writer_ray migrate`` (hyparquet_writer_ray/migrate.py)."""
from __future__ import annotations

import glob
import json
import os
import shutil
from dataclasses import asdict

from hyparquet_writer_ray.core.rowgroup import loads
from hyparquet_writer_ray.state.lineage import record_from_meta


def to_legacy_manifest(base_dir: str, name: str = "_lineage") -> None:
    """Rewrite the lineage namespace ``name`` of ``base_dir`` as versions
    before worker-side records left it: every record one
    ``manifest.jsonl`` line, carrying the ``checksum`` field PartRecord
    had then, and no ``parts/``. A checkpoint blob gets the file-less
    record those versions wrote next to it."""
    lineage = os.path.join(base_dir, name)
    parts, blobs = os.path.join(lineage, "parts"), os.path.join(lineage, "blobs")
    recs = [r for path in sorted(glob.glob(os.path.join(parts, "*.json")))
            for r in json.load(open(path))]
    for b in sorted(os.listdir(blobs)) if os.path.isdir(blobs) else ():
        meta = loads(open(os.path.join(blobs, b), "rb").read())[1]
        recs.append(asdict(record_from_meta(b, meta)))
    with open(os.path.join(lineage, "manifest.jsonl"), "w") as f:
        for r in recs:
            f.write(json.dumps(dict(r, checksum="0123456789ab")) + "\n")
    shutil.rmtree(parts, ignore_errors=True)


def snapshot(base_dir) -> dict[str, tuple[int, int]]:
    """Every file under ``base_dir``: relative path -> (size, mtime_ns)."""
    out = {}
    for root, _, files in os.walk(base_dir):
        for f in files:
            st = os.stat(os.path.join(root, f))
            out[os.path.relpath(os.path.join(root, f), base_dir)] = \
                (st.st_size, st.st_mtime_ns)
    return out
