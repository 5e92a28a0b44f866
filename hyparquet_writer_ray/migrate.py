"""One-shot upgrade of a directory written by an older version:
``python -m hyparquet_writer_ray migrate <dir> [--input ...]``.

The writers read only today's layout (state/lineage.py): ``parts/<id>.json``
records, ``blobs/<id>`` (``core/rowgroup.dumps`` bytes), ``*.inprogress-*``
tmps and today's part names, and refuse a lineage namespace that still
holds a ``manifest.jsonl``. Every older format lives here instead, and is
converted once. For each ``_lineage*`` namespace directly under
``<dir>`` (``_lineage``, ``_lineage_compact``, a checkpoint dir's):

- Each distinct ``manifest.jsonl`` line of a part file becomes a
  record, keyed as the writers key it: ``parts/<file name minus "part-"
  and ".parquet">.json``, one list per file. A file that already has a
  ``parts/`` list keeps it. Lines that do not parse (a driver killed
  mid-append tore the last one) are skipped, and the ``checksum`` field
  older records carry is dropped. A line naming no file (a single-file
  checkpoint's) needs no record: a checkpoint is its blob.
- A ``parts/`` record that carries ``checksum`` is rewritten without it.
- A checkpoint ``blobs/<id>`` whose last bytes are not
  ``core/rowgroup``'s ``TRAILER`` (an older version's pickle, never
  unpickled, or a blob torn by a kill) is deleted; the next run
  re-encodes just those row groups. Only each blob's tail is read. A
  blob that carries the trailer is kept even if it does not load: the
  resume names it as corrupt.

Then, for the whole directory:

- With ``inputs`` (the inputs of a ``write_parquet_files`` run), their
  legacy-named parts go: ``part-<stem>.parquet``, from before part
  names carried a path hash, and a URI input's name hashed together
  with the working directory (run migrate from the directory those runs
  ran in). A name that a run over ``inputs`` writes today is spared.
- Aged tmps of older versions go (:data:`fsio.STALE_TMP_AGE_SEC`, as
  the writers' own sweeps): ``_lineage*/**/*.tmp-*``, which lineage
  records, blobs and the manifest were put through, and
  ``<dir>/*.inprogress``, the fixed tmp name of older single-file
  writers.
- Each manifest is deleted last, so a killed migrate can be rerun.
"""
from __future__ import annotations

import hashlib
import json
import os
import posixpath
from dataclasses import asdict

from .core.rowgroup import TRAILER
from .state import fsio
from .state.lineage import LineageLog, PartRecord


def _record(d: dict, where: str) -> PartRecord:
    try:
        return PartRecord(**{k: v for k, v in d.items() if k != "checksum"})
    except (AttributeError, TypeError) as e:
        raise ValueError(f"{where}: not a lineage record ({e})") from None


def _manifest_records(path: str) -> list[PartRecord] | None:
    """Each distinct record of the manifest at ``path``, in line order;
    None when there is no manifest."""
    try:
        text = fsio.read_marker(path)
    except FileNotFoundError:
        return None
    distinct: dict[str, PartRecord] = {}
    for line in text.splitlines():
        try:
            r = _record(json.loads(line), path)
        except ValueError:  # JSONDecodeError too: blank, or torn by a kill
            continue
        distinct.setdefault(json.dumps(asdict(r), sort_keys=True), r)
    return list(distinct.values())


def _key(rec: PartRecord) -> str:
    """The ``parts/`` key a writer gives ``rec``'s part file."""
    name = posixpath.basename(rec.file)
    return name.removeprefix("part-").removesuffix(".parquet")


def _migrate_lineage(log: LineageLog, summary: dict) -> bool:
    """Write ``log``'s manifest lines of part files as ``parts/``
    records and drop ``checksum`` from the records that carry it; True
    when ``log`` has a manifest."""
    lists = {}
    for name in fsio.listdir(log.parts_dir):
        if not name.endswith(".json"):
            continue
        path, key = fsio.join(log.parts_dir, name), name[:-len(".json")]
        try:
            lists[key] = json.loads(fsio.read_marker(path))
        except (json.JSONDecodeError, OSError):
            continue  # torn write of a non-atomic fs
        if any("checksum" in d for d in lists[key]):
            log.write_part_record(key, [_record(d, path) for d in lists[key]])
            summary["records_rewritten"] += 1
    manifest = _manifest_records(log.manifest_path)
    files = {d.get("file") for dicts in lists.values() for d in dicts} - {None}
    new: dict[str, list[PartRecord]] = {}
    for rec in manifest or ():
        if rec.file and rec.file not in files and _key(rec) not in lists:
            new.setdefault(_key(rec), []).append(rec)
    for key, recs in new.items():
        log.write_part_record(key, recs)
    summary["records_written"] += len(new)
    return manifest is not None


def _drop_old_blobs(log: LineageLog) -> list[str]:
    """``log``'s blobs (not tmps) that do not end in ``TRAILER``, removed."""
    dropped = []
    for name in fsio.listdir(log.blob_dir):
        path = fsio.join(log.blob_dir, name)
        # a name with a "." is a tmp, left to the aged-tmp sweeps
        if "." not in name and fsio.read_bytes(path, start=-len(TRAILER)) != TRAILER:
            fsio.rm_file(path)
            dropped.append(path)
    return dropped


def _legacy_parts(base: str, inputs: list[str]) -> list[str]:
    """The legacy part names of ``inputs`` in ``base``, removed."""
    from .pipelines.write import _file_parts

    legacy = set()
    for p in inputs:
        stem = os.path.splitext(os.path.basename(p))[0]
        legacy.add(f"part-{stem}.parquet")
        if fsio.is_uri(p):
            digest = hashlib.sha1(os.path.abspath(p).encode()).hexdigest()[:8]
            legacy.add(f"part-{stem}-{digest}.parquet")
    # one input's legacy name may equal another's current one
    legacy -= {f"part-{k}.parquet" for k, _, _ in _file_parts(inputs)}
    removed = sorted(legacy & fsio.listdir(base).keys())
    for name in removed:
        fsio.remove(fsio.join(base, name))
    return removed


def migrate(base: str, inputs: list[str] | None = None) -> dict:
    """Convert the older state under the directory ``base`` (see the
    module docstring) and return what was converted and removed; a
    second call finds nothing to do."""
    if not fsio.isdir(base):
        raise FileNotFoundError(f"{base}: no such directory")
    summary = {"dir": base, "records_written": 0, "records_rewritten": 0,
               "blobs_removed": [], "legacy_parts_removed": [],
               "tmps_removed": [], "manifests_removed": []}
    logs = [LineageLog(base, name=posixpath.basename(d.rstrip("/")))
            for d in fsio.glob_in(base, "_lineage*") if fsio.isdir(d)]
    manifests = [log.manifest_path for log in logs
                 if _migrate_lineage(log, summary)]
    summary["blobs_removed"] = [p for log in logs for p in _drop_old_blobs(log)]
    if inputs:
        summary["legacy_parts_removed"] = _legacy_parts(base, inputs)
    for pattern in ("/_lineage*/**/*.tmp-*", "/*.inprogress"):
        summary["tmps_removed"] += fsio._sweep_tmps(base, pattern,
                                                    fsio.STALE_TMP_AGE_SEC)
    for path in manifests:
        fsio.remove(path)
    summary["manifests_removed"] = manifests
    return summary
