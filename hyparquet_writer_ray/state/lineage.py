"""Per-partition lineage records + checkpoint/resume state
(north_rule: "per-partition lineage records plus codec/size metrics
checkpointed so a killed job resumes at partition granularity").

The manifest is JSONL under ``<dir>/_lineage/manifest.jsonl``; blobs
for single-file resume live in ``<dir>/_lineage/blobs/<part_id>``.

``base_dir`` may be an fsspec URI (``s3://bucket/out``): every record
goes through state/fsio.py. Local paths keep their exact os-level
semantics (tmp + atomic rename, O_APPEND manifest). On object stores
each per-part record is one atomic PUT — the authoritative resume
source — and the driver-side manifest.jsonl convenience consolidation
is PUT once at ``close()`` (stores cannot append; a driver killed
before close loses only the consolidation, never completion records).
"""
from __future__ import annotations

import json
import os
import pickle
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..core.rowgroup import RowGroupMeta
from ..core.types import Encoding
from . import fsio


@dataclass
class PartRecord:
    part_id: str
    num_rows: int
    raw_bytes: int  # uncompressed encoded size
    comp_bytes: int  # blob size
    columns: dict = field(default_factory=dict)  # name -> {encodings, codec}
    file: Optional[str] = None  # part-file mode: output file name


def _load_record(d: dict) -> PartRecord:
    # records written before the field was dropped carry a never-read
    # "checksum"; ignore it so they still resume
    d.pop("checksum", None)
    return PartRecord(**d)


def record_from_meta(part_id: str, meta: RowGroupMeta, blob_len: int,
                     file: Optional[str] = None) -> PartRecord:
    cols = {}
    for _, cm in meta.chunks:
        cols[".".join(cm.path)] = {
            "encodings": [Encoding(e).name for e in cm.encodings],
            "codec": cm.codec,
            "compressed": cm.total_compressed_size,
            "uncompressed": cm.total_uncompressed_size,
        }
    return PartRecord(
        part_id=part_id,
        num_rows=meta.num_rows,
        raw_bytes=meta.total_byte_size,
        comp_bytes=blob_len,
        columns=cols,
        file=file,
    )


class LineageLog:
    """Append-only manifest + optional blob checkpoint store.

    Completion records are written by the WORKER that finished the part
    (atomic per-part json under ``_lineage/parts/``), so a hard-killed
    driver cannot lose records for parts already durable on disk —
    partition-granular resume survives SIGKILL at any point. The
    driver-side ``manifest.jsonl`` is a convenience consolidation.
    """

    def __init__(self, base_dir: str, *, store_blobs: bool = False,
                 name: str = "_lineage") -> None:
        # ``name`` namespaces independent writers sharing one out_dir
        # (e.g. compaction keeps its own manifest so its stale-part GC
        # can never see — or delete — parts another writer recorded)
        self._uri = fsio.is_uri(base_dir)
        self.name = name
        self.dir = fsio.join(base_dir, name)
        self.blob_dir = fsio.join(self.dir, "blobs")
        self.parts_dir = fsio.join(self.dir, "parts")
        self.manifest_path = fsio.join(self.dir, "manifest.jsonl")
        fsio.makedirs(self.dir)
        if store_blobs:
            fsio.makedirs(self.blob_dir)
        self.store_blobs = store_blobs
        self._fh = None
        self._pending: list[str] | None = [] if self._uri else None

    # -- worker side ----------------------------------------------------
    def write_part_record(self, part_key: str, recs: list[PartRecord]) -> None:
        """Atomically persist a finished part's records (call AFTER the
        part file itself is durable)."""
        payload = json.dumps([asdict(r) for r in recs])
        dest = fsio.join(self.parts_dir, f"{part_key}.json")
        if self._uri:
            fs, p = fsio.url_fs(dest)
            fsio.makedirs(self.parts_dir)
            fs.pipe(p, payload.encode())  # one atomic PUT
            return
        os.makedirs(self.parts_dir, exist_ok=True)
        # unique per call: two tasks finishing the same content-addressed
        # part must not share a tmp inode (the loser's replace would fail)
        tmp = fsio.tmp_name(os.path.join(self.parts_dir, f".{part_key}"))
        with open(tmp, "w") as f:
            f.write(payload)
        os.replace(tmp, dest)

    # -- write side -----------------------------------------------------
    def append(self, rec: PartRecord, blob: bytes | None = None,
               meta: RowGroupMeta | None = None) -> None:
        if self.store_blobs and blob is not None:
            payload = pickle.dumps((blob, meta))
            dest = fsio.join(self.blob_dir, rec.part_id)
            if self._uri:
                fs, p = fsio.url_fs(dest)
                fs.pipe(p, payload)
            else:
                tmp = os.path.join(self.blob_dir, f".{rec.part_id}.tmp")
                with open(tmp, "wb") as f:
                    f.write(payload)
                os.replace(tmp, dest)
        if self._uri and self.store_blobs:
            # single-file checkpointing has no worker-side
            # write_part_record, so the completion record must be
            # durable WITH the blob — buffering it until close() would
            # lose every record on a driver kill and make the
            # checkpoint a no-op in the one scenario it exists for
            self.write_part_record(rec.part_id, [rec])
        line = json.dumps(asdict(rec)) + "\n"
        if self._pending is not None:  # URI: consolidate at close()
            self._pending.append(line)
            return
        if self._fh is None:
            self._fh = open(self.manifest_path, "a")
        self._fh.write(line)
        self._fh.flush()

    def close(self) -> None:
        if self._pending:
            fs, p = fsio.url_fs(self.manifest_path)
            prior = fs.cat(p).decode() if fs.exists(p) else ""
            body = (prior + "".join(self._pending)).encode()
            if fsio.fs_rename_based(fs):
                # filesystem-backed protocol: a kill during a plain
                # rewrite would truncate previously durable records
                tmp = fsio.tmp_name(p)
                try:
                    with fs.open(tmp, "wb") as f:
                        f.write(body)
                    fs.mv(tmp, p)
                finally:
                    if fs.exists(tmp):
                        fs.rm(tmp)
            else:
                fs.pipe(p, body)  # object store: atomic PUT
            self._pending = []
        if self._fh:
            self._fh.close()
            self._fh = None

    def clear(self) -> None:
        """Forget all completion records (fresh-export semantics: the
        owning pipeline is about to rewrite the directory and stale
        records would wrongly mark new work as done)."""
        self.close()
        fsio.rm_tree(self.parts_dir)
        fsio.rm_tree(self.blob_dir)
        if self.store_blobs:
            fsio.makedirs(self.blob_dir)  # next append needs it
        if self._uri:
            fs, p = fsio.url_fs(self.manifest_path)
            try:
                fs.rm(p)
            except FileNotFoundError:
                pass
            self._pending = []
        elif os.path.exists(self.manifest_path):
            os.unlink(self.manifest_path)

    # -- resume side ----------------------------------------------------
    def _file_exists(self, file: str) -> bool:
        base = self.dir.rsplit("/", 1)[0] if self._uri \
            else os.path.dirname(self.dir)
        return fsio.exists(fsio.join(base, file))

    def _validate(self, rec: PartRecord) -> bool:
        if self.store_blobs:
            return fsio.exists(fsio.join(self.blob_dir, rec.part_id))
        if rec.file is not None:
            return self._file_exists(rec.file)
        return True

    def _manifest_records(self) -> list[PartRecord]:
        if not fsio.exists(self.manifest_path):
            return []
        out = []
        for line in fsio.read_marker(self.manifest_path).splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                out.append(_load_record(json.loads(line)))
            except (json.JSONDecodeError, TypeError):
                continue  # torn trailing line from a killed driver
        return out

    def _part_record_lists(self) -> list[list[PartRecord]]:
        """The records of each finished part (one per row group), from
        the worker-written ``parts/`` files."""
        out = []
        for fpath in fsio.glob_in(self.parts_dir, "*.json"):
            try:
                out.append([_load_record(d)
                            for d in json.loads(fsio.read_marker(fpath))])
            except (json.JSONDecodeError, OSError):
                continue  # torn write of a non-atomic fs: ignore
        return out

    def completed_parts(self) -> dict[str, PartRecord]:
        out: dict[str, PartRecord] = {}
        recs = self._manifest_records()
        recs += [r for part in self._part_record_lists() for r in part]
        for rec in recs:
            if self._validate(rec):
                out[rec.part_id] = rec
        return out

    def completed_files(self) -> dict[str, int]:
        """Part-file mode: every recorded output file that exists, mapped
        to its uncompressed bytes (the sum of its records' ``raw_bytes``,
        what the writer reported when it wrote the file). A part's
        ``parts/`` list is authoritative; the manifest only adds files
        that have none, counting each distinct record once (the manifest
        is appended to on every run)."""
        raw: dict[str, int] = {}
        for part in self._part_record_lists():
            for rec in part:
                if rec.file:
                    raw[rec.file] = raw.get(rec.file, 0) + rec.raw_bytes
        distinct = {json.dumps(asdict(r), sort_keys=True): r
                    for r in self._manifest_records()}
        legacy: dict[str, int] = {}
        for rec in distinct.values():
            if rec.file and rec.file not in raw:
                legacy[rec.file] = legacy.get(rec.file, 0) + rec.raw_bytes
        raw.update(legacy)
        return {f: n for f, n in raw.items() if self._file_exists(f)}

    def load_blob(self, part_id: str):
        path = fsio.join(self.blob_dir, part_id)
        if self._uri:
            fs, p = fsio.url_fs(path)
            return pickle.loads(fs.cat(p))
        with open(path, "rb") as f:
            return pickle.loads(f.read())
