"""Per-partition lineage records + checkpoint/resume state
(north_rule: "per-partition lineage records plus codec/size metrics
checkpointed so a killed job resumes at partition granularity").

Everything lives under ``<base_dir>/_lineage/`` and goes through
state/fsio.py, so a local path and an fsspec URI (``s3://bucket/out``)
get the same semantics. Each finished unit of work is one atomic put
(fsio.write_marker) made the moment it is durable, and resume trusts
nothing else:

- ``parts/<part>.json``: a part file's records (one per row group: its
  codec and size metrics), written by the part-file writers.
- ``blobs/<part_id>``: a single-file checkpoint: one encoded row group
  as the relocatable bytes of ``core/rowgroup.dumps``, stored and
  returned as is. The blob is its own record: its Thrift ``RowGroup``
  carries every chunk's encodings, codec and sizes, and its name is
  the part id, so a resume is one listing of ``blobs/``.

A namespace that still holds the ``manifest.jsonl`` of older versions,
or a record this version cannot load, raises :class:`UnmigratedError`
on resume, naming ``python -m hyparquet_writer_ray migrate <dir>``
(hyparquet_writer_ray/migrate.py), which converts it once.
"""
from __future__ import annotations

import json
import posixpath
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional

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


class DoneFile(NamedTuple):
    """A finished output file: its size in bytes, from the listing that
    found it, and its records."""
    size: int
    records: list[PartRecord]


class UnmigratedError(RuntimeError):
    """Lineage state this version does not read: the base dir must go
    through ``python -m hyparquet_writer_ray migrate`` first, unless a
    ``remedy`` says otherwise (a corrupt blob, which ``migrate`` keeps)."""

    def __init__(self, base: str, what: str, remedy: str | None = None) -> None:
        super().__init__(f"{what}; " + (remedy or f"run `python -m hyparquet_writer_ray "
                                                  f"migrate {base}` once, then rerun"))


def record_from_meta(part_id: str, meta: RowGroupMeta,
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
        comp_bytes=meta.total_compressed_size,
        columns=cols,
        file=file,
    )


class LineageLog:
    """Per-part completion records + the single-file checkpoint store.

    Completion records are written by the WORKER that finished the part
    (atomic per-part json under ``_lineage/parts/``), so a hard-killed
    driver cannot lose records for parts already durable on disk —
    partition-granular resume survives SIGKILL at any point.
    """

    def __init__(self, base_dir: str, *, name: str = "_lineage") -> None:
        # ``name`` namespaces independent writers sharing one out_dir
        # (e.g. compaction keeps its own records so its stale-part GC
        # can never see — or delete — parts another writer recorded)
        self.base = base_dir
        self.dir = fsio.join(base_dir, name)
        self.blob_dir = fsio.join(self.dir, "blobs")
        self.parts_dir = fsio.join(self.dir, "parts")
        self.manifest_path = fsio.join(self.dir, "manifest.jsonl")
        fsio.makedirs(self.dir)

    # -- write side -----------------------------------------------------
    def write_part_record(self, part_key: str, recs: list[PartRecord]) -> None:
        """Atomically persist a finished part's records (call AFTER the
        part file itself is durable)."""
        fsio.makedirs(self.parts_dir)
        fsio.write_marker(fsio.join(self.parts_dir, f"{part_key}.json"),
                          json.dumps([asdict(r) for r in recs]))

    def write_checkpoint(self, part_id: str, group) -> None:
        """Single-file checkpoint of one encoded row group's bytes (any
        buffer, a ``pyarrow.Buffer`` of the stage's output, say): one
        atomic put of the blob, which is also its completion record."""
        fsio.makedirs(self.blob_dir)
        fsio.write_marker(fsio.join(self.blob_dir, part_id), group)

    def clear(self) -> None:
        """Forget all completion records (fresh-export semantics: the
        owning pipeline is about to rewrite the directory and stale
        records would wrongly mark new work as done): the whole
        namespace goes, an unmigrated one's state included."""
        fsio.rm_tree(self.dir)

    # -- resume side ----------------------------------------------------
    def _existing(self, names: set[str]) -> dict[str, int]:
        """The ``names`` (paths relative to the base dir) that exist,
        each mapped to its size, from one listing per distinct directory
        they name (:func:`fsio.listdir`): resuming thousands of parts on
        an object store costs a few LISTs, not one HEAD per part."""
        listed = {d: fsio.listdir(fsio.join(self.base, d))
                  for d in {posixpath.dirname(n) for n in names}}
        found = {n: listed[posixpath.dirname(n)].get(posixpath.basename(n))
                 for n in names}
        return {n: int(info["size"]) for n, info in found.items() if info}

    def _refuse_unmigrated(self) -> None:
        """The one probe every resume makes first: refuse a namespace
        that still holds a ``manifest.jsonl`` (one read attempt, which
        finds nothing in a migrated or new one)."""
        try:
            fsio.read_bytes(self.manifest_path)
        except FileNotFoundError:
            return
        raise UnmigratedError(self.base, f"{self.manifest_path} is lineage "
                              "state of an older version")

    def _records(self) -> list[PartRecord]:
        """Every record of the worker-written ``parts/`` files (one per
        row group of each finished part). A record that is JSON but not
        a :class:`PartRecord` raises :class:`UnmigratedError`."""
        self._refuse_unmigrated()
        out = []
        for name in fsio.listdir(self.parts_dir):
            if not name.endswith(".json"):
                continue
            path = fsio.join(self.parts_dir, name)
            try:
                out += [PartRecord(**d) for d in json.loads(
                    fsio.read_marker(path))]
            except (json.JSONDecodeError, OSError):
                continue  # torn write of a non-atomic fs: ignore
            except TypeError as e:
                raise UnmigratedError(
                    self.base, f"{path} is not a lineage record ({e})") from None
        return out

    def completed_parts(self) -> frozenset[str]:
        """Single-file mode: the part ids of the checkpointed row groups,
        from one listing of ``blobs/`` (the ``<id>.inprogress-*`` tmps
        of puts in flight excluded)."""
        self._refuse_unmigrated()
        return frozenset(n for n in fsio.listdir(self.blob_dir) if "." not in n)

    def completed_records(self) -> dict[str, DoneFile]:
        """Part-file mode: every recorded output file that exists,
        mapped to its size in the listing that found it and its records
        (one per row group; their ``raw_bytes`` sum to what the writer
        reported when it wrote the file)."""
        recs: dict[str, list[PartRecord]] = {}
        for rec in self._records():
            if rec.file:
                recs.setdefault(rec.file, []).append(rec)
        have = self._existing(set(recs))
        return {f: DoneFile(have[f], r) for f, r in recs.items() if f in have}

    def load_blob(self, part_id: str) -> bytes:
        """The bytes :meth:`write_checkpoint` stored for ``part_id``."""
        return fsio.read_bytes(fsio.join(self.blob_dir, part_id))
