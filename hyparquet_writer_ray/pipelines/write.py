"""Distributed parquet write pipelines (Ray-Data-first; SURVEY.md §7).

Two output shapes:

- ``write_parquet_single_file``: reference-parity single file. Encode
  runs in plain Ray tasks; a single driver-side assembler streams
  ordered row-group blobs into one file (the only serialization point,
  like the reference's ``writer.offset`` — SURVEY.md §3.4). Scales to
  one file's practical limit; ordering via streaming
  ``preserve_order``.

- ``write_parquet_dataset``: the 100 TB shape. Every task assembles its
  own complete parquet part-file (no driver byte bottleneck, no
  all-to-all shuffle anywhere), with per-partition lineage records and
  checkpoint resume: a killed job skips parts already on disk.

Every part-file writer (dataset, hive-partitioned, file-to-file,
compaction) writes each part and its lineage record through the one
kernel :func:`_write_part` and totals the parts' summary rows with
:func:`_add_row`. A part of an opaque Dataset is named by a hash of its
content, which only its task computes, so those writers map over the
Dataset with :func:`_map_batches`. A part made from input files is
named by them and resumed on their identity (``fsio.identity``): the
driver settles a finished one from the out_dir listing and its records
and runs each pending one as a plain Ray task. Those tasks and the slice
encodes of :func:`write_table_parallel` run through the one runner
:func:`_run_tasks`, which has the one cancel-and-drain failure path.

Resume reads only today's lineage (``parts/<id>.json`` records, and
a checkpoint dir's ``blobs/<id>``) and today's part names. An out_dir
written by an older version is refused until ``python -m
hyparquet_writer_ray migrate`` (``migrate.py``) has converted it once.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import re
import warnings
import weakref
from contextlib import contextmanager
from functools import cache, partial
from itertools import islice
from typing import Optional

import pyarrow as pa
import pyarrow.parquet as pq

from ..core.assemble import FileAssembler
from ..core.options import WriteOptions
from ..core.rowgroup import TRAILER, encode_row_group, loads
from ..core.schema import _normalize_type, normalize_table, schema_from_arrow
from ..core.types import leaf_columns
from ..stages.encode import (
    DEFAULT_GROUP_BYTES,
    DEFAULT_GROUP_ROWS,
    content_part_id,
    encode_row_groups,
    split_row_groups,
)
from ..state import fsio
from ..state.lineage import LineageLog, UnmigratedError, record_from_meta

log = logging.getLogger("hyparquet_writer_ray")


def _normalized_arrow_schema(ds) -> pa.Schema:
    schema = ds.schema().base_schema
    fields = []
    for f in schema:
        nt = _normalize_type(f.type)
        fields.append(pa.field(f.name, nt or f.type, f.nullable))
    return pa.schema(fields)


# read_parquet_fused's Datasets, each mapped to the plain read it is:
# (input paths, columns). Keyed weakly by the Dataset object: a
# transform returns a new object, which is not in here, and a Dataset
# that is gone takes its entry with it.
_FUSED_READS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def read_parquet_fused(path_or_paths, *, columns: Optional[list[str]] = None, **kw):
    """A parquet read whose read FUSES with the next ``map_batches``:
    one read task per input file and no ``SplitBlocks`` operator (which
    breaks ReadParquet->MapBatches fusion). Feeding this into
    ``write_parquet_dataset`` runs read -> decode -> encode -> part file
    inside a single task, so input bytes never transit the object store
    (measured 3.8x end-to-end vs the unfused plan at 32 cpus,
    BASELINE.md).

    ``path_or_paths``: a directory (its ``*.parquet`` files), one file,
    or an explicit list; a local path or an fsspec URI. ``columns``
    prunes at the read.

    A plain read of files is :class:`.read.FileRead`, built on the
    driver without ``ray.data.read_parquet``'s footer prefetch and
    sampling tasks. It reproduces Ray 2.49's read of the same files
    block for block (the read batch size Ray samples, the same
    ``pyarrow.dataset`` scan per file, the ``ReadParquet`` operator),
    because content-named parts and single-file checkpoints hash those
    blocks: another layout would rename every part of an existing
    out_dir. ``kw``, a path with a ``key=value`` directory (Ray adds a
    hive column for it) or a directory in a list still go through
    ``ray.data.read_parquet`` (:func:`fsio.read_parquet_dataset`).

    The returned Dataset remembers that it is a plain read of these
    files, so ``write_parquet_dataset`` can write one part per input
    file and resume without reading finished inputs; it then never
    executes the read: each part's task reads its file itself
    (:func:`_write_input_parts`). It does not when ``kw`` is given or a
    path has a ``key=value`` directory, nor does any Dataset derived
    from it."""
    import ray.data

    from .read import FileRead

    if isinstance(path_or_paths, (str, os.PathLike)):
        path_or_paths = os.fspath(path_or_paths)
        if fsio.isdir(path_or_paths):
            paths = fsio.glob_in(path_or_paths, "*.parquet")
        else:
            paths = [path_or_paths]
    else:
        paths = [os.fspath(p) for p in path_or_paths]
    if not paths:
        raise ValueError(
            f"read_parquet_fused: no parquet files found in {path_or_paths!r}"
        )
    if kw or any("=" in d for p in paths for d in p.split("/")[:-1]):
        return fsio.read_parquet_dataset(
            paths, columns=columns, override_num_blocks=len(paths), **kw)
    try:
        ds = ray.data.read_datasource(FileRead(paths, columns),
                                      override_num_blocks=len(paths))
    except IsADirectoryError:
        ds = fsio.read_parquet_dataset(paths, columns=columns,
                                       override_num_blocks=len(paths))
    _FUSED_READS[ds] = (paths, columns)
    return ds


def _task_concurrency(concurrency):
    """Map an actor-style (min, max) concurrency spec to the int ceiling
    on tasks in flight that task-mode ``map_batches`` accepts (a tuple
    would otherwise be silently dropped) and :func:`_write_input_parts`
    keeps."""
    if isinstance(concurrency, tuple):
        return concurrency[1]
    return concurrency


def _map_batches(ds, fn, *, batch_size=None, concurrency=None):
    """The one way an encode maps over a Dataset: plain Ray tasks on
    zero-copy pyarrow batches. Stateless encode reuses warm workers —
    no actor-pool spin-up, better autoscaling (SURVEY.md §7.3)."""
    return ds.map_batches(
        fn, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True, concurrency=_task_concurrency(concurrency),
    )


@cache
def _remote(fn):
    """``fn`` as a Ray remote function, built once per process (a fresh
    ``ray.remote`` re-exports the function), with the retry options Ray
    Data gives its own tasks. Every task body here is deterministic, so
    a retried task writes the same bytes."""
    import ray

    return ray.remote(max_retries=-1,
                      retry_exceptions=[ray.exceptions.RaySystemError])(fn)


def _run_tasks(submit, calls, consume, limit: int, *, ordered: bool = False) -> None:
    """The one plain-Ray-task runner: ``submit(*args)`` for each
    ``args`` of ``calls``, at most ``limit`` submitted and not yet
    consumed, and ``consume(result)`` on the driver for each task: in
    submission order when ``ordered``, else as the tasks complete.

    If a task fails or ``consume`` raises, every task in flight is
    cancelled and waited for, and the error is re-raised."""
    import ray

    todo = iter(calls)
    running = [submit(*args) for args in islice(todo, limit)]
    ready = []
    try:
        while running:
            if ordered:  # wait for the oldest only: results keep their order
                ready, running = ray.wait(running[:1])[0], running[1:]
            else:
                # take every finished task at once: a wait costs O(tasks
                # in flight), so one wait per task is quadratic in a
                # job of many tasks
                ready, running = ray.wait(running, num_returns=len(running),
                                          timeout=0)
                if not ready:
                    ready, running = ray.wait(running, num_returns=1)
            while ready:
                consume(ray.get(ready.pop()))
            running += [submit(*args)
                        for args in islice(todo, limit - len(running))]
    except BaseException:
        # kill, not interrupt: an interrupt landing in an import
        # half-initialises the worker's modules. Wait for each, and
        # take its error so that Ray logs none as unhandled.
        for ref in running:
            ray.cancel(ref, force=True)
        for ref in ready + running:
            try:
                ray.get(ref)
            except Exception:
                pass
        raise


# compaction keeps its own lineage namespace: its stale-part GC must
# only ever see parts compaction itself recorded (write_parquet_dataset
# parts in the same out_dir share the default "_lineage")
COMPACT_LINEAGE = "_lineage_compact"


def _open_out_dir(out_dir: str, lineage_name: str = "_lineage") -> dict:
    """Driver prologue of the part-file writers: create ``out_dir``,
    sweep the tmps killed runs left there (lineage tmps included), and
    return its finished files (file name -> size and records,
    :meth:`LineageLog.completed_records`)."""
    fsio.makedirs(out_dir)
    fsio.clean_stale_tmps(out_dir)
    return LineageLog(out_dir, name=lineage_name).completed_records()


def _manifest_row(part_id: str, fname: str, rows: int, file_bytes: int,
                  raw: int = 0, skipped: bool = False) -> pa.Table:
    """The one summary row a part task returns to the driver."""
    return pa.table({
        "part_id": [part_id], "file": [fname],
        "rows": pa.array([rows], type=pa.int64()),
        "compressed_bytes": pa.array([file_bytes], type=pa.int64()),
        "uncompressed_bytes": pa.array([raw], type=pa.int64()),
        "skipped": [skipped],
    })


def _write_part(out_dir: str, fname: str, part_id: str, load, opts: WriteOptions,
                *, skip: frozenset = frozenset(),
                lineage_name: str = "_lineage") -> pa.Table:
    """The one part-file kernel: writes ``out_dir/fname`` and returns
    its summary row.

    ``skip`` serves the content-named writers (:class:`PartFileWriter`),
    whose part name is a hash only this task computes: a part whose
    file is in ``skip`` (finished by an earlier run) and still on disk
    is not rewritten, and the driver takes its totals from its lineage
    records. The file-granular writers settle finished parts on the
    driver and never pass it. Otherwise ``load()`` returns
    ``(schema_ir, groups)``, ``groups`` being ``(record id, row-group
    table)`` pairs. The groups are encoded and assembled into an atomic
    sink, then the worker writes the part's lineage record: durable the
    moment the part is, so it survives a driver SIGKILL (see
    state/lineage.py)."""
    fpath = fsio.join(out_dir, fname)
    if fname in skip:
        # a lineage record without its file on disk is NOT done
        size = fsio.size(fpath)
        if size is not None:
            log.debug("part %s finished by an earlier run: skipped", fname)
            return _manifest_row(part_id, fname, 0, size, skipped=True)
    schema_ir, groups = load()
    leaves = leaf_columns(schema_ir)
    rows = raw = 0
    recs = []
    with fsio.atomic_sink(fpath) as sink:
        asm = FileAssembler(sink, schema_ir, opts)
        for rec_id, group in groups:
            parts, meta = encode_row_group(group, schema_ir, leaves, opts)
            asm.append_group(parts, meta)
            rows += group.num_rows
            raw += meta.total_byte_size
            recs.append(record_from_meta(rec_id, meta, file=fname))
        asm.finish()
    LineageLog(out_dir, name=lineage_name).write_part_record(part_id, recs)
    return _manifest_row(part_id, fname, rows, asm.offset, raw)


def _new_totals() -> dict:
    return dict.fromkeys(("parts", "rows", "compressed_bytes",
                          "uncompressed_bytes", "skipped_parts"), 0)


def _count_skipped(total: dict, file_bytes: int, recs) -> None:
    """Add a part finished by an earlier run to ``total``: its file
    bytes, and its rows and uncompressed bytes from its lineage
    records."""
    total["parts"] += 1
    total["skipped_parts"] += 1
    total["compressed_bytes"] += file_bytes
    total["rows"] += sum(r.num_rows for r in recs)
    total["uncompressed_bytes"] += sum(r.raw_bytes for r in recs)


def _add_row(total: dict, row: dict, done: dict) -> None:
    """Add one part's summary row (:func:`_manifest_row`) to ``total``;
    a skipped (resumed) part's rows and uncompressed bytes come from its
    lineage records (``done``, :meth:`LineageLog.completed_records`)."""
    if row["skipped"]:
        _count_skipped(total, row["compressed_bytes"], done[row["file"]].records)
        return
    total["parts"] += 1
    total["compressed_bytes"] += row["compressed_bytes"]
    total["rows"] += row["rows"]
    total["uncompressed_bytes"] += row["uncompressed_bytes"]


def _drain_manifests(manifest_ds, done: dict) -> dict:
    """Driver loop of the content-named part writers: run the part tasks
    of ``manifest_ds`` and total their summary rows (:func:`_add_row`),
    each part file once: blocks of equal content (an input read twice)
    name, and write, one part."""
    total = _new_totals()
    seen = set()
    for batch in manifest_ds.iter_batches(batch_size=None,
                                          batch_format="pyarrow"):
        for row in batch.to_pylist():
            if row["file"] not in seen:
                seen.add(row["file"])
                _add_row(total, row, done)
    return total


@contextmanager
def _preserve_order(dataset):
    """Force ordered streaming execution for ``dataset``. Ray COPIES
    the ambient DataContext into each dataset at creation
    (read_api.py: ``DataContext.get_current().copy()``), so flipping
    only the global context does nothing for a dataset the caller built
    earlier — order preservation would then be arrival-order luck. The
    flag must be set on the dataset's own captured context; the global
    one is included for operators created inside the block."""
    import ray.data

    ctxs = (ray.data.DataContext.get_current(), dataset.context)
    prev = [c.execution_options.preserve_order for c in ctxs]
    for c in ctxs:
        c.execution_options.preserve_order = True
    try:
        yield
    finally:
        for c, p in zip(ctxs, prev):
            c.execution_options.preserve_order = p


def _unloadable(lineage: LineageLog, part_id: str, blob, err: ValueError) -> UnmigratedError:
    """The resume's error for a checkpoint blob that ``loads`` rejects.
    Without the trailer it is an older version's, which ``migrate``
    drops; with it, it is corrupt, and ``migrate`` keeps it."""
    if bytes(blob[-len(TRAILER):]) != TRAILER:
        return UnmigratedError(lineage.base, f"checkpoint blob {part_id} is not a "
                               f"row group ({err})")
    return UnmigratedError(lineage.base, f"checkpoint blob "
                           f"{fsio.join(lineage.blob_dir, part_id)} is corrupt ({err})",
                           remedy="delete it, then rerun: the rerun re-encodes its row group")


def write_parquet_single_file(
    ds,
    path: str,
    opts: Optional[WriteOptions] = None,
    *,
    concurrency=None,
    max_group_rows: int = DEFAULT_GROUP_ROWS,
    max_group_bytes: int = DEFAULT_GROUP_BYTES,
    checkpoint_dir: Optional[str] = None,
) -> dict:
    """Encode ``ds`` into one parquet file at ``path``.

    Returns summary stats. With ``checkpoint_dir``, each encoded row
    group is checkpointed as one blob, and a rerun reuses the blobs.
    """
    opts = opts or WriteOptions()
    schema_ir = schema_from_arrow(_normalized_arrow_schema(ds),
                                  opts.schema_overrides)

    lineage = None
    skip: Optional[frozenset[str]] = None  # None: no group is hashed
    if checkpoint_dir:
        fsio.clean_stale_tmps(checkpoint_dir)
        lineage = LineageLog(checkpoint_dir)
        skip = lineage.completed_parts()

    encoded = _map_batches(ds, partial(
        encode_row_groups, schema_ir=schema_ir, opts=opts,
        max_group_rows=max_group_rows, max_group_bytes=max_group_bytes,
        skip_part_ids=skip,
    ), concurrency=concurrency)

    total_comp = 0
    total_raw = 0
    n_parts = 0
    with _preserve_order(encoded):
        with fsio.open_output(path) as sink:
            asm = FileAssembler(sink, schema_ir, opts)
            for batch in encoded.iter_batches(batch_size=None, batch_format="pyarrow"):
                for row in range(batch.num_rows):
                    part_id = batch.column("part_id")[row].as_py()
                    group = batch.column("group")[row].as_buffer()
                    blob = group or lineage.load_blob(part_id)  # null: checkpointed
                    try:
                        parts, meta = loads(blob)
                    except ValueError as e:
                        if group is not None:
                            raise
                        raise _unloadable(lineage, part_id, blob, e) from None
                    if group is not None and lineage is not None:
                        lineage.write_checkpoint(part_id, group)
                    asm.append_group(parts, meta)
                    total_comp += meta.total_compressed_size
                    total_raw += meta.total_byte_size
                    n_parts += 1
            asm.finish()
    return {
        "path": path,
        "row_groups": n_parts,
        "rows": asm.num_rows,
        "compressed_bytes": total_comp,
        "uncompressed_bytes": total_raw,
        "file_bytes": fsio.size(path),
    }


# write_table_parallel keeps at most this many slice tasks submitted and
# not yet appended: at most that many encoded blobs queue ahead of the
# assembler, so a huge table cannot fill the object store with them
_QUEUED_SLICES = 64


def _encode_table_slice(table: pa.Table, r0: int, r1: int,
                        schema_ir, opts: WriteOptions):
    """One row-group slice of a driver-held table, encoded in a Ray
    task. encode_row_group is deterministic and its blob carries
    relative offsets (core/chunk.py), so the ordered assembler can
    rebase — output is byte-identical to the serial writer. The chunk
    blobs are joined into one part here, once, to leave the task."""
    parts, meta = encode_row_group(table.slice(r0, r1 - r0), schema_ir,
                                   leaf_columns(schema_ir), opts)
    return [b"".join(parts)], meta


def write_table_parallel(table: pa.Table, sink,
                         opts: Optional[WriteOptions] = None) -> None:
    """Parallel, byte-identical version of :func:`local.write_table`
    (the reference parquetWrite parity path, src/write.js:16-60).

    The SAME row-group schedule is computed up front
    (``row_group_slices``); each slice is encoded by an independent Ray
    task over ONE ``ray.put`` of the normalized table (workers read it
    zero-copy from the object store — never re-shipped per slice); a
    single ordered assembler appends blobs in schedule order. Because
    ``encode_row_group`` is deterministic and blobs carry relative
    offsets, the output bytes equal the serial writer's exactly
    (gated by tests/test_ray_pipeline.py).

    Raw Ray tasks are deliberate here: the input is a driver-held
    in-memory Table with REQUIRED slice boundaries (the reference's
    preview schedule), not a Dataset of opaque blocks. They run through
    :func:`_run_tasks` in order, at most ``_QUEUED_SLICES`` ahead of
    the assembler. A failed slice or a failed sink write cancels every
    slice task in flight and raises its error; a path ``sink`` is then
    left without a file.

    Falls back to the serial writer, with a DEBUG record naming the
    reason, when Ray is not initialized (this function never calls
    ray.init — driver contract) or when the schedule yields fewer than
    two slices."""
    import ray

    from ..local import group_sizes, row_group_slices, write_table

    opts = opts or WriteOptions()
    table = normalize_table(table)
    slices = row_group_slices(table.num_rows, group_sizes(opts.row_group_size))
    serial = ("Ray is not initialized" if not ray.is_initialized() else
              "the schedule has fewer than two slices" if len(slices) < 2
              else None)
    if serial:
        log.debug("write_table_parallel writes serially: %s", serial)
        write_table(table, sink, opts)
        return
    schema_ir = schema_from_arrow(table.schema, opts.schema_overrides)
    submit = partial(_remote(_encode_table_slice).remote, ray.put(table),
                     schema_ir=schema_ir, opts=opts)
    with fsio.open_output(sink) as f:
        asm = FileAssembler(f, schema_ir, opts)
        _run_tasks(submit, slices, lambda enc: asm.append_group(*enc),
                   _QUEUED_SLICES, ordered=True)
        asm.finish()


class PartFileWriter:
    """``write_parquet_dataset``'s per-batch stage for a Dataset that is
    not a plain fused read: each input batch becomes one complete
    parquet part-file under ``out_dir``, named by its content, plus its
    lineage record. Fully parallel — no driver byte path. Mapped as an
    instance, so the schema resolves once on the driver."""

    def __init__(
        self,
        opts: WriteOptions,
        arrow_schema: pa.Schema,
        out_dir: str,
        max_group_rows: int = DEFAULT_GROUP_ROWS,
        max_group_bytes: int = DEFAULT_GROUP_BYTES,
        skip_files: frozenset[str] = frozenset(),
        sort_by=None,
    ) -> None:
        self.schema_ir = schema_from_arrow(arrow_schema, opts.schema_overrides)
        self.out_dir = out_dir
        self.max_group_rows = max_group_rows
        self.max_group_bytes = max_group_bytes
        self.skip = skip_files
        self.sort_by = [sort_by] if isinstance(sort_by, str) else (
            list(sort_by) if sort_by else None)
        if self.sort_by and opts.sorting_columns is None:
            # advertise the block-local sort in every part's footer
            # (RowGroup.sorting_columns): ascending, nulls last —
            # pa.Table.sort_by's defaults below
            opts = dataclasses.replace(
                opts, sorting_columns=[(c, False, False) for c in self.sort_by])
        self.opts = opts

    def __call__(self, batch: pa.Table):
        batch = normalize_table(batch)
        if batch.num_rows == 0:
            return
        if self.sort_by:
            # BLOCK-LOCAL sort-before-encode: no shuffle, each worker
            # sorts only its own part. Clustering equal/near values
            # feeds the dict/RLE/delta/FSST codecs longer runs and
            # smaller deltas; row order is not load-bearing for keyed
            # part output (the lineage records, not position,
            # identify parts). Measured on shuffled events @ sf0.1:
            # 14.9% smaller compressed output, recovering ~63% of the
            # full global-sort benefit with zero shuffle (BASELINE.md).
            batch = batch.sort_by([(c, "ascending") for c in self.sort_by])
        yield self._write(batch)

    def _write(self, table: pa.Table, subdir: str = "") -> pa.Table:
        """One part named by its content: ONE content-hash pass gives
        per-group digests (each group's record id) and the part id is
        derived from them (hashing the whole table AND each group would
        read every byte twice)."""
        groups = list(split_row_groups(table, self.max_group_rows,
                                       self.max_group_bytes))
        gids = [content_part_id(g) for g in groups]
        key = f"{subdir}|" if subdir else ""
        part_id = hashlib.blake2b((key + "".join(gids)).encode(),
                                  digest_size=12).hexdigest()[:16]
        fname = f"part-{part_id}.parquet"
        return _write_part(
            self.out_dir, f"{subdir}/{fname}" if subdir else fname, part_id,
            lambda: (self.schema_ir, zip(gids, groups)), self.opts,
            skip=self.skip)


def _hive_value(v) -> str:
    """Hive directory token for a partition value (URL-quoted, the
    encoding pyarrow's hive partitioning decodes; nulls use the Hive
    default-partition sentinel)."""
    from urllib.parse import quote

    if v is None:
        return "__HIVE_DEFAULT_PARTITION__"
    return quote(str(v), safe="")


class PartitionedPartWriter(PartFileWriter):
    """map_batches stage: splits each batch by a partition column and
    writes one complete parquet part per (batch, partition value) under
    hive-style ``<col>=<value>/`` directories — the "one directory per
    key range" resumable-output shape. The partition column is dropped
    from the file (hive standard; readers re-materialize it from the
    path). One vectorized dictionary-encode per batch; the Python loop
    runs once per DISTINCT VALUE IN THE BATCH, not per row."""

    def __init__(self, opts: WriteOptions, arrow_schema: pa.Schema,
                 out_dir: str, partition_col: str,
                 max_group_rows: int = DEFAULT_GROUP_ROWS,
                 max_group_bytes: int = DEFAULT_GROUP_BYTES,
                 skip_files: frozenset[str] = frozenset()) -> None:
        data_schema = pa.schema(
            [f for f in arrow_schema if f.name != partition_col])
        super().__init__(opts, data_schema, out_dir, max_group_rows,
                         max_group_bytes, skip_files)
        self.partition_col = partition_col

    def __call__(self, batch: pa.Table):
        import pyarrow.compute as pc

        batch = normalize_table(batch)
        if batch.num_rows == 0:
            return
        col = batch.column(self.partition_col)
        if col.num_chunks != 1:
            col = col.combine_chunks()
        else:
            col = col.chunk(0)
        denc = pc.dictionary_encode(col)
        codes = pc.fill_null(denc.indices.cast(pa.int64()), -1)
        values = list(enumerate(denc.dictionary.to_pylist()))
        if pc.any(pc.equal(codes, -1)).as_py():
            values.append((-1, None))
        for code, val in values:
            mask = pc.equal(codes, code)
            sub = batch.filter(mask).drop_columns([self.partition_col])
            if sub.num_rows == 0:
                continue
            subdir = f"{self.partition_col}={_hive_value(val)}"
            fsio.makedirs(fsio.join(self.out_dir, subdir))
            yield self._write(sub, subdir)


def write_parquet_partitioned(
    ds,
    out_dir: str,
    partition_col: str,
    opts: Optional[WriteOptions] = None,
    *,
    concurrency=None,
    max_group_rows: int = DEFAULT_GROUP_ROWS,
    max_group_bytes: int = DEFAULT_GROUP_BYTES,
    resume: bool = True,
    part_rows: Optional[int] = None,
) -> dict:
    """Hive-partitioned parquet output (``<col>=<value>/part-*.parquet``)
    with the same per-part lineage records + content-hash resume as
    ``write_parquet_dataset`` — keyed directories let a consumer (or a
    resumed run) address one key range without listing the others.

    NO shuffle: each task writes the partition values IT sees (several
    tasks may write to the same ``lang=en/`` directory — parts are
    content-addressed so they never collide). If one file per partition
    value is required, repartition/sort by the column first; for a
    bounded value set this streaming shape is the 100 TB default.
    ``ray.data.read_parquet(out_dir)`` re-materializes the column from
    the hive paths; null values land under
    ``__HIVE_DEFAULT_PARTITION__/`` and read back as that sentinel
    string unless the reader configures a hive null fallback."""
    opts = opts or WriteOptions()
    arrow_schema = _normalized_arrow_schema(ds)
    if partition_col not in arrow_schema.names:
        raise ValueError(f"partition_col {partition_col!r} not in schema")
    done = _open_out_dir(out_dir)
    writer = PartitionedPartWriter(opts, arrow_schema, out_dir, partition_col,
                                   max_group_rows, max_group_bytes,
                                   frozenset(done if resume else ()))
    total = _drain_manifests(_map_batches(
        ds, writer, batch_size=part_rows, concurrency=concurrency), done)
    total["out_dir"] = out_dir
    return total


# pq.read_table scans each row group in batches of this many rows. A
# read in the same batches yields the same chunks, hence the same
# table.nbytes, which split_row_groups' step is computed from.
_SCAN_BATCH_ROWS = 131072


def _scan_blocks(paths, columns, block_bytes):
    """The normalized schema of ``paths`` (from the first file), then
    their rows as tables of at most about ``block_bytes`` decoded bytes
    each (plus one read batch), streamed one row-group batch at a time;
    ``None`` means one table. A batch is sized from the footer so that
    it stays near ``block_bytes`` too.

    This keeps ``ParquetFile.iter_batches`` per row group rather than
    :func:`.read._read_file`'s dataset scan: the two give equal values,
    but below 131,072 rows a dataset-scan batch can carry a few more
    bytes of ``nbytes``, and both ``split_row_groups`` and the block
    cut read ``nbytes``, so part bytes would change."""
    buf, buf_bytes = [], 0
    for i, path in enumerate(paths):
        fs, p = fsio.arrow_fs(path)
        with pq.ParquetFile(p, filesystem=fs) as pf:
            if i == 0:
                empty = pf.schema_arrow.empty_table()
                yield normalize_table(
                    empty.select(columns) if columns else empty).schema
            md = pf.metadata
            raw = sum(md.row_group(g).total_byte_size
                      for g in range(md.num_row_groups))
            rows = _SCAN_BATCH_ROWS
            if block_bytes and raw:
                rows = min(rows, max(1, block_bytes * md.num_rows // raw))
            for g in range(md.num_row_groups):
                for b in pf.iter_batches(batch_size=rows, row_groups=[g],
                                         columns=columns):
                    t = normalize_table(pa.Table.from_batches([b]))
                    buf.append(t)
                    buf_bytes += t.nbytes
                    if block_bytes and buf_bytes > block_bytes:
                        yield pa.concat_tables(buf)
                        buf, buf_bytes = [], 0
    if buf:
        yield pa.concat_tables(buf)


def _read_groups(paths, rec_id, opts, columns, max_group_rows, max_group_bytes,
                 block_bytes=None):
    """``load`` for :func:`_write_part`: stream one part's input files
    as row groups, every one recorded under ``rec_id``.

    At most about ``block_bytes`` of decoded rows are held at a time
    (the writers pass Ray's ``target_max_block_size``, which bounds a
    fused read's blocks the same way), so a multi-GB input never
    decodes into one table. Each block is split by
    ``split_row_groups`` on its own; inputs that fit in one block give
    exactly the row groups of one split over their whole table."""
    blocks = _scan_blocks(paths, columns, block_bytes)
    schema_ir = schema_from_arrow(next(blocks), opts.schema_overrides)
    return schema_ir, ((rec_id, g) for t in blocks for g in
                       split_row_groups(t, max_group_rows, max_group_bytes))


def _write_input_part(key, rec_id, paths, *, out_dir, opts, columns,
                      max_group_rows, max_group_bytes, block_bytes,
                      lineage_name) -> dict:
    """One file-granular part task: re-encode the input files ``paths``,
    read directly (their bytes never enter the object store), into
    ``part-<key>.parquet`` and return its summary row."""
    load = partial(_read_groups, paths, rec_id, opts, columns,
                   max_group_rows, max_group_bytes, block_bytes)
    return _write_part(out_dir, f"part-{key}.parquet", key, load, opts,
                       lineage_name=lineage_name).to_pylist()[0]


def _write_input_parts(parts, out_dir, opts, done, *, resume, columns,
                       max_group_rows, max_group_bytes, concurrency=None,
                       lineage_name: str = "_lineage") -> dict:
    """Write each ``(part key, record id, input paths)`` of ``parts``
    to ``part-<key>.parquet``: each pending part as one plain Ray task
    (:func:`_write_input_part`), at most ``concurrency`` in flight.

    With ``resume`` a part is finished when its file is in ``done``
    (the out_dir listing) and every lineage record of it carries the
    record id this run expects; the driver totals it from its records
    and listed size, with no task, request or input read. A changed
    input (a new record id) re-encodes in place. A part deleted after
    ``done`` was listed counts as skipped in this run, and the next run
    rewrites it. A failed task cancels the ones in flight and raises
    its error; the parts finished before it keep their records."""
    from ray.data import DataContext

    total = _new_totals()
    pending = []
    for key, rec_id, paths in parts:
        fname = f"part-{key}.parquet"
        fin = done.get(fname)
        if resume and fin and all(r.part_id == rec_id for r in fin.records):
            log.debug("part %s finished by an earlier run: skipped", fname)
            _count_skipped(total, fin.size, fin.records)
        else:
            pending.append((key, rec_id, paths))
    if pending:
        ctx = DataContext.get_current()
        task = _remote(_write_input_part).options(
            scheduling_strategy=ctx.scheduling_strategy)
        submit = partial(task.remote, out_dir=out_dir, opts=opts, columns=columns,
                         max_group_rows=max_group_rows,
                         max_group_bytes=max_group_bytes,
                         block_bytes=ctx.target_max_block_size,
                         lineage_name=lineage_name)
        _run_tasks(submit, pending, lambda row: _add_row(total, row, done),
                   _task_concurrency(concurrency) or len(pending))
    total["out_dir"] = out_dir
    return total


def _file_parts(paths) -> list[tuple[str, str, list[str]]]:
    """``(part key, record id, [path])`` for each input file, by path.
    The key is the stem suffixed with a hash of the absolute path (a
    URI as given), so two inputs sharing a basename in different
    directories never collide on one output part. The record id hashes
    the input's identity (:func:`fsio.identities`: path, size, version),
    so a regenerated input no longer matches its part's records.

    An input given twice, spelled alike or not (``in/a.parquet``,
    ``./in/a.parquet``, ``file:///abs/in/a.parquet``), raises
    ValueError: its two tasks would race on one part file and its rows
    would be counted twice. The check compares
    :func:`fsio.location`; keys and record ids keep hashing the path as
    given, so out_dirs written before still resume."""
    parts = []
    seen: dict[tuple[str, str], str] = {}
    paths = sorted(map(os.fspath, paths))
    for p, ident in zip(paths, fsio.identities(paths)):
        loc = fsio.location(p)
        if loc in seen:
            raise ValueError(f"input {p!r} is given twice "
                             f"(also as {seen[loc]!r})")
        seen[loc] = p
        stem = os.path.splitext(os.path.basename(ident[0]))[0]
        key = f"{stem}-{hashlib.sha1(ident[0].encode()).hexdigest()[:8]}"
        rec_id = hashlib.sha1(json.dumps(ident).encode()).hexdigest()[:16]
        parts.append((key, rec_id, [p]))
    return parts


def write_parquet_files(
    input_paths: list[str],
    out_dir: str,
    opts: Optional[WriteOptions] = None,
    *,
    max_group_rows: int = DEFAULT_GROUP_ROWS,
    max_group_bytes: int = DEFAULT_GROUP_BYTES,
    resume: bool = True,
    columns: Optional[list[str]] = None,
) -> dict:
    """Shard-to-shard re-encode: one part file per input file, each task
    reading its shard directly (no object-store hop — the maximum-
    throughput shape for file-granular transforms). Inputs may be local
    paths or fsspec URIs. Resume keys on each input's identity (path,
    size, version; :func:`fsio.identity`): a finished input is skipped
    without being read, and a regenerated one re-encodes in place.
    ``columns`` prunes the read. A task decodes at most about one Ray
    block (``target_max_block_size``) of its input at a time."""
    opts = opts or WriteOptions()
    parts = _file_parts(input_paths)
    done = _open_out_dir(out_dir)
    return _write_input_parts(
        parts, out_dir, opts, done, resume=resume, columns=columns,
        max_group_rows=max_group_rows, max_group_bytes=max_group_bytes)


# write_parquet_dataset's name for a part of an opaque Dataset, and
# _file_parts' name for the part of one input file
_CONTENT_PART = re.compile(r"part-[0-9a-f]{16}\.parquet")
_FILE_PART = re.compile(r"part-.+-[0-9a-f]{8}\.parquet")


def _fused_file_parts(paths, done: dict) -> Optional[list]:
    """:func:`_file_parts` for a fused read's ``paths``, or None to
    keep content naming: when an input is a directory or is given twice
    (the Dataset then holds its rows twice, as Ray reads them), or when
    the out_dir (``done``, its finished files) holds content-named parts
    and none of these inputs' parts, as a content-named run of the same
    read leaves it. File-named parts next to those would duplicate
    their rows."""
    try:
        parts = _file_parts(paths)
    except (IsADirectoryError, ValueError):  # a dataset dir, a duplicate
        return None
    names = {f"part-{k}.parquet" for k, _, _ in parts}
    if any(_CONTENT_PART.fullmatch(f) for f in done) and not names & done.keys():
        return None
    return parts


def write_parquet_dataset(
    ds,
    out_dir: str,
    opts: Optional[WriteOptions] = None,
    *,
    concurrency=None,
    max_group_rows: int = DEFAULT_GROUP_ROWS,
    max_group_bytes: int = DEFAULT_GROUP_BYTES,
    resume: bool = True,
    part_rows: Optional[int] = None,
    repartition_blocks: Optional[int] = None,
    sort_by=None,
) -> dict:
    """Partitioned parquet output with lineage records + resume.

    For maximum throughput feed this a dataset from
    :func:`read_parquet_fused`: the read then fuses with the encode into
    one task and input bytes never transit the object store
    (measured 3.8x end-to-end, BASELINE.md).

    Part names, and so resume, follow what ``ds`` is:

    - An untransformed :func:`read_parquet_fused` read, with none of
      ``part_rows``, ``repartition_blocks`` or ``sort_by``, is written
      like :func:`write_parquet_files`: one ``part-<stem>-<hash>.parquet``
      per input file, named by its path and resumed on its identity
      (path, size, version). A rerun skips finished inputs without
      reading them and re-encodes a regenerated one.
    - Any other Dataset writes each block as
      ``part-<content_hash>.parquet``, named by a hash of every decoded
      value, so a rerun re-reads the input and skips parts whose files
      already exist. An out_dir whose lineage holds such parts and none
      of the file-named ones keeps this naming for a fused read too, so
      a rerun never writes the same rows under two names. The reverse
      is not caught: this path cannot tell which rows of file-named
      parts it writes again, so it warns when the out_dir holds any.
      Write the two kinds of Dataset to separate out_dirs.

    Partitioning is explicit: ``repartition_blocks`` forces the
    partition count via ``ds.repartition`` (an exchange — use when the
    upstream block structure is skewed or too fine/coarse), ``part_rows``
    re-bundles rows per part without a shuffle, and the byte cap in
    ``split_row_groups`` splits oversized skewed groups.

    ``out_dir`` may be an fsspec URI (``s3://bucket/out``): parts are
    single atomic PUTs to their final names (no rename on object
    stores; an interrupted upload never becomes visible), per-part
    lineage records are one PUT each, and resume works identically —
    so a multi-node cluster needs no POSIX mount for output either
    (same applies to write_parquet_files / write_parquet_partitioned /
    compact_parquet_dataset / write_parquet_single_file).
    """
    opts = opts or WriteOptions()
    done = _open_out_dir(out_dir)
    fused = None if part_rows or repartition_blocks or sort_by \
        else _FUSED_READS.get(ds)
    parts = fused and _fused_file_parts(fused[0], done)
    if parts:
        return _write_input_parts(
            parts, out_dir, opts, done, resume=resume,
            columns=fused[1], max_group_rows=max_group_rows,
            max_group_bytes=max_group_bytes, concurrency=concurrency)
    if any(_FILE_PART.fullmatch(f) for f in done):
        warnings.warn(
            f"{out_dir} holds parts named by input file (write_parquet_files "
            "or a plain read_parquet_fused read); this Dataset's parts are "
            "named by content, so rows already in those parts are written "
            "again", stacklevel=2)
    if repartition_blocks:
        ds = ds.repartition(repartition_blocks)
    writer = PartFileWriter(opts, _normalized_arrow_schema(ds), out_dir,
                            max_group_rows, max_group_bytes,
                            frozenset(done if resume else ()), sort_by)
    total = _drain_manifests(_map_batches(
        ds, writer, batch_size=part_rows, concurrency=concurrency), done)
    total["out_dir"] = out_dir
    return total


def compact_parquet_dataset(
    input_paths,
    out_dir: str,
    opts: Optional[WriteOptions] = None,
    *,
    target_part_bytes: int = 128 << 20,
    max_group_rows: int = DEFAULT_GROUP_ROWS,
    max_group_bytes: int = DEFAULT_GROUP_BYTES,
    resume: bool = True,
    columns: Optional[list[str]] = None,
) -> dict:
    """Compact many small parquet files into target-sized parts — the
    small-file problem killer for long-running 100 TB pipelines.

    Files (sorted) are greedily bucketed by cumulative COMPRESSED input
    size up to ``target_part_bytes``; one task per bucket reads its
    files directly (bytes never enter the object store) and re-encodes
    them as one part. A file larger than the target forms its own
    bucket and still splits into row groups internally. Bucket ids hash
    the member file names, sizes and versions (:func:`fsio.identity`),
    so resume skips finished buckets and any input change re-runs its
    bucket. Inputs may be local paths or fsspec URIs."""
    opts = opts or WriteOptions()
    if isinstance(input_paths, (str, os.PathLike)):
        input_paths = fsio.glob_in(os.fspath(input_paths), "*.parquet")
    input_paths = sorted(map(os.fspath, input_paths))
    idents = dict(zip(input_paths, fsio.identities(input_paths)))
    buckets: list[list[str]] = []
    cur: list[str] = []
    cur_bytes = 0
    for p, (_, size, _) in idents.items():
        if cur and cur_bytes + size > target_part_bytes:
            buckets.append(cur)
            cur, cur_bytes = [], 0
        cur.append(p)
        cur_bytes += size
    if cur:
        buckets.append(cur)

    def bucket_id(paths: list[str]) -> str:
        # name + size + version (mtime_ns locally, fsio.identity):
        # regenerating an input file changes its mtime even when the
        # size is preserved, so the bucket re-runs. (A same-size
        # same-mtime in-place byte edit would still be missed —
        # full-content ids would need a read pass per resume.)
        h = hashlib.sha1()
        for p in paths:
            _, size, version = idents[p]
            h.update(os.path.basename(p).encode())
            h.update(str(size).encode())
            h.update(version.encode())
        return h.hexdigest()[:16]

    # refuse in-place compaction: with out_dir == input dir the stale-part
    # GC below would delete the input files themselves after the first run
    for p in idents:
        if fsio.within(p, out_dir):
            raise ValueError(
                f"compact_parquet_dataset: input file {p} lies inside "
                f"out_dir {out_dir}; compaction must not write in place"
            )

    # finished parts are read even without resume: the GC below needs them
    prior = _open_out_dir(out_dir, lineage_name=COMPACT_LINEAGE)
    ids = [bucket_id(b) for b in buckets]
    parts = [(i, i, b) for i, b in zip(ids, buckets)]
    total = _write_input_parts(
        parts, out_dir, opts, prior, resume=resume, columns=columns,
        max_group_rows=max_group_rows, max_group_bytes=max_group_bytes,
        lineage_name=COMPACT_LINEAGE)
    total["input_files"] = len(idents)
    # garbage-collect parts from superseded bucket layouts: a changed
    # input produces a NEW bucket id, and without cleanup the stale
    # part would keep serving the old rows alongside the new ones.
    # Only files THIS compactor's lineage recorded are candidates —
    # pre-existing files it never wrote are left untouched.
    # Every candidate is a file of the out_dir listing, so it is
    # deleted with no metadata request.
    stale = sorted(set(prior) - {f"part-{k}.parquet" for k, _, _ in parts})
    for f in stale:
        fsio.rm_file(fsio.join(out_dir, f))
        log.debug("stale compaction part %s removed", f)
    total["removed_stale_parts"] = len(stale)
    return total
