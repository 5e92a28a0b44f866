"""Distributed parquet write pipelines (Ray-Data-first; SURVEY.md §7).

Two output shapes:

- ``write_parquet_single_file``: reference-parity single file. Encode
  fans out over an actor pool; a single driver-side assembler streams
  ordered row-group blobs into one file (the only serialization point,
  like the reference's ``writer.offset`` — SURVEY.md §3.4). Scales to
  one file's practical limit; ordering via streaming
  ``preserve_order``.

- ``write_parquet_dataset``: the 100 TB shape. Every task assembles its
  own complete parquet part-file (no driver byte bottleneck, no
  all-to-all shuffle anywhere), with per-partition lineage records and
  checkpoint resume: a killed job skips parts already on disk.
"""
from __future__ import annotations

import hashlib
import os
import pickle
from contextlib import contextmanager
from functools import partial
from typing import Optional

import pyarrow as pa

from ..core.assemble import FileAssembler
from ..core.options import WriteOptions
from ..core.rowgroup import encode_row_group
from ..core.schema import _normalize_type, normalize_table, schema_from_arrow
from ..core.types import leaf_columns
from ..stages.encode import (
    DEFAULT_GROUP_BYTES,
    DEFAULT_GROUP_ROWS,
    RowGroupEncoder,
    content_part_id,
    split_row_groups,
)
from ..state.lineage import LineageLog, record_from_meta


def _normalized_arrow_schema(ds) -> pa.Schema:
    schema = ds.schema().base_schema
    fields = []
    for f in schema:
        nt = _normalize_type(f.type)
        fields.append(pa.field(f.name, nt or f.type, f.nullable))
    return pa.schema(fields)


def read_parquet_fused(path_or_paths, *, columns: Optional[list[str]] = None, **kw):
    """``ray.data.read_parquet`` shaped so the read FUSES with the next
    ``map_batches``: one read task per input file (no ``SplitBlocks``
    operator — SplitBlocks is what breaks ReadParquet->MapBatches
    fusion). Feeding this into ``write_parquet_dataset`` runs
    read -> decode -> encode -> part file inside a single task, so
    input bytes never transit the object store (measured 3.8x
    end-to-end vs the unfused plan at 32 cpus, BASELINE.md).

    ``path_or_paths``: a directory (its ``*.parquet`` files), one file,
    or an explicit list. ``columns`` prunes at the read."""
    import glob as _glob

    import ray.data

    if isinstance(path_or_paths, str):
        if os.path.isdir(path_or_paths):
            paths = sorted(_glob.glob(os.path.join(
                _glob.escape(path_or_paths), "*.parquet")))
        else:
            paths = [path_or_paths]
    else:
        paths = list(path_or_paths)
    if not paths:
        raise ValueError(
            f"read_parquet_fused: no parquet files found in {path_or_paths!r}"
        )
    return ray.data.read_parquet(
        paths, columns=columns, override_num_blocks=len(paths), **kw
    )


def _default_concurrency(concurrency):
    """Autoscaling actor pool capped below the CPU count: a fixed pool
    that reserves every CPU starves upstream read tasks (livelock)."""
    if concurrency is not None:
        return concurrency
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    return (1, max(1, cpus - 2))


def _task_concurrency(concurrency):
    """Map an actor-style concurrency spec to the int ceiling task-mode
    ``map_batches`` accepts — a (min, max) tuple would otherwise be
    silently dropped by the non-actor branches."""
    if isinstance(concurrency, tuple):
        return concurrency[1]
    return concurrency


def _tmp_name(fpath: str) -> str:
    """Unique in-progress name: two concurrent tasks producing the same
    content-addressed part must not interleave into one tmp inode (the
    loser's os.replace would also raise FileNotFoundError)."""
    return f"{fpath}.inprogress-{os.getpid()}-{os.urandom(4).hex()}"


@contextmanager
def _part_sink(fpath: str):
    """Writable sink for one output part, URI-transparent.

    Local: tmp + atomic os.replace (a killed task never leaves a
    truncated .parquet at the target name). Rename-based fsspec
    protocols (file://, sftp, …) write through the filesystem, so the
    same tmp + atomic ``fs.mv`` applies — writing the final name
    directly there would leave a truncated part visible after a kill.
    True object stores (s3, gcs, …): write the final name directly —
    a PUT is invisible until complete and atomic at close, while
    "rename" is copy+delete."""
    from ..state import fsio

    if fsio.is_uri(fpath):
        fs, p = fsio.url_fs(fpath)
        if fsio.fs_rename_based(fs):
            tmp = f"{p}.inprogress-{os.getpid()}-{os.urandom(4).hex()}"
            try:
                with fs.open(tmp, "wb") as f:
                    yield f
                fs.mv(tmp, p)
            finally:
                if fs.exists(tmp):
                    fs.rm(tmp)
            return
        # one HEAD per part (negligible next to the multi-MB PUT): on a
        # failed REWRITE of an existing name, the previous successful
        # object must survive — the old unconditional fs.rm(p) deleted
        # a prior run's good single-file output when its refresh failed
        existed = fs.exists(p)
        f = fs.open(p, "wb")
        try:
            yield f
        except BaseException:
            try:
                # abort the upload: nothing is committed, so any
                # previous object at this name stays intact
                f.discard()
            except Exception:
                pass
            try:
                f.close()
            except Exception:
                pass
            if not existed:
                # visible-at-open / commit-on-close backends may have
                # surfaced a torn object at a fresh name — remove it
                try:
                    fs.rm(p)
                except Exception:
                    pass
            raise
        f.close()
        return
    tmp = _tmp_name(fpath)
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, fpath)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _join_out(base: str, *parts: str) -> str:
    from ..state import fsio

    return fsio.join(base, *parts)


def _part_exists_size(fpath: str):
    """(exists, size) for a possibly-URI part path."""
    from ..state import fsio

    if fsio.is_uri(fpath):
        fs, p = fsio.url_fs(fpath)
        try:
            return True, fs.size(p)
        except FileNotFoundError:
            return False, 0
    if os.path.exists(fpath):
        return True, os.path.getsize(fpath)
    return False, 0


STALE_TMP_AGE_SEC = 3600.0


def _fs_mtime(fs, path: str) -> float | None:
    """Modification time in epoch seconds, or None when the backend
    exposes none. fsspec's sftp/ftp filesystems don't implement
    ``fs.modified`` (AbstractFileSystem raises NotImplementedError) but
    DO populate an mtime in ``fs.info`` — fall through to it so the
    age-gated tmp sweeps actually run there."""
    try:
        return fs.modified(path).timestamp()
    except Exception:
        pass
    try:
        m = fs.info(path).get("mtime")
    except Exception:
        return None
    if m is None:
        return None
    return m.timestamp() if hasattr(m, "timestamp") else float(m)


def _clean_dest_tmps(path: str, max_age: float = STALE_TMP_AGE_SEC) -> None:
    """Remove aged ``<path>.inprogress-*`` orphans left by hard-killed
    single-file writes (each attempt uses a fresh random tmp name, and
    a SIGKILL skips _part_sink's cleanup; the dataset writers sweep via
    _clean_stale_tmps, but a single-file destination has no out_dir
    sweep), plus the FIXED ``<path>.inprogress`` name the pre-r5
    single-file writer (and local.write_table today) uses — a crashed
    pre-upgrade run's multi-GB tmp must not persist forever. Age-gated
    for the same concurrent-writer reason."""
    import glob as _glob
    import time

    from ..state import fsio

    cutoff = time.time() - max_age
    if fsio.is_uri(path):
        fs, p = fsio.url_fs(path)
        if not fsio.fs_rename_based(fs):
            return  # object-store branch writes no tmps
        legacy = [p + ".inprogress"] if fs.exists(p + ".inprogress") else []
        for m in list(fs.glob(_glob.escape(p) + ".inprogress-*")) + legacy:
            try:
                mt = _fs_mtime(fs, m)
                if mt is not None and mt < cutoff:
                    fs.rm(m)
            except Exception:
                pass
        return
    legacy = [path + ".inprogress"] \
        if os.path.exists(path + ".inprogress") else []
    for f in _glob.glob(_glob.escape(path) + ".inprogress-*") + legacy:
        try:
            if os.path.getmtime(f) < cutoff:
                os.remove(f)
        except OSError:
            pass


def _clean_stale_tmps(out_dir: str, max_age: float = STALE_TMP_AGE_SEC) -> None:
    """Remove .inprogress-* leftovers from previous killed runs (the
    current run's tmps don't exist yet when this is called). Only tmps
    older than ``max_age`` are removed: two live writers may share one
    out_dir (the compaction lineage namespace explicitly supports it),
    and deleting a CONCURRENT writer's in-flight tmp would make its
    os.replace fail — a healthy writer finishes a part in seconds, so
    an hour-old tmp is a crashed run's, not a live one's."""
    import glob as _glob
    import time

    cutoff = time.time() - max_age
    for f in _glob.glob(os.path.join(_glob.escape(out_dir), "**",
                                     "*.inprogress-*"), recursive=True):
        try:
            if os.path.getmtime(f) < cutoff:
                os.remove(f)
        except OSError:
            pass


# compaction keeps its own lineage namespace: its stale-part GC must
# only ever see parts compaction itself recorded (write_parquet_dataset
# parts in the same out_dir share the default "_lineage")
COMPACT_LINEAGE = "_lineage_compact"



def _drain_manifests(manifest_ds, lineage, total: dict,
                     done_files: dict[str, int]) -> dict:
    """Shared driver loop for the part-file writers: aggregate manifest
    rows into ``total`` and persist lineage records. ONE semantics for
    all writers, so a resume returns the totals of a fresh run: every
    part counts its rows and its file bytes on disk; a skipped
    (resumed) part's uncompressed bytes come from its lineage records
    (``done_files``, from :meth:`LineageLog.completed_files`)."""
    for batch in manifest_ds.iter_batches(batch_size=None,
                                          batch_format="pyarrow"):
        for row in range(batch.num_rows):
            total["parts"] += 1
            total["rows"] += batch.column("rows")[row].as_py()
            total["compressed_bytes"] += \
                batch.column("compressed_bytes")[row].as_py()
            if batch.column("skipped")[row].as_py():
                total["skipped_parts"] += 1
                total["uncompressed_bytes"] += \
                    done_files[batch.column("file")[row].as_py()]
                continue
            total["uncompressed_bytes"] += \
                batch.column("uncompressed_bytes")[row].as_py()
            for rec in pickle.loads(batch.column("manifest")[row].as_py()):
                lineage.append(rec)
    lineage.close()
    return total


@contextmanager
def _preserve_order(*datasets):
    """Force ordered streaming execution for ``datasets``. Ray COPIES
    the ambient DataContext into each dataset at creation
    (read_api.py: ``DataContext.get_current().copy()``), so flipping
    only the global context does nothing for a dataset the caller built
    earlier — order preservation would then be arrival-order luck. The
    flag must be set on each dataset's own captured context; the global
    one is included for operators created inside the block."""
    import ray.data

    ctxs = [ray.data.DataContext.get_current()]
    ctxs += [d.context for d in datasets]
    uniq: list = []
    for c in ctxs:  # derived datasets often share the parent's context
        if not any(c is u for u in uniq):
            uniq.append(c)
    prev = [c.execution_options.preserve_order for c in uniq]
    for c in uniq:
        c.execution_options.preserve_order = True
    try:
        yield
    finally:
        for c, p in zip(uniq, prev):
            c.execution_options.preserve_order = p


def write_parquet_single_file(
    ds,
    path: str,
    opts: Optional[WriteOptions] = None,
    *,
    concurrency=None,
    max_group_rows: int = DEFAULT_GROUP_ROWS,
    max_group_bytes: int = DEFAULT_GROUP_BYTES,
    checkpoint_dir: Optional[str] = None,
    use_actors: bool = False,
) -> dict:
    """Encode ``ds`` into one parquet file at ``path``.

    Returns summary stats. With ``checkpoint_dir``, encoded blobs are
    checkpointed per partition and a rerun reuses finished partitions.
    """
    opts = opts or WriteOptions()
    arrow_schema = _normalized_arrow_schema(ds)
    _clean_dest_tmps(path)

    lineage = None
    skip: frozenset[str] = frozenset()
    if checkpoint_dir:
        lineage = LineageLog(checkpoint_dir, store_blobs=True)
        skip = frozenset(lineage.completed_parts())

    enc_kwargs = dict(
        opts=opts,
        arrow_schema=arrow_schema,
        max_group_rows=max_group_rows,
        max_group_bytes=max_group_bytes,
        skip_part_ids=skip,
    )
    if use_actors:
        encoded = ds.map_batches(
            RowGroupEncoder,
            fn_constructor_kwargs=enc_kwargs,
            batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
            concurrency=_default_concurrency(concurrency),
        )
    else:
        # stateless encode: plain tasks reuse warm Ray workers — no actor
        # pool spin-up, better autoscaling (SURVEY.md §7.3)
        encoded = ds.map_batches(
            partial(_encode_groups_fn, **enc_kwargs),
            batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
            concurrency=_task_concurrency(concurrency),
        )

    schema_ir = schema_from_arrow(arrow_schema, opts.schema_overrides)
    total_comp = 0
    total_raw = 0
    n_parts = 0
    with _preserve_order(encoded):
        with _part_sink(path) as sink:
            asm = FileAssembler(sink, schema_ir, opts)
            for batch in encoded.iter_batches(batch_size=None, batch_format="pyarrow"):
                for row in range(batch.num_rows):
                    part_id = batch.column("part_id")[row].as_py()
                    blob = batch.column("blob")[row].as_py()
                    if blob is None:
                        # resume marker: reuse checkpointed blob
                        blob, meta = lineage.load_blob(part_id)
                    else:
                        meta = pickle.loads(batch.column("meta")[row].as_py())
                        if lineage is not None:
                            lineage.append(
                                record_from_meta(part_id, meta, len(blob)), blob, meta
                            )
                    asm.append_group(blob, meta)
                    total_comp += len(blob)
                    total_raw += meta.total_byte_size
                    n_parts += 1
            asm.finish()
    if lineage is not None:
        lineage.close()
    return {
        "path": path,
        "row_groups": n_parts,
        "rows": asm.num_rows,
        "compressed_bytes": total_comp,
        "uncompressed_bytes": total_raw,
        "file_bytes": _part_exists_size(path)[1],
    }


_ENC_REMOTE = None


def _enc_remote():
    """ray.remote wrapper for _encode_table_slice, created once per
    process (a fresh ray.remote per call re-exports the function)."""
    global _ENC_REMOTE
    if _ENC_REMOTE is None:
        import ray

        _ENC_REMOTE = ray.remote(_encode_table_slice)
    return _ENC_REMOTE


def _encode_table_slice(table: pa.Table, r0: int, r1: int,
                        schema_ir, opts: WriteOptions):
    """One row-group slice of a driver-held table, encoded in a Ray
    task. encode_row_group is deterministic and its blob carries
    relative offsets (core/chunk.py), so the ordered assembler can
    rebase — output is byte-identical to the serial writer."""
    leaves = leaf_columns(schema_ir)
    return encode_row_group(table.slice(r0, r1 - r0), schema_ir,
                            leaves, opts)


def write_table_parallel(
    table: pa.Table,
    sink,
    opts: Optional[WriteOptions] = None,
    *,
    max_in_flight: int = 64,
) -> None:
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

    Raw ``ray.remote`` tasks are deliberate here: the input is a
    driver-held in-memory Table with REQUIRED slice boundaries (the
    reference's preview schedule), not a Dataset of opaque blocks.
    ``max_in_flight`` bounds submitted-but-unconsumed slices so a huge
    table cannot queue unbounded blobs ahead of the assembler.

    Falls back to the serial writer when Ray is not initialized (this
    function never calls ray.init — driver contract) or when the
    schedule yields fewer than two slices."""
    import ray

    from ..local import row_group_slices, write_table

    opts = opts or WriteOptions()
    table = normalize_table(table)
    slices = row_group_slices(table.num_rows, opts.row_group_size)
    if len(slices) < 2 or not ray.is_initialized():
        from ..state import fsio

        if isinstance(sink, str) and fsio.is_uri(sink):
            with _part_sink(sink) as f:  # serial fallback, URI sink
                write_table(table, f, opts)
        else:
            write_table(table, sink, opts)
        return
    schema_ir = schema_from_arrow(table.schema, opts.schema_overrides)
    enc = _enc_remote()
    tref = ray.put(table)

    def _assemble(f) -> None:
        asm = FileAssembler(f, schema_ir, opts)
        pending = [enc.remote(tref, r0, r1, schema_ir, opts)
                   for r0, r1 in slices[:max_in_flight]]
        nxt = len(pending)
        for i in range(len(slices)):
            blob, meta = ray.get(pending[i])
            pending[i] = None  # release the blob ref once consumed
            if nxt < len(slices):
                r0, r1 = slices[nxt]
                pending.append(enc.remote(tref, r0, r1, schema_ir, opts))
                nxt += 1
            asm.append_group(blob, meta)
        asm.finish()

    if isinstance(sink, str):
        with _part_sink(sink) as f:
            _assemble(f)
        return
    _assemble(sink)


def _encode_groups_fn(batch: pa.Table, **kwargs):
    """Task-mode row-group encoder (module-level so cloudpickle ships a
    reference, not a closure)."""
    yield from RowGroupEncoder(**kwargs)(batch)


def _encode_part_fn(batch: pa.Table, **kwargs):
    """Task-mode part-file writer."""
    yield from PartFileWriter(**kwargs)(batch)


class PartFileWriter:
    """map_batches actor: assembles each input batch into its own
    complete parquet part-file under ``out_dir`` and returns one
    manifest row per part. Fully parallel — no driver byte path."""

    def __init__(
        self,
        opts: WriteOptions,
        arrow_schema: pa.Schema,
        out_dir: str,
        max_group_rows: int = DEFAULT_GROUP_ROWS,
        max_group_bytes: int = DEFAULT_GROUP_BYTES,
        skip_part_ids: Optional[frozenset[str]] = None,
        sort_by=None,
    ) -> None:
        self.opts = opts
        self.schema_ir = schema_from_arrow(arrow_schema, opts.schema_overrides)
        self.leaves = leaf_columns(self.schema_ir)
        self.out_dir = out_dir
        self.max_group_rows = max_group_rows
        self.max_group_bytes = max_group_bytes
        self.skip = skip_part_ids or frozenset()
        self.sort_by = [sort_by] if isinstance(sort_by, str) else (
            list(sort_by) if sort_by else None)
        if self.sort_by and self.opts.sorting_columns is None:
            # advertise the block-local sort in every part's footer
            # (RowGroup.sorting_columns): ascending, nulls last —
            # pa.Table.sort_by's defaults below
            import dataclasses
            self.opts = dataclasses.replace(
                self.opts,
                sorting_columns=[(c, False, False) for c in self.sort_by],
            )

    def __call__(self, batch: pa.Table):
        batch = normalize_table(batch)
        if batch.num_rows == 0:
            return
        if self.sort_by:
            # BLOCK-LOCAL sort-before-encode: no shuffle, each worker
            # sorts only its own part. Clustering equal/near values
            # feeds the dict/RLE/delta/FSST codecs longer runs and
            # smaller deltas; row order is not load-bearing for keyed
            # part output (the lineage manifest, not position,
            # identifies parts). Measured on shuffled events @ sf0.1:
            # 14.9% smaller compressed output, recovering ~63% of the
            # full global-sort benefit with zero shuffle (BASELINE.md).
            batch = batch.sort_by([(c, "ascending") for c in self.sort_by])
        # ONE content-hash pass: per-group digests, part id derived from
        # them (hashing the whole batch AND each group would read every
        # byte twice)
        groups = list(split_row_groups(batch, self.max_group_rows, self.max_group_bytes))
        gids = [content_part_id(g) for g in groups]
        part_id = hashlib.blake2b("".join(gids).encode(), digest_size=12).hexdigest()[:16]
        fname = f"part-{part_id}.parquet"
        fpath = _join_out(self.out_dir, fname)
        # a lineage record without its file on disk is NOT done
        exists, size = (_part_exists_size(fpath) if part_id in self.skip
                        else (False, 0))
        if part_id in self.skip and exists:
            yield pa.table({
                "part_id": [part_id], "file": [fname],
                "rows": pa.array([batch.num_rows], type=pa.int64()),
                "compressed_bytes": pa.array([size], type=pa.int64()),
                "uncompressed_bytes": pa.array([0], type=pa.int64()),
                "skipped": [True],
                "manifest": pa.array([None], type=pa.large_binary()),
            })
            return
        raw = 0
        recs = []
        with _part_sink(fpath) as sink:
            asm = FileAssembler(sink, self.schema_ir, self.opts)
            for gid, group in zip(gids, groups):
                blob, meta = encode_row_group(group, self.schema_ir, self.leaves, self.opts)
                asm.append_group(blob, meta)
                raw += meta.total_byte_size
                recs.append(record_from_meta(gid, meta, len(blob), file=fname))
            asm.finish()
        # worker-side lineage: durable the moment the part is (survives a
        # driver SIGKILL; see state/lineage.py)
        LineageLog(self.out_dir).write_part_record(part_id, recs)
        yield pa.table({
            "part_id": [part_id], "file": [fname],
            "rows": pa.array([batch.num_rows], type=pa.int64()),
            "compressed_bytes": pa.array([asm.offset], type=pa.int64()),
            "uncompressed_bytes": pa.array([raw], type=pa.int64()),
            "skipped": [False],
            "manifest": pa.array([pickle.dumps(recs)], type=pa.large_binary()),
        })


def _hive_value(v) -> str:
    """Hive directory token for a partition value (URL-quoted, the
    encoding pyarrow's hive partitioning decodes; nulls use the Hive
    default-partition sentinel)."""
    from urllib.parse import quote

    if v is None:
        return "__HIVE_DEFAULT_PARTITION__"
    return quote(str(v), safe="")


def _encode_partitioned_fn(batch: pa.Table, **kwargs):
    yield from PartitionedPartWriter(**kwargs)(batch)


class PartitionedPartWriter:
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
                 skip_part_ids: Optional[frozenset[str]] = None) -> None:
        import pyarrow as _pa

        self.opts = opts
        self.partition_col = partition_col
        data_schema = _pa.schema(
            [f for f in arrow_schema if f.name != partition_col])
        self.schema_ir = schema_from_arrow(data_schema, opts.schema_overrides)
        self.leaves = leaf_columns(self.schema_ir)
        self.out_dir = out_dir
        self.max_group_rows = max_group_rows
        self.max_group_bytes = max_group_bytes
        self.skip = skip_part_ids or frozenset()

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
            from ..state import fsio as _fsio

            _fsio.makedirs(_join_out(self.out_dir, subdir))
            groups = list(split_row_groups(sub, self.max_group_rows,
                                           self.max_group_bytes))
            gids = [content_part_id(g) for g in groups]
            part_id = hashlib.blake2b(
                (subdir + "|" + "".join(gids)).encode(), digest_size=12
            ).hexdigest()[:16]
            fname = f"{subdir}/part-{part_id}.parquet"
            fpath = _join_out(self.out_dir, fname)
            exists, size = (_part_exists_size(fpath)
                            if part_id in self.skip else (False, 0))
            if part_id in self.skip and exists:
                yield pa.table({
                    "part_id": [part_id], "file": [fname],
                    "rows": pa.array([sub.num_rows], type=pa.int64()),
                    "compressed_bytes": pa.array([size], type=pa.int64()),
                    "uncompressed_bytes": pa.array([0], type=pa.int64()),
                    "skipped": [True],
                    "manifest": pa.array([None], type=pa.large_binary()),
                })
                continue
            raw = 0
            recs = []
            with _part_sink(fpath) as sink:
                asm = FileAssembler(sink, self.schema_ir, self.opts)
                for gid, group in zip(gids, groups):
                    blob, meta = encode_row_group(
                        group, self.schema_ir, self.leaves, self.opts)
                    asm.append_group(blob, meta)
                    raw += meta.total_byte_size
                    recs.append(record_from_meta(gid, meta, len(blob),
                                                 file=fname))
                asm.finish()
            LineageLog(self.out_dir).write_part_record(part_id, recs)
            yield pa.table({
                "part_id": [part_id], "file": [fname],
                "rows": pa.array([sub.num_rows], type=pa.int64()),
                "compressed_bytes": pa.array([asm.offset], type=pa.int64()),
                "uncompressed_bytes": pa.array([raw], type=pa.int64()),
                "skipped": [False],
                "manifest": pa.array([pickle.dumps(recs)],
                                     type=pa.large_binary()),
            })


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
    use_actors: bool = False,
    part_rows: Optional[int] = None,
) -> dict:
    """Hive-partitioned parquet output (``<col>=<value>/part-*.parquet``)
    with the same lineage manifest + content-hash resume as
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
    from ..state import fsio as _fsio_drv

    _fsio_drv.makedirs(out_dir)
    if not _fsio_drv.is_uri(out_dir):
        _clean_stale_tmps(out_dir)  # URIs have no tmp files by design
    arrow_schema = _normalized_arrow_schema(ds)
    if partition_col not in arrow_schema.names:
        raise ValueError(f"partition_col {partition_col!r} not in schema")
    lineage = LineageLog(out_dir)
    done = lineage.completed_files() if resume else {}
    skip = frozenset(os.path.basename(f)[5:-8] for f in done)
    part_kwargs = dict(
        opts=opts, arrow_schema=arrow_schema, out_dir=out_dir,
        partition_col=partition_col, max_group_rows=max_group_rows,
        max_group_bytes=max_group_bytes, skip_part_ids=skip,
    )
    if use_actors:
        manifest_ds = ds.map_batches(
            PartitionedPartWriter, fn_constructor_kwargs=part_kwargs,
            batch_format="pyarrow", batch_size=part_rows,
            zero_copy_batch=True,
            concurrency=_default_concurrency(concurrency),
        )
    else:
        manifest_ds = ds.map_batches(
            partial(_encode_partitioned_fn, **part_kwargs),
            batch_format="pyarrow", batch_size=part_rows,
            zero_copy_batch=True,
            concurrency=_task_concurrency(concurrency),
        )
    total = _drain_manifests(manifest_ds, lineage, {
        "parts": 0, "rows": 0, "compressed_bytes": 0,
        "uncompressed_bytes": 0, "skipped_parts": 0}, done)
    total["out_dir"] = out_dir
    return total


def _encode_files_fn(batch: pa.Table, *, opts, out_dir, max_group_rows,
                     max_group_bytes, skip_names, columns):
    """Shard-to-shard task: reads its assigned input files directly with
    pyarrow (bytes never enter the object store) and writes one part per
    input file. Part names derive from the input file name, so resume is
    keyed on input identity."""
    import pyarrow.parquet as pq

    for path in batch.column("path").to_pylist():
        base = os.path.splitext(os.path.basename(path))[0]
        # suffix with a hash of the absolute path: two inputs sharing a
        # basename in different directories must not collide on one
        # output part (resume stays keyed on input identity)
        base = f"{base}-{hashlib.sha1(os.path.abspath(path).encode()).hexdigest()[:8]}"
        fname = f"part-{base}.parquet"
        fpath = _join_out(out_dir, fname)
        exists, size = (_part_exists_size(fpath) if base in skip_names
                        else (False, 0))
        if base in skip_names and exists:
            from ..state import fsio as _fsio

            yield pa.table({
                "part_id": [base], "file": [fname],
                # footer-only read: resumed runs report true row counts
                "rows": pa.array([_fsio.parquet_num_rows(fpath)],
                                 type=pa.int64()),
                "compressed_bytes": pa.array([size], type=pa.int64()),
                "uncompressed_bytes": pa.array([0], type=pa.int64()),
                "skipped": [True],
                "manifest": pa.array([None], type=pa.large_binary()),
            })
            continue
        table = normalize_table(pq.read_table(path, columns=columns))
        schema_ir = schema_from_arrow(table.schema, opts.schema_overrides)
        leaves = leaf_columns(schema_ir)
        raw = 0
        recs = []
        with _part_sink(fpath) as sink:
            asm = FileAssembler(sink, schema_ir, opts)
            for group in split_row_groups(table, max_group_rows, max_group_bytes):
                blob, meta = encode_row_group(group, schema_ir, leaves, opts)
                asm.append_group(blob, meta)
                raw += meta.total_byte_size
                recs.append(record_from_meta(base, meta, len(blob), file=fname))
            asm.finish()
        LineageLog(out_dir).write_part_record(base, recs)
        yield pa.table({
            "part_id": [base], "file": [fname],
            "rows": pa.array([table.num_rows], type=pa.int64()),
            "compressed_bytes": pa.array([asm.offset], type=pa.int64()),
            "uncompressed_bytes": pa.array([raw], type=pa.int64()),
            "skipped": [False],
            "manifest": pa.array([pickle.dumps(recs)], type=pa.large_binary()),
        })


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
    throughput shape for file-granular transforms). Resume keys on the
    input file name. ``columns`` prunes the read."""
    import ray.data

    opts = opts or WriteOptions()
    from ..state import fsio as _fsio_drv

    _fsio_drv.makedirs(out_dir)
    if not _fsio_drv.is_uri(out_dir):
        _clean_stale_tmps(out_dir)  # URIs have no tmp files by design
    # legacy-name migration: parts used to be named part-<base>.parquet
    # (no path-hash suffix). Resuming into such an out_dir re-encodes
    # every shard under the hashed name and would leave the old files
    # alongside the new ones, so part-*.parquet consumers would read
    # duplicate rows. Remove exactly THIS run's inputs' legacy-named
    # parts (never unrelated files) before the skip set is built.
    legacy = {f"part-{os.path.splitext(os.path.basename(p))[0]}.parquet"
              for p in input_paths}
    # ONE listing, not one DELETE round trip per input: at 100k shards
    # against an object store the per-input remove() is 100k serial
    # requests on every run, almost all for names that don't exist
    existing = {f.rsplit("/", 1)[-1] if _fsio_drv.is_uri(f)
                else os.path.basename(f)
                for f in _fsio_drv.glob_in(out_dir, "part-*.parquet")}
    for name in sorted(legacy & existing):
        _fsio_drv.remove(_join_out(out_dir, name))
    lineage = LineageLog(out_dir)
    done = lineage.completed_files() if resume else {}
    skip = frozenset(f[5:-8] for f in done)

    paths_ds = ray.data.from_items(
        [{"path": p} for p in sorted(input_paths)],
        override_num_blocks=len(input_paths),
    )
    manifest_ds = paths_ds.map_batches(
        partial(
            _encode_files_fn,
            opts=opts, out_dir=out_dir, max_group_rows=max_group_rows,
            max_group_bytes=max_group_bytes, skip_names=skip, columns=columns,
        ),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    )
    total = _drain_manifests(manifest_ds, lineage, {
        "parts": 0, "rows": 0, "compressed_bytes": 0,
        "uncompressed_bytes": 0, "skipped_parts": 0}, done)
    total["out_dir"] = out_dir
    return total


def write_parquet_dataset(
    ds,
    out_dir: str,
    opts: Optional[WriteOptions] = None,
    *,
    concurrency=None,
    max_group_rows: int = DEFAULT_GROUP_ROWS,
    max_group_bytes: int = DEFAULT_GROUP_BYTES,
    resume: bool = True,
    use_actors: bool = False,
    part_rows: Optional[int] = None,
    repartition_blocks: Optional[int] = None,
    sort_by=None,
) -> dict:
    """Partitioned parquet output with lineage manifest + resume.

    For maximum throughput feed this a dataset from
    :func:`read_parquet_fused`: the read then fuses with the encode into
    one task and input bytes never transit the object store
    (measured 3.8x end-to-end, BASELINE.md).

    Each input block becomes ``part-<content_hash>.parquet``; reruns of
    the same input skip parts whose files already exist (verified
    through the manifest), giving partition-granular resumability.

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
    if repartition_blocks:
        ds = ds.repartition(repartition_blocks)
    from ..state import fsio as _fsio_drv

    _fsio_drv.makedirs(out_dir)
    if not _fsio_drv.is_uri(out_dir):
        _clean_stale_tmps(out_dir)  # URIs have no tmp files by design
    arrow_schema = _normalized_arrow_schema(ds)
    lineage = LineageLog(out_dir)
    # part-file completion is keyed by the batch-level part id (stored
    # in the 'file' name), not row-group ids
    done = lineage.completed_files() if resume else {}
    skip = frozenset(f[5:-8] for f in done)

    part_kwargs = dict(
        opts=opts,
        arrow_schema=arrow_schema,
        out_dir=out_dir,
        max_group_rows=max_group_rows,
        max_group_bytes=max_group_bytes,
        skip_part_ids=skip,
        sort_by=sort_by,
    )
    if use_actors:
        manifest_ds = ds.map_batches(
            PartFileWriter,
            fn_constructor_kwargs=part_kwargs,
            batch_format="pyarrow", batch_size=part_rows, zero_copy_batch=True,
            concurrency=_default_concurrency(concurrency),
        )
    else:
        manifest_ds = ds.map_batches(
            partial(_encode_part_fn, **part_kwargs),
            batch_format="pyarrow", batch_size=part_rows, zero_copy_batch=True,
            concurrency=_task_concurrency(concurrency),
        )

    total = _drain_manifests(manifest_ds, lineage, {
        "parts": 0, "rows": 0, "compressed_bytes": 0,
        "uncompressed_bytes": 0, "skipped_parts": 0}, done)
    total["out_dir"] = out_dir
    return total


def _compact_group_fn(batch: pa.Table, *, opts, out_dir, max_group_rows,
                      max_group_bytes, skip_ids, columns):
    """Compaction task: reads its bucket's input files directly (no
    object-store hop), concatenates, re-encodes as ONE part file."""
    import pyarrow.parquet as pq

    for row in range(batch.num_rows):
        paths = batch.column("paths")[row].as_py()
        gid = batch.column("group_id")[row].as_py()
        fname = f"part-{gid}.parquet"
        fpath = _join_out(out_dir, fname)
        exists, size = (_part_exists_size(fpath) if gid in skip_ids
                        else (False, 0))
        if gid in skip_ids and exists:
            from ..state import fsio as _fsio

            yield pa.table({
                "part_id": [gid], "file": [fname],
                # footer-only read: resumed runs report true row counts
                "rows": pa.array([_fsio.parquet_num_rows(fpath)],
                                 type=pa.int64()),
                "compressed_bytes": pa.array([size], type=pa.int64()),
                "uncompressed_bytes": pa.array([0], type=pa.int64()),
                "skipped": [True],
                "manifest": pa.array([None], type=pa.large_binary()),
            })
            continue
        table = pa.concat_tables(
            normalize_table(pq.read_table(p, columns=columns)) for p in paths
        )
        schema_ir = schema_from_arrow(table.schema, opts.schema_overrides)
        leaves = leaf_columns(schema_ir)
        raw = 0
        recs = []
        with _part_sink(fpath) as sink:
            asm = FileAssembler(sink, schema_ir, opts)
            for group in split_row_groups(table, max_group_rows, max_group_bytes):
                blob, meta = encode_row_group(group, schema_ir, leaves, opts)
                asm.append_group(blob, meta)
                raw += meta.total_byte_size
                recs.append(record_from_meta(gid, meta, len(blob), file=fname))
            asm.finish()
        LineageLog(out_dir, name=COMPACT_LINEAGE).write_part_record(gid, recs)
        yield pa.table({
            "part_id": [gid], "file": [fname],
            "rows": pa.array([table.num_rows], type=pa.int64()),
            "compressed_bytes": pa.array([asm.offset], type=pa.int64()),
            "uncompressed_bytes": pa.array([raw], type=pa.int64()),
            "skipped": [False],
            "manifest": pa.array([pickle.dumps(recs)], type=pa.large_binary()),
        })


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
    the member file names + sizes, so resume skips finished buckets and
    any input change re-runs its bucket."""
    import glob as _glob

    import ray.data

    opts = opts or WriteOptions()
    if isinstance(input_paths, str):
        input_paths = sorted(_glob.glob(os.path.join(
            _glob.escape(input_paths), "*.parquet")))
    files = [(p, os.path.getsize(p)) for p in sorted(input_paths)]
    buckets: list[list[str]] = []
    cur: list[str] = []
    cur_bytes = 0
    for p, sz in files:
        if cur and cur_bytes + sz > target_part_bytes:
            buckets.append(cur)
            cur, cur_bytes = [], 0
        cur.append(p)
        cur_bytes += sz
    if cur:
        buckets.append(cur)

    def bucket_id(paths: list[str]) -> str:
        # name + size + mtime_ns: regenerating an input file changes its
        # mtime even when the size is preserved, so the bucket re-runs.
        # (A same-size same-mtime in-place byte edit would still be
        # missed — full-content ids would need a read pass per resume.)
        h = hashlib.sha1()
        for p in paths:
            st = os.stat(p)
            h.update(os.path.basename(p).encode())
            h.update(str(st.st_size).encode())
            h.update(str(st.st_mtime_ns).encode())
        return h.hexdigest()[:16]

    # refuse in-place compaction: with out_dir == input dir the stale-part
    # GC below would delete the input files themselves after the first run
    out_real = os.path.realpath(out_dir)
    for p, _ in files:
        if os.path.realpath(p).startswith(out_real + os.sep):
            raise ValueError(
                f"compact_parquet_dataset: input file {p} lies inside "
                f"out_dir {out_dir}; compaction must not write in place"
            )

    from ..state import fsio as _fsio_drv

    _fsio_drv.makedirs(out_dir)
    if not _fsio_drv.is_uri(out_dir):
        _clean_stale_tmps(out_dir)  # URIs have no tmp files by design
    lineage = LineageLog(out_dir, name=COMPACT_LINEAGE)
    prior = lineage.completed_files()
    skip = frozenset(f[5:-8] for f in prior) if resume else frozenset()

    items = [{"group_id": bucket_id(b), "paths": b} for b in buckets]
    gds = ray.data.from_items(items, override_num_blocks=max(len(items), 1))
    manifest_ds = gds.map_batches(
        partial(
            _compact_group_fn,
            opts=opts, out_dir=out_dir, max_group_rows=max_group_rows,
            max_group_bytes=max_group_bytes, skip_ids=skip, columns=columns,
        ),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    )
    total = _drain_manifests(manifest_ds, lineage, {
        "parts": 0, "rows": 0, "compressed_bytes": 0,
        "uncompressed_bytes": 0, "skipped_parts": 0,
        "input_files": len(files)}, prior)
    # garbage-collect parts from superseded bucket layouts: a changed
    # input produces a NEW bucket id, and without cleanup the stale
    # part would keep serving the old rows alongside the new ones.
    # Only files THIS compactor's lineage recorded are candidates —
    # pre-existing files it never wrote are left untouched.
    expected = {f"part-{it['group_id']}.parquet" for it in items}
    removed = 0
    for f in set(prior) - expected:
        fp = _join_out(out_dir, f)
        if _part_exists_size(fp)[0]:
            _fsio_drv.remove(fp)
            removed += 1
    total["removed_stale_parts"] = removed
    total["out_dir"] = out_dir
    return total
