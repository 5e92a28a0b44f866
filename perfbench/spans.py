"""Span recording for the traced benchmark run.

Wrappers are installed around the calls into each layer of
``hyparquet_writer_ray``. Each name is patched in the module that calls
it (``core.rowgroup.encode_chunk``, ``core.chunk.compress``, ...), because
patching only the defining module misses a name imported with
``from ... import``. Methods are patched on their class, which every
caller shares.

A span is ``[id, parent_id, name, start_ns, end_ns, counts]``. Spans stay
in memory. The benchmark process writes its spans out when the run ends.
A Ray worker cannot be reached at the end of the run, so it appends its
finished spans to ``<PERFBENCH_TRACE_DIR>/spans-<pid>.jsonl`` each time
its span stack empties, which happens before each map task hands its
output block back to Ray. The clock is ``time.perf_counter_ns``, which is
CLOCK_MONOTONIC on Linux and so is shared by every process on the host.
"""
from __future__ import annotations

import functools
import glob
import json
import os
import time
from collections import defaultdict

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Recorder:
    """Per-process span store. ``sink`` (worker side) is the file that
    finished spans are appended to whenever no span is open."""

    def __init__(self, sink: str | None = None) -> None:
        self.sink = sink
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.next_id = 0

    def open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        rec = [self.next_id, parent, name, time.perf_counter_ns(), 0, None]
        self.next_id += 1
        self.stack.append(rec)
        return rec

    def close(self, rec: list, counts: dict | None = None) -> None:
        rec[4] = time.perf_counter_ns()
        rec[5] = counts
        self.stack.pop()
        self.spans.append(rec)
        if self.sink is not None and not self.stack:
            self.flush()

    def innermost(self) -> str | None:
        return self.stack[-1][2] if self.stack else None

    def flush(self, path: str | None = None) -> None:
        path = path or self.sink
        with open(path, "a") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
        self.spans = []


def _wrap(rec: Recorder, fn, name, count=None, skip_under=None):
    """Plain call: one span. ``name`` may be a function of the call's
    arguments; ``count(args, result)`` returns the span's counts; a call
    made while the innermost open span is ``skip_under`` gets no span of
    its own, so its time stays with that caller."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if skip_under is not None and rec.innermost() == skip_under:
            return fn(*args, **kwargs)
        span = rec.open(name(args) if callable(name) else name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            rec.close(span, count(args, out) if count and out is not None else None)

    wrapper.__perfbench_orig__ = fn
    return wrapper


def _wrap_gen(rec: Recorder, fn, name):
    """Generator function: one span per resumption, so the time the
    consumer holds the generator suspended is not counted."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            span = rec.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                rec.close(span)
            yield item

    wrapper.__perfbench_orig__ = fn
    return wrapper


def _chunk_counts(args, out) -> dict:
    """encode_chunk(col, leaf, spec, opts) -> (blob, ChunkMeta)."""
    from hyparquet_writer_ray.core.types import Encoding, ParquetType

    _, leaf, spec, _ = args[:4]
    meta = out[1]
    data_pages = [n for kind, _, n in (meta.encoding_stats or []) if kind == 3]
    pages = sum(data_pages) if data_pages else (
        len(meta.offset_index) if meta.offset_index else 1)
    trial = spec.encoding is None and leaf.element.type != ParquetType.BOOLEAN
    return {
        "pages": pages,
        "dict_trials": int(trial),
        "dict_accepted": int(trial and int(Encoding.RLE_DICTIONARY) in meta.encodings),
    }


def _targets():
    """(owner, attribute, kind, span name, counts, skip_under) for every
    patched call site. ``owner`` is a module or a class."""
    import hyparquet_writer_ray.core.chunk as chunk
    import hyparquet_writer_ray.core.fsst as fsst
    import hyparquet_writer_ray.core.rowgroup as rowgroup
    import hyparquet_writer_ray.local as local
    import hyparquet_writer_ray.pipelines.write as write
    import hyparquet_writer_ray.state.fsio as fsio
    from hyparquet_writer_ray.core.assemble import FileAssembler
    from hyparquet_writer_ray.state.lineage import LineageLog

    def io_bytes(args, out):
        return {"in": len(args[0]), "out": len(out)}

    delta = "core.delta.delta"
    return [
        (write.PartFileWriter, "__call__", "gen", "pipelines.write.part_writer", None, None),
        (write, "normalize_table", "fn", "core.schema.normalize_table", None, None),
        (local, "normalize_table", "fn", "core.schema.normalize_table", None, None),
        (write, "split_row_groups", "gen", "stages.encode.split_row_groups", None, None),
        (write, "content_part_id", "fn", "stages.encode.content_part_id",
         lambda a, out: {"bytes": a[0].nbytes}, None),
        (write, "encode_row_group", "fn", "core.rowgroup.encode_row_group", None, None),
        (local, "encode_row_group", "fn", "core.rowgroup.encode_row_group", None, None),
        (rowgroup, "encode_chunk", "fn",
         lambda a: "core.chunk.encode_chunk." + ".".join(a[1].path), _chunk_counts, None),
        (chunk, "compress", "fn", "core.compress.compress", io_bytes, None),
        (chunk, "delta_binary_pack", "fn", delta, None, None),
        (chunk, "delta_length_byte_array", "fn", delta, None, None),
        (chunk, "delta_byte_array", "fn", delta, None, None),
        (chunk, "encode_rle_hybrid", "fn", "core.rle.encode_rle_hybrid", None, None),
        (chunk, "compute_statistics", "fn", "core.statistics.compute_statistics", None, None),
        (fsst, "train", "fn", "core.fsst.train", None, None),
        # train() calls compress() on its sample; that time stays in train
        (fsst, "compress", "fn", "core.fsst.compress", io_bytes, "core.fsst.train"),
        (FileAssembler, "append_group", "fn", "core.assemble.append_group", None, None),
        (FileAssembler, "finish", "fn", "core.assemble.finish", None, None),
        (LineageLog, "write_part_record", "fn", "state.lineage.write_part_record", None, None),
        (LineageLog, "completed_parts", "fn", "state.lineage.completed_parts", None, None),
        (fsio, "exists", "fn", "state.fsio.exists", None, None),
    ]


def install(rec: Recorder) -> None:
    for owner, attr, kind, name, count, skip_under in _targets():
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if hasattr(fn, "__perfbench_orig__"):
            continue
        if kind == "gen":
            wrapped = _wrap_gen(rec, fn, name)
        else:
            wrapped = _wrap(rec, fn, name, count, skip_under)
        setattr(owner, attr, wrapped)


def uninstall() -> None:
    for owner, attr, *_ in _targets():
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        orig = getattr(fn, "__perfbench_orig__", None)
        if orig is not None:
            setattr(owner, attr, orig)


def install_worker() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker process."""
    path = os.path.join(os.environ[TRACE_DIR_ENV], f"spans-{os.getpid()}.jsonl")
    install(Recorder(sink=path))


def load(trace_dir: str) -> dict[str, list[list]]:
    """Every process's spans, keyed by the file they were written to."""
    out = {}
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as f:
            out[os.path.basename(path)] = [json.loads(line) for line in f]
    return out


def layer_totals(by_proc: dict[str, list[list]], t0: int, t1: int) -> tuple[dict, dict, dict]:
    """Self seconds and summed counts per span name, for the spans that
    start inside ``[t0, t1]``, plus the self seconds per process file.
    Self time is a span's duration minus that of its direct children."""
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    per_proc: dict[str, float] = defaultdict(float)
    for proc, spans in by_proc.items():
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _, start, end, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for sid, _, name, start, end, c in spans:
            if not t0 <= start <= t1:
                continue
            s = (end - start - child_ns[sid]) / 1e9
            self_s[name] += s
            per_proc[proc] += s
            counts[name + ".calls"] += 1
            for k, v in (c or {}).items():
                counts[f"{name}.{k}"] += v
    return dict(self_s), dict(counts), dict(per_proc)
