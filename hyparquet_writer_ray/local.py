"""Single-process writer API — the reference's entry points re-expressed
over Arrow tables (parquetWrite / parquetWriteBuffer / ParquetWriter /
parquetWriteRows; reference src/write.js:16-72, src/write-rows.js:36-178,
src/parquet-writer.js:18-216).

Every writer takes a file object or a path, local or an fsspec URI,
written atomically (``fsio.open_output``), and cuts row groups by the
one schedule rule, :func:`group_sizes`.

The distributed path (pipelines.write) reuses the same encode_row_group /
FileAssembler primitives; this module is the local harness used by tests
and small files.
"""
from __future__ import annotations

import io
import os
from itertools import chain, repeat
from typing import BinaryIO, Iterable, Iterator, Optional, Union

import pyarrow as pa

from .core.assemble import FileAssembler
from .core.options import WriteOptions
from .core.rowgroup import encode_row_group
from .core.schema import normalize_table, schema_from_arrow
from .core.types import SchemaElement, leaf_columns
from .state import fsio


def group_sizes(schedule) -> Iterator[int]:
    """The reference's rowGroupSize schedule as an endless stream of
    row-group sizes: entries are consumed in order and the last one
    repeats (src/parquet-writer.js:202-216)."""
    if isinstance(schedule, int):
        schedule = (schedule,)
    if len(schedule) == 0 or any(int(x) < 1 for x in schedule):
        raise ValueError(
            f"row_group_size entries must be >= 1, got {schedule!r}")
    return chain(schedule, repeat(schedule[-1]))


def row_group_slices(num_rows: int, sizes: Iterator[int]) -> list[tuple[int, int]]:
    """Row ranges of a ``num_rows`` table, one per size drawn from
    ``sizes`` (a :func:`group_sizes` stream)."""
    out = []
    start = 0
    while start < num_rows:
        stop = min(start + next(sizes), num_rows)
        out.append((start, stop))
        start = stop
    return out


class ParquetWriter:
    """Incremental writer: call ``write(table)`` repeatedly, then ``finish()``
    (reference src/parquet-writer.js:18 exported class)."""

    def __init__(
        self,
        sink: BinaryIO,
        schema: Union[pa.Schema, list[SchemaElement]],
        opts: Optional[WriteOptions] = None,
    ) -> None:
        self.opts = opts or WriteOptions()
        if isinstance(schema, pa.Schema):
            self.arrow_schema = schema
            self.schema_ir = schema_from_arrow(schema, self.opts.schema_overrides)
        else:
            self.arrow_schema = None
            self.schema_ir = schema
        self.leaves = leaf_columns(self.schema_ir)
        self.sizes = group_sizes(self.opts.row_group_size)
        self.assembler = FileAssembler(sink, self.schema_ir, self.opts)

    def write(self, table: pa.Table, split_row_groups: bool = True) -> None:
        """Append ``table`` cut by the schedule where the last write left
        it; unsplit, as one group that takes one schedule entry."""
        table = normalize_table(table)
        if split_row_groups:
            slices = row_group_slices(table.num_rows, self.sizes)
        else:
            next(self.sizes)
            slices = [(0, table.num_rows)]
        for (r0, r1) in slices:
            group = table.slice(r0, r1 - r0)
            self.assembler.append_group(
                *encode_row_group(group, self.schema_ir, self.leaves, self.opts))

    def finish(self) -> None:
        self.assembler.finish()


def write_table(
    table: pa.Table,
    sink: Union[str, os.PathLike, BinaryIO],
    opts: Optional[WriteOptions] = None,
) -> None:
    """Whole-table write (reference parquetWrite, src/write.js:16-60).
    A path ``sink`` (local or fsspec URI) is written atomically
    (``fsio.open_output``)."""
    table = normalize_table(table)
    with fsio.open_output(sink) as f:
        pw = ParquetWriter(f, table.schema, opts or WriteOptions())
        pw.write(table)
        pw.finish()


def write_table_to_bytes(table: pa.Table, opts: Optional[WriteOptions] = None) -> bytes:
    """reference parquetWriteBuffer (src/write.js:68-72)."""
    sink = io.BytesIO()
    write_table(table, sink, opts)
    return sink.getvalue()


_INT32_MIN, _INT32_MAX = -(2 ** 31), 2 ** 31 - 1

# (current, new) -> widened; anything not listed and not equal is a
# mixed-type error, matching the reference's single INT32<->DOUBLE
# widening rule (src/schema.js:224-230)
_WIDEN = {
    ("INT32", "DOUBLE"): "DOUBLE",
    ("DOUBLE", "INT32"): "DOUBLE",
    # Python-only: int covers both the reference's integer-Number
    # (INT32) and bigint (INT64); out-of-range ints widen within int
    ("INT32", "INT64"): "INT64",
    ("INT64", "INT32"): "INT64",
}

_KIND_TO_ARROW = {
    "BOOLEAN": pa.bool_(),
    "INT32": pa.int32(),
    "INT64": pa.int64(),
    "DOUBLE": pa.float64(),
    "BYTE_ARRAY": pa.binary(),
    "UTF8": pa.string(),
    "TIMESTAMP": pa.timestamp("ms"),
    "JSON": pa.string(),
}


def _classify_value(v) -> str:
    import datetime as _dt

    if isinstance(v, bool):  # before int: bool is an int subclass
        return "BOOLEAN"
    if isinstance(v, int):
        return "INT32" if _INT32_MIN <= v <= _INT32_MAX else "INT64"
    if isinstance(v, float):
        return "DOUBLE"
    if isinstance(v, (bytes, bytearray)):
        return "BYTE_ARRAY"
    if isinstance(v, str):
        return "UTF8"
    if isinstance(v, _dt.datetime):
        return "TIMESTAMP"
    if isinstance(v, (dict, list, tuple)):
        return "JSON"
    raise TypeError(f"cannot determine parquet type for: {v!r}")


def auto_schema_from_rows(
    sample: list[dict], columns: Optional[list[str]] = None
) -> tuple[pa.Schema, list[str]]:
    """Value-based schema inference with the reference's semantics
    (autoSchemaElement, src/schema.js:173-241; sampling cap of 1000
    values per column from src/schema.js:65):

    - first-1000 value sampling per column
    - a null (or missing key) makes the column OPTIONAL
    - INT32 + DOUBLE widens to DOUBLE; any other mix raises
      ``parquet cannot write mixed types``
    - an all-null column falls back to OPTIONAL BYTE_ARRAY
    - dict/list values follow the reference's object path: stored as
      compact JSON text with the JSON annotation

    Python deviation (documented): Python int plays both the
    reference's integer Number (INT32) and bigint (INT64) — ints
    outside int32 range widen the column to INT64 instead of erroring.

    Returns ``(arrow_schema, json_columns)``; callers must JSON-encode
    the listed columns' values and add a JSON schema override (both
    handled by :func:`write_rows`).
    """
    if columns is None:
        columns = []
        seen = set()
        for row in sample:
            for k in row:
                if k not in seen:
                    seen.add(k)
                    columns.append(k)
    fields = []
    json_cols: list[str] = []
    for name in columns:
        kind: Optional[str] = None
        nullable = False
        n_seen = 0
        for row in sample:
            if n_seen >= 1000:
                break
            v = row.get(name)
            n_seen += 1
            if v is None:
                nullable = True
                continue
            vk = _classify_value(v)
            if kind is None:
                kind = vk
            elif kind != vk:
                widened = _WIDEN.get((kind, vk))
                if widened is None:
                    raise ValueError(
                        f"parquet cannot write mixed types: {kind} and {vk}"
                    )
                kind = widened
        if kind is None:
            kind = "BYTE_ARRAY"  # all-null fallback (src/schema.js:236-240)
            nullable = True
        if kind == "JSON":
            json_cols.append(name)
        fields.append(pa.field(name, _KIND_TO_ARROW[kind], nullable=nullable))
    return pa.schema(fields), json_cols


def _json_override(name: str):
    from .core.types import ConvertedType, LogicalType, ParquetType, SchemaElement

    return SchemaElement(
        name, type=ParquetType.BYTE_ARRAY,
        converted_type=ConvertedType.JSON, logical_type=LogicalType("JSON"),
    )


class _RowGroupBuffer:
    """Shared engine for the sync and async row sources: buffers one
    row-group window at a time (reference parquetWriteRows,
    src/write-rows.js:36-178; drainAsync src/write-rows.js:142-156).
    Peak memory is one window regardless of total rows; the first
    window fixes the schema (value inference if none given)."""

    def __init__(self, f: BinaryIO, schema: Optional[pa.Schema],
                 opts: WriteOptions, columns: Optional[list[str]]) -> None:
        self.f = f
        self.schema = schema
        self.opts = opts
        self.columns = columns
        self.json_cols: list[str] = []
        self.sizes = group_sizes(opts.row_group_size)
        self.window: list[dict] = []
        self.target = next(self.sizes)
        self.pw: Optional[ParquetWriter] = None

    def feed(self, row: dict) -> None:
        self.window.append(row)
        if len(self.window) >= self.target:
            self.flush()

    def flush(self) -> None:
        if not self.window:
            return
        if self.schema is None:
            self.schema, self.json_cols = auto_schema_from_rows(
                self.window[:1000], self.columns
            )
            if self.json_cols:
                import dataclasses

                self.opts = dataclasses.replace(
                    self.opts,
                    schema_overrides={
                        **{c: _json_override(c) for c in self.json_cols},
                        **self.opts.schema_overrides,
                    },
                )
        rows = self.window
        if self.json_cols:
            import json as _json

            rows = [
                {
                    **r,
                    **{
                        c: None if r.get(c) is None
                        else _json.dumps(r[c], separators=(",", ":"), ensure_ascii=False)
                        for c in self.json_cols
                    },
                }
                for r in rows
            ]
        table = pa.Table.from_pylist(rows, schema=self.schema)
        table = normalize_table(table)
        if self.pw is None:
            self.pw = ParquetWriter(self.f, table.schema, self.opts)
        self.pw.write(table, split_row_groups=False)
        self.window = []
        self.target = next(self.sizes)

    def finish(self) -> None:
        self.flush()
        if self.pw is None:
            # zero rows: emit a valid empty file (src/write-rows.js:162-172)
            if self.schema is None:
                raise ValueError("zero rows and no schema: cannot write empty file")
            self.pw = ParquetWriter(self.f, self.schema, self.opts)
        self.pw.finish()


def write_rows(
    rows: Iterable[dict],
    sink: Union[str, os.PathLike, BinaryIO],
    schema: Optional[pa.Schema] = None,
    opts: Optional[WriteOptions] = None,
    columns: Optional[list[str]] = None,
) -> None:
    """Streaming row-dict source (reference parquetWriteRows,
    src/write-rows.js:36-178). ``columns`` optionally fixes column
    names/order (the reference requires it; here it defaults to
    first-seen key order). Without ``schema``, types are inferred from
    the first window with the reference's value-inference semantics
    (see :func:`auto_schema_from_rows`). A path ``sink`` (local or
    fsspec URI) is written atomically (``fsio.open_output``): if
    ``rows`` raises, no file is left at it."""
    with fsio.open_output(sink) as f:
        buf = _RowGroupBuffer(f, schema, opts or WriteOptions(), columns)
        for row in rows:
            buf.feed(row)
        buf.finish()


async def write_rows_async(
    rows,
    sink: Union[str, os.PathLike, BinaryIO],
    schema: Optional[pa.Schema] = None,
    opts: Optional[WriteOptions] = None,
    columns: Optional[list[str]] = None,
) -> None:
    """Async-iterable row source (reference drainAsync,
    src/write-rows.js:142-156): rows are pulled one group at a time —
    each group's write completes before the next is pulled, so a lazy
    source (DB cursor, stream) is never read ahead of the writer.
    Byte-identical output to :func:`write_rows` on the same rows."""
    with fsio.open_output(sink) as f:
        buf = _RowGroupBuffer(f, schema, opts or WriteOptions(), columns)
        async for row in rows:
            buf.feed(row)
        buf.finish()
