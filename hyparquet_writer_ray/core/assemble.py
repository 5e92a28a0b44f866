"""Single stateful file assembler: rebases relocatable row-group blobs
to absolute offsets and writes PAR1 + groups + page indexes + blooms +
footer (replaces the reference's absolute ``writer.offset`` coupling,
src/parquet-writer.js:28-175; see SURVEY.md §3.4).
"""
from __future__ import annotations

from typing import BinaryIO

from .bufwriter import BufWriter
from .footer import (
    AbsoluteChunk,
    column_index_thrift,
    offset_index_thrift,
    resolve_sorting_columns,
    row_group_thrift,
    write_footer,
)
from .options import WriteOptions
from .rowgroup import RowGroupMeta
from .thrift import serialize
from .types import SchemaElement

MAGIC = b"PAR1"


class FileAssembler:
    """Accumulates ordered row groups into one parquet file."""

    def __init__(self, sink: BinaryIO, schema_ir: list[SchemaElement], opts: WriteOptions) -> None:
        self.sink = sink
        self.schema_ir = schema_ir
        self.opts = opts
        self.offset = 0
        self.num_rows = 0
        self.groups: list[tuple[list[AbsoluteChunk], RowGroupMeta, int]] = []
        self._write(MAGIC)

    def _write(self, data: "bytes | memoryview") -> None:
        self.sink.write(data)
        self.offset += len(data)

    def append_group(self, parts: list, meta: RowGroupMeta) -> None:
        """Write the group's blob, given as its parts in order."""
        group_offset = self.offset
        abs_chunks = [
            AbsoluteChunk(cm, group_offset + rel) for rel, cm in meta.chunks
        ]
        for part in parts:
            self._write(part)
        self.num_rows += meta.num_rows
        self.groups.append((abs_chunks, meta, group_offset))

    def finish(self) -> None:
        # 1. ColumnIndexes then 2. OffsetIndexes then 3. blooms then 4. footer
        # (order per reference src/parquet-writer.js:151-175)
        for chunks, _, _ in self.groups:
            for c in chunks:
                if c.meta.column_index is not None:
                    c.column_index_offset = self.offset
                    self._write(serialize(column_index_thrift(c.meta.column_index)))
                    c.column_index_length = self.offset - c.column_index_offset
        for chunks, _, _ in self.groups:
            for c in chunks:
                if c.offset_index_abs is not None:
                    c.offset_index_offset = self.offset
                    self._write(serialize(offset_index_thrift(c.offset_index_abs)))
                    c.offset_index_length = self.offset - c.offset_index_offset
        for chunks, _, _ in self.groups:
            for c in chunks:
                if c.meta.bloom is not None:
                    c.bloom_filter_offset = self.offset
                    c.bloom_filter_length = len(c.meta.bloom)
                    self._write(c.meta.bloom)

        sort_cols = resolve_sorting_columns(
            self.schema_ir, self.opts.sorting_columns
        )
        rg_structs = [
            row_group_thrift(
                chunks,
                total_byte_size=meta.total_byte_size,
                num_rows=meta.num_rows,
                file_offset=group_offset,
                total_compressed_size=meta.total_compressed_size,
                sorting_columns=sort_cols,
            )
            for chunks, meta, group_offset in self.groups
        ]
        num_leaves = (
            len(self.groups[0][0]) if self.groups
            else sum(1 for el in self.schema_ir[1:] if el.is_leaf)
        )
        w = BufWriter()
        write_footer(
            w, self.schema_ir, rg_structs, self.num_rows,
            self.opts.kv_metadata, self.opts.created_by, num_leaves,
        )
        self._write(w.getvalue())
