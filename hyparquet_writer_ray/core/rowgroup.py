"""Row-group encoding: one Arrow table (block) -> one relocatable blob
containing every leaf's column chunk, plus metadata with relative
offsets (reference: src/parquet-writer.js:63-144). This is the pure
function each Ray encode task runs. The blob travels as its parts, a
list of buffers written in order (each chunk's, as encoded), and is
joined only where it leaves the process.

:func:`dumps` / :func:`loads`: the one serialized form of an encoded row
group (single-file stage rows, checkpoint blobs): the blob, a Thrift
struct, its u32 length, :data:`TRAILER`. Field 1 is the footer's
``RowGroup`` (offsets relative to the blob); 2-4 list each chunk's
``ColumnIndex``, chunk-relative ``OffsetIndex`` and bloom, ``{}``/``b""`` if none."""
from __future__ import annotations

import struct
from dataclasses import dataclass

import pyarrow as pa

from .chunk import ChunkMeta, ColumnIndexData, PageLocation, encode_chunk
from .footer import AbsoluteChunk, column_index_thrift, offset_index_thrift, row_group_thrift
from .geo import GeoStats
from .nested import nested_leaf_arrays
from .options import WriteOptions
from .statistics import Stats
from .thrift import CompactReader, serialize
from .types import LeafInfo, SchemaElement

TRAILER = b"HRG1"


@dataclass
class RowGroupMeta:
    num_rows: int
    # (chunk offset within group blob, ChunkMeta) per leaf, schema order
    chunks: list[tuple[int, ChunkMeta]]
    total_byte_size: int  # uncompressed
    total_compressed_size: int


def encode_row_group(
    table: pa.Table,
    schema_ir: list[SchemaElement],
    leaves: list[LeafInfo],
    opts: WriteOptions,
) -> tuple[list[memoryview], RowGroupMeta]:
    """The group's blob as its chunk blobs, in schema order, and its
    metadata."""
    parts: list[memoryview] = []
    chunks: list[tuple[int, ChunkMeta]] = []
    pos = 0
    total_uncomp = 0

    # leaves are in schema (preorder) order; top-level column name is path[0]
    leaf_arrays = _leaf_arrays(table, leaves)
    for leaf, arr_and_levels in zip(leaves, leaf_arrays):
        key = ".".join(leaf.path)
        spec = opts.column_specs.get(key) or opts.spec(leaf.path[0])
        blob, meta = encode_chunk(arr_and_levels, leaf, spec, opts)
        parts.append(blob)
        chunks.append((pos, meta))
        pos += len(blob)
        total_uncomp += meta.total_uncompressed_size

    return parts, RowGroupMeta(
        num_rows=table.num_rows,
        chunks=chunks,
        total_byte_size=total_uncomp,
        total_compressed_size=pos,
    )


def dumps(parts: list, meta: RowGroupMeta) -> bytes:
    """The blob ``parts`` and ``meta`` as one relocatable byte string,
    joined once."""
    cms = [cm for _, cm in meta.chunks]
    struct_bytes = serialize({
        1: row_group_thrift([AbsoluteChunk(cm, rel) for rel, cm in meta.chunks],
                            meta.total_byte_size, meta.num_rows,
                            total_compressed_size=meta.total_compressed_size),
        2: [{} if c.column_index is None else column_index_thrift(c.column_index)
            for c in cms],
        3: [{} if c.offset_index is None else offset_index_thrift(c.offset_index)
            for c in cms],
        4: [cm.bloom or b"" for cm in cms],
    })
    return b"".join((*parts, struct_bytes, len(struct_bytes).to_bytes(4, "little"), TRAILER))


def loads(data) -> tuple[list[memoryview], RowGroupMeta]:
    """The ``(parts, meta)`` of :func:`dumps`'s bytes, the blob one part,
    a view of ``data``; ``ValueError`` for any other bytes."""
    mv = memoryview(data).cast("B")
    end = len(mv) - 8
    if end < 0 or mv[end + 4:] != TRAILER:
        raise ValueError("not a row group: no trailer")
    start = end - int.from_bytes(mv[end:end + 4], "little")
    try:
        if start < 0:
            raise ValueError("length past the start")
        r = CompactReader(mv[start:end])
        s = r.read_struct()
        rg, cis, ois, blooms = s[1], s[2], s[3], s[4]
        if r.pos != end - start or rg[6] != start or not (
                len(rg[1]) == len(cis) == len(ois) == len(blooms)):
            raise ValueError("inconsistent lengths")
        chunks = [_chunk(*c) for c in zip(rg[1], cis, ois, blooms)]
    except (LookupError, TypeError, AttributeError, ValueError, RecursionError,
            struct.error) as e:  # any parse failure: the bytes are not a group
        raise ValueError(f"not a row group: {e!r}") from None
    return [mv[:start]], RowGroupMeta(num_rows=rg[3], chunks=chunks, total_byte_size=rg[2],
                                    total_compressed_size=rg[6])


def _chunk(cc: dict, ci: dict, oi: dict, bloom: bytes) -> tuple[int, ChunkMeta]:
    """Inverse of ``AbsoluteChunk(cm, rel).thrift()`` and the index builders."""
    rel, md = cc[2], cc[3]
    st, geo = md.get(12), md.get(17)
    return rel, ChunkMeta(
        path=[p.decode() for p in md[3]], ptype=md[1], encodings=md[2],
        codec=md[4], num_values=md[5], total_compressed_size=md[7],
        total_uncompressed_size=md[6], data_page_offset=md[9] - rel,
        dictionary_page_offset=md[11] - rel if 11 in md else None,
        stats=Stats(min_bytes=st.get(6), max_bytes=st.get(5), null_count=st[3],
                    is_min_exact=st.get(8), is_max_exact=st.get(7)) if st else None,
        encoding_stats=[(e[1], e[2], e[3]) for e in md[13]] if 13 in md else None,
        column_index=ColumnIndexData(ci[1], ci[2], ci[3], ci[5], ci[4]) if ci else None,
        offset_index=[PageLocation(p[1], p[2], p[3]) for p in oi[1]] if oi else None,
        bloom=bloom or None,
        kv_metadata=[(e[1].decode(), e[2].decode()) for e in md[8]] if 8 in md else None,
        geo_stats=GeoStats(*((geo.get(1) or {}).get(i) for i in range(1, 9)),
                           geospatial_types=geo[2]) if geo else None,
    )


def _leaf_arrays(table: pa.Table, leaves: list[LeafInfo]):
    """Resolve each leaf to its values array (+ levels for nested columns)."""
    out = []
    cols_by_name = {name: col for name, col in zip(table.column_names, table.columns)}
    if len(cols_by_name) != table.num_columns:
        # a name-keyed lookup would silently write one column's data into
        # every same-named chunk
        raise ValueError("duplicate top-level column names are unsupported")
    nested_cache: dict[str, list] = {}
    for leaf in leaves:
        top = leaf.path[0]
        col = cols_by_name[top]
        if len(leaf.path) == 1 and leaf.max_repetition_level == 0:
            out.append(col)
        else:
            # nested column: expand all of its leaves once, then consume
            if top not in nested_cache:
                nested_cache[top] = nested_leaf_arrays(col, [l for l in leaves if l.path[0] == top])
            out.append(nested_cache[top].pop(0))
    return out
