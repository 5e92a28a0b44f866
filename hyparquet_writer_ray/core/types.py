"""Parquet format enums and the SchemaElement IR.

Enum integer values are the Apache Parquet Thrift definition values
(parquet-format/src/main/thrift/parquet.thrift). The SchemaElement IR
mirrors the reference writer's flat preorder schema list
(reference: src/schema.js:17-70, src/metadata.js:21-32).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional


class ParquetType(IntEnum):
    BOOLEAN = 0
    INT32 = 1
    INT64 = 2
    INT96 = 3
    FLOAT = 4
    DOUBLE = 5
    BYTE_ARRAY = 6
    FIXED_LEN_BYTE_ARRAY = 7


class Encoding(IntEnum):
    PLAIN = 0
    PLAIN_DICTIONARY = 2
    RLE = 3
    BIT_PACKED = 4
    DELTA_BINARY_PACKED = 5
    DELTA_LENGTH_BYTE_ARRAY = 6
    DELTA_BYTE_ARRAY = 7
    RLE_DICTIONARY = 8
    BYTE_STREAM_SPLIT = 9


class Codec(IntEnum):
    UNCOMPRESSED = 0
    SNAPPY = 1
    GZIP = 2
    LZO = 3
    BROTLI = 4
    LZ4 = 5
    ZSTD = 6
    LZ4_RAW = 7


class Repetition(IntEnum):
    REQUIRED = 0
    OPTIONAL = 1
    REPEATED = 2


class ConvertedType(IntEnum):
    UTF8 = 0
    MAP = 1
    MAP_KEY_VALUE = 2
    LIST = 3
    ENUM = 4
    DECIMAL = 5
    DATE = 6
    TIME_MILLIS = 7
    TIME_MICROS = 8
    TIMESTAMP_MILLIS = 9
    TIMESTAMP_MICROS = 10
    UINT_8 = 11
    UINT_16 = 12
    UINT_32 = 13
    UINT_64 = 14
    INT_8 = 15
    INT_16 = 16
    INT_32 = 17
    INT_64 = 18
    JSON = 19
    BSON = 20
    INTERVAL = 21


class PageType(IntEnum):
    DATA_PAGE = 0
    INDEX_PAGE = 1
    DICTIONARY_PAGE = 2
    DATA_PAGE_V2 = 3


class BoundaryOrder(IntEnum):
    UNORDERED = 0
    ASCENDING = 1
    DESCENDING = 2


# Fixed-width byte sizes of physical types (BYTE_ARRAY/FLBA handled separately)
FIXED_WIDTH = {
    ParquetType.INT32: 4,
    ParquetType.INT64: 8,
    ParquetType.FLOAT: 4,
    ParquetType.DOUBLE: 8,
    ParquetType.INT96: 12,
}


@dataclass
class LogicalType:
    """Semantic logical type; serialized into the Thrift LogicalType union.

    ``kind`` is one of STRING MAP LIST ENUM DECIMAL DATE TIME TIMESTAMP
    INTEGER NULL JSON BSON UUID FLOAT16 VARIANT GEOMETRY GEOGRAPHY.
    ``params`` carries kind-specific fields (scale/precision, unit,
    isAdjustedToUTC, bitWidth, isSigned, crs, algorithm).
    """

    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class SchemaElement:
    """One element of the flat preorder parquet schema list."""

    name: str
    type: Optional[ParquetType] = None  # None for group nodes
    type_length: Optional[int] = None
    repetition: Optional[Repetition] = None  # None only for root
    num_children: Optional[int] = None
    converted_type: Optional[ConvertedType] = None
    scale: Optional[int] = None
    precision: Optional[int] = None
    field_id: Optional[int] = None
    logical_type: Optional[LogicalType] = None

    @property
    def is_leaf(self) -> bool:
        return not self.num_children


@dataclass
class LeafInfo:
    """A leaf column: its schema path and level bounds."""

    element: SchemaElement
    path: list[str]  # names, root excluded
    max_definition_level: int
    max_repetition_level: int
    # repetition of each path element (root excluded), for level walking
    repetitions: list[Repetition] = field(default_factory=list)

    @property
    def top_optional(self) -> bool:
        return self.repetitions[0] == Repetition.OPTIONAL


def leaf_columns(schema: list[SchemaElement]) -> list[LeafInfo]:
    """Walk the flat preorder schema and return leaves in order with their
    path names and max definition/repetition levels."""
    leaves: list[LeafInfo] = []
    pos = 0

    def visit(path, max_def, max_rep, reps) -> None:
        nonlocal pos
        el = schema[pos]
        pos += 1
        d, r = max_def, max_rep
        if el.repetition == Repetition.OPTIONAL:
            d += 1
        elif el.repetition == Repetition.REPEATED:
            d += 1
            r += 1
        new_path = path + [el.name]
        new_reps = reps + [el.repetition]
        if el.is_leaf:
            leaves.append(
                LeafInfo(
                    element=el,
                    path=new_path,
                    max_definition_level=d,
                    max_repetition_level=r,
                    repetitions=new_reps,
                )
            )
        else:
            for _ in range(el.num_children or 0):
                visit(new_path, d, r, new_reps)

    root = schema[0]
    pos = 1
    for _ in range(root.num_children or 0):
        visit([], 0, 0, [])
    return leaves


def iter_dfs_leaves(root_children: int, elems):
    """DFS preorder walk over a FLAT parquet schema (root excluded):
    ``elems`` yields (payload, num_children, is_leaf) per element; this
    yields (leaf_ordinal, payload, is_top_level). Chunk ordinals equal
    DFS leaf order; top-level means a direct child of the root. Shared
    by footer.resolve_sorting_columns and reader.top_level_leaf so the
    two walks can never diverge."""
    stack = [int(root_children or 0)]
    leaf_ord = 0
    for payload, nch, is_leaf in elems:
        depth = len(stack)
        if stack:
            stack[-1] -= 1
        if is_leaf:
            yield leaf_ord, payload, depth == 1
            leaf_ord += 1
        elif nch:
            stack.append(int(nch))
        while stack and stack[-1] == 0:
            stack.pop()
