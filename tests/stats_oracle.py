"""Frozen reference for chunk and page statistics.

``compute_statistics`` is the function ``core/statistics.py`` shipped
before chunk statistics came from the cheapest exact source (the
dictionary, the pages' folded bounds, or a numpy float reduce): one
``pyarrow.compute.min_max`` pass over every value. ``two_pass`` is the
two-pass layout ``encode_chunk`` used with it: that pass once over the
whole chunk, then again over each page for the column index. Both are
kept verbatim in behaviour so ``test_stats_kernels.py`` can require the
new code to produce equal ``Stats`` and ``ColumnIndexData``. Test-only:
nothing in the package imports this module.
"""
from __future__ import annotations

import struct
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from hyparquet_writer_ray.core.chunk import ColumnIndexData
from hyparquet_writer_ray.core.statistics import Stats
from hyparquet_writer_ray.core.types import ParquetType, SchemaElement

STATS_TRUNCATE_LENGTH = 16


def truncate_statistic(data: bytes, is_max: bool) -> Optional[bytes]:
    if len(data) <= STATS_TRUNCATE_LENGTH:
        return data
    prefix = bytearray(data[:STATS_TRUNCATE_LENGTH])
    if not is_max:
        return bytes(prefix)
    i = len(prefix) - 1
    while i >= 0 and prefix[i] == 0xFF:
        i -= 1
    if i < 0:
        return None
    prefix = prefix[: i + 1]
    prefix[i] += 1
    return bytes(prefix)


def _serialize(value, element: SchemaElement, is_max: bool):
    t = element.type
    if t == ParquetType.BOOLEAN:
        return (b"\x01" if value else b"\x00"), None
    if t == ParquetType.INT32:
        return struct.pack("<I", int(value) & 0xFFFFFFFF), None
    if t == ParquetType.INT64:
        return struct.pack("<Q", int(value) & 0xFFFFFFFFFFFFFFFF), None
    if t == ParquetType.FLOAT:
        return struct.pack("<f", float(value)), None
    if t == ParquetType.DOUBLE:
        return struct.pack("<d", float(value)), None
    if t in (ParquetType.BYTE_ARRAY, ParquetType.FIXED_LEN_BYTE_ARRAY):
        if isinstance(value, str):
            data = value.encode("utf-8")
        else:
            data = bytes(value)
        out = truncate_statistic(data, is_max)
        if out is None:
            return data, None
        exact = False if len(data) > STATS_TRUNCATE_LENGTH else None
        return out, exact
    raise TypeError(f"unsupported stats type {t}")


def _decimal_flba(value, element: SchemaElement) -> bytes:
    unscaled = int(value.scaleb(element.scale or 0))
    return unscaled.to_bytes(element.type_length, "big", signed=True)


def compute_statistics(arr: pa.Array, element: SchemaElement, null_count: int = 0) -> Stats:
    if len(arr) == 0:
        return Stats(None, None, null_count, None, None)

    t = arr.type
    if pa.types.is_decimal(t):
        mm = pc.min_max(arr)
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
        return Stats(
            _decimal_flba(lo, element), _decimal_flba(hi, element),
            null_count, None, None, lo, hi,
        )
    if pa.types.is_timestamp(t) or pa.types.is_date(t) or pa.types.is_time(t):
        storage = arr.cast(pa.int64() if t.bit_width == 64 else pa.int32())
        mm = pc.min_max(storage)
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
    elif pa.types.is_float16(t):
        vals = arr.cast(pa.float32())
        mm = pc.min_max(vals)
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
        if lo is None or lo > hi:
            return Stats(None, None, null_count, None, None)
        if lo == 0:
            lo = -0.0
        if hi == 0:
            hi = 0.0
        lo_b = np.float16(lo).tobytes()
        hi_b = np.float16(hi).tobytes()
        return Stats(lo_b, hi_b, null_count, None, None, lo, hi)
    else:
        mm = pc.min_max(arr)
        lo, hi = mm["min"].as_py(), mm["max"].as_py()

    if lo is None:
        return Stats(None, None, null_count, None, None)
    if isinstance(lo, float) and isinstance(hi, float) and lo > hi:
        return Stats(None, None, null_count, None, None)

    if isinstance(lo, float):
        if lo == 0:
            lo = -0.0
        if hi == 0:
            hi = 0.0

    min_bytes, min_exact = _serialize(lo, element, False)
    max_bytes, max_exact = _serialize(hi, element, True)
    return Stats(min_bytes, max_bytes, null_count, min_exact, max_exact, lo, hi)


def two_pass(values: pa.Array, element: SchemaElement, null_count: int,
             pages: list[tuple[int, int, int]], column_index: bool,
             geospatial: bool = False):
    """(chunk Stats, ColumnIndexData or None) for the non-null ``values``
    of a chunk whose pages hold ``values[v0:v1]`` with ``num_nulls``
    null slots each, as the old ``encode_chunk`` computed them."""
    stats = compute_statistics(values, element, null_count=null_count)
    if geospatial:
        stats = Stats(None, None, null_count, None, None)
    if not column_index or len(pages) < 2:
        return stats, None
    ci = ColumnIndexData()
    ascending = descending = True
    prev_min = prev_max = None
    for v0, v1, num_nulls in pages:
        p = compute_statistics(values.slice(v0, v1 - v0), element, null_count=num_nulls)
        all_null = p.min_bytes is None
        ci.null_pages.append(all_null)
        ci.min_values.append(p.min_bytes or b"")
        ci.max_values.append(p.max_bytes or b"")
        ci.null_counts.append(p.null_count)
        if not all_null:
            if prev_min is not None:
                if p.min_raw < prev_min:
                    ascending = False
                if p.min_raw > prev_min:
                    descending = False
            if prev_max is not None:
                if p.max_raw < prev_max:
                    ascending = False
                if p.max_raw > prev_max:
                    descending = False
            prev_min, prev_max = p.min_raw, p.max_raw
    ci.boundary_order = 1 if ascending else (2 if descending else 0)
    return stats, ci
