"""Column-chunk / page statistics: min, max, null_count with parquet
byte serialization and 16-byte truncation (reference semantics:
src/column.js:245-284, src/unconvert.js:126-272).

NaN is skipped, an all-NaN chunk or page has no min/max, a zero min is
written -0.0 and a zero max +0.0. ``encode_chunk`` takes a chunk's
statistics from one of three sources, each giving the bounds a pass
over every value would give:

- its pages: when every page has statistics (the column index holds
  them, or a string/binary page's own layout pass found its bounds),
  ``fold_statistics`` folds the pages' untruncated ``min_raw`` /
  ``max_raw`` and serializes (and truncates) once, after the fold. The
  pages partition the chunk's values, so the min of the page minima is
  the chunk minimum.
- its dictionary: a dictionary-encoded chunk's dictionary holds exactly
  the distinct non-null values, so its min/max are the chunk's.
- its values: one pass (``compute_statistics``). float32/float64 use
  a NaN-skipping numpy reduce (``np.fmin``/``np.fmax``) over the value
  buffer; every other type uses ``pyarrow.compute.min_max`` (C kernel:
  skips nulls and NaN, unsigned lexicographic for binary). Page
  statistics use the same pass, except where a page has a source of
  its own:

- a string/binary page's layout pass: the compiled kernel writes a
  PLAIN or DELTA_LENGTH_BYTE_ARRAY body and returns the slots of the
  page's smallest and largest value in the same call, in ``min_max``'s
  order; ``slot_statistics`` serializes those two values. The pages of
  a dictionary chunk, DELTA_BYTE_ARRAY, FIXED_LEN_BYTE_ARRAY and
  fixed-width pages, and every page written without the kernel, use
  ``compute_statistics``.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import arrays as A
from .types import ParquetType, SchemaElement

STATS_TRUNCATE_LENGTH = 16


@dataclass
class Stats:
    min_bytes: Optional[bytes]
    max_bytes: Optional[bytes]
    null_count: int
    is_min_exact: Optional[bool]  # only emitted when False
    is_max_exact: Optional[bool]
    # raw scalar values for boundary-order tracking (comparable python objs)
    min_raw: object = None
    max_raw: object = None


def truncate_statistic(data: bytes, is_max: bool) -> Optional[bytes]:
    """Truncate a byte statistic; max is rounded up to remain an upper bound."""
    if len(data) <= STATS_TRUNCATE_LENGTH:
        return data
    prefix = bytearray(data[:STATS_TRUNCATE_LENGTH])
    if not is_max:
        return bytes(prefix)
    i = len(prefix) - 1
    while i >= 0 and prefix[i] == 0xFF:
        i -= 1
    if i < 0:
        return None  # all 0xFF: no shorter upper bound exists
    prefix = prefix[: i + 1]
    prefix[i] += 1
    return bytes(prefix)


def _serialize(value, element: SchemaElement, is_max: bool):
    """(bytes, is_exact) for a python scalar per the physical type."""
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
        elif isinstance(value, (bytes, bytearray)):
            data = bytes(value)
        else:
            data = bytes(value)
        out = truncate_statistic(data, is_max)
        if out is None:
            # first 16 bytes all 0xFF: no shorter upper bound exists —
            # fall back to the exact untruncated value (always a valid bound)
            return data, None
        exact = False if len(data) > STATS_TRUNCATE_LENGTH else None
        return out, exact
    raise TypeError(f"unsupported stats type {t}")


def _decimal_flba(value, element: SchemaElement) -> bytes:
    unscaled = int(value.scaleb(element.scale or 0))
    return unscaled.to_bytes(element.type_length, "big", signed=True)


def _bounds(arr: pa.Array):
    """(min, max) python scalars over the non-null, non-NaN values of an
    array; (None, None) when there are none (empty or all NaN)."""
    t = arr.type
    if len(arr) == 0:
        return None, None
    if (pa.types.is_float32(t) or pa.types.is_float64(t)) and not arr.null_count:
        # NaN-skipping reduce over the value buffer (null slots would
        # hold arbitrary bytes, hence the null check); all NaN gives NaN
        v = A.fixed_values(arr)
        lo, hi = float(np.fmin.reduce(v)), float(np.fmax.reduce(v))
        return (None, None) if lo != lo else (lo, hi)
    if pa.types.is_timestamp(t) or pa.types.is_date(t) or pa.types.is_time(t):
        # compare on the underlying integers
        arr = arr.cast(pa.int64() if t.bit_width == 64 else pa.int32())
    elif pa.types.is_float16(t):
        arr = arr.cast(pa.float32())
    mm = pc.min_max(arr)
    lo, hi = mm["min"].as_py(), mm["max"].as_py()
    if isinstance(lo, float) and lo > hi:
        # all NaN: min_max skips NaN and returns the identities (+inf, -inf)
        return None, None
    return lo, hi


def _stats(lo, hi, t: pa.DataType, element: SchemaElement, null_count: int) -> Stats:
    """Serialize exact (min, max) bounds of a chunk or page of arrow type ``t``."""
    if lo is None:
        return Stats(None, None, null_count, None, None)
    if pa.types.is_decimal(t):
        return Stats(
            _decimal_flba(lo, element), _decimal_flba(hi, element),
            null_count, None, None, lo, hi,
        )
    if isinstance(lo, float):
        # parquet spec: a zero min is written -0.0, a zero max +0.0
        if lo == 0:
            lo = -0.0
        if hi == 0:
            hi = 0.0
    if pa.types.is_float16(t):
        return Stats(np.float16(lo).tobytes(), np.float16(hi).tobytes(),
                     null_count, None, None, lo, hi)
    min_bytes, min_exact = _serialize(lo, element, False)
    max_bytes, max_exact = _serialize(hi, element, True)
    return Stats(min_bytes, max_bytes, null_count, min_exact, max_exact, lo, hi)


def compute_statistics(arr: pa.Array, element: SchemaElement, null_count: int = 0) -> Stats:
    """Statistics of the values of ``arr``: the non-null values, the
    slots of a flat string/binary page or chunk with its nulls in place
    (``pc.min_max`` skips them), or a dictionary-encoded chunk's
    dictionary. ``null_count`` is supplied by the caller (it is a
    level-space property for nested columns)."""
    return _stats(*_bounds(arr), arr.type, element, null_count)


def slot_statistics(slots: A.ByteSlots, bounds: "tuple[int, int]", t: pa.DataType,
                    element: SchemaElement, null_count: int) -> Stats:
    """``compute_statistics`` of a string/binary page from its checked
    ``slots`` and the slots of its smallest and largest value
    (``bounds``, -1 when none is valid), as the page's own layout pass
    found them: the same bytes, truncation, exactness flags and raw
    bounds (``str`` for a string type, ``bytes`` for a binary one)."""
    lo, hi = bounds
    if lo < 0:
        return _stats(None, None, t, element, null_count)
    text = pa.types.is_string(t) or pa.types.is_large_string(t)

    def value(i: int):
        raw = slots.data[slots.offsets.item(i):slots.offsets.item(i + 1)].tobytes()
        return raw.decode() if text else raw

    return _stats(value(lo), value(hi), t, element, null_count)


def fold_statistics(pages: list[Stats], t: pa.DataType, element: SchemaElement,
                    null_count: int) -> Stats:
    """Chunk statistics from its pages' statistics: the min/max of the
    pages' exact ``min_raw``/``max_raw``, serialized and truncated after
    the fold (a truncated page bound is not a chunk bound)."""
    lo = min((p.min_raw for p in pages if p.min_raw is not None), default=None)
    hi = max((p.max_raw for p in pages if p.max_raw is not None), default=None)
    return _stats(lo, hi, t, element, null_count)


def statistics_thrift(stats: Stats):
    """Thrift Statistics struct (field ids per parquet.thrift)."""
    from .thrift import I64

    fields: dict[int, object] = {3: I64(stats.null_count)}
    if stats.max_bytes is not None:
        fields[5] = stats.max_bytes
    if stats.min_bytes is not None:
        fields[6] = stats.min_bytes
    if stats.is_max_exact is False:
        fields[7] = False
    if stats.is_min_exact is False:
        fields[8] = False
    return fields
