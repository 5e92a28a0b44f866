"""PLAIN encoding for all physical types (reference semantics:
src/plain.js:10-135). Each returns the page body itself, never copied
into a page buffer: fixed widths as a view of the values, BYTE_ARRAY
from the compiled kernel over the column's own slots, together with the
page's min and max slot (or one Arrow C++ join of them without a
compiler)."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import _kernel
from . import arrays as A
from .types import ParquetType

_NP_OUT = {
    ParquetType.INT32: "<i4",
    ParquetType.INT64: "<i8",
    ParquetType.FLOAT: "<f4",
    ParquetType.DOUBLE: "<f8",
}
_EMPTY = pa.scalar(b"", pa.large_binary())


def plain_fixed(values: np.ndarray, ptype: ParquetType) -> memoryview:
    """PLAIN bytes for INT32/INT64/FLOAT/DOUBLE from a numpy array: a
    view of ``values`` when they are stored at the physical width and
    byte order, a converted copy otherwise (narrower or big-endian values)."""
    dt = _NP_OUT[ptype]
    if values.dtype.kind == "u" and ptype in (ParquetType.INT32, ParquetType.INT64):
        # unsigned logical types store their two's-complement bit pattern
        dt = dt.replace("i", "u")
    return np.ascontiguousarray(values, dtype=dt).view(np.uint8).data


def plain_boolean(values: np.ndarray) -> bytes:
    """BOOLEAN bit-packed LSB-first."""
    return np.packbits(values.astype(np.uint8), bitorder="little").tobytes()


def plain_byte_array(slots: A.ByteSlots, out: "np.ndarray | None" = None
                     ) -> "tuple[memoryview, tuple[int, int] | None]":
    """BYTE_ARRAY: u32 little-endian length prefix + raw bytes per value,
    for the valid ones of a string/binary array's checked slots
    (``arrays.byte_slots``, or a page's slice of a chunk's), and the
    page's bounds: the first slot holding its smallest value and the
    first holding its largest, in ``pc.min_max``'s order (-1 for both
    when no slot is valid), or None without the kernel.

    The compiled kernel's ``plain_byte_array`` reads the slots' own
    offsets, validity and value buffers and writes the layout once,
    into ``out`` when it is large enough (the page loop hands each page
    the buffer of the one before, ``view.obj``), with 8 zero bytes past
    the view that let FSST scan it in place. It skips null slots and
    any bytes they own, so no compacted copy of the values comes first:
    on the 200k-row ``text`` column of ``synthesize_batch`` (53.5 MB,
    null slots owning bytes; one vCPU, medians of 9 in each of 2
    processes) it takes 18.1-18.3 ms into a fresh buffer and 10.4-10.7
    ms into a reused one, against 35.5-41.4 ms for ``drop_null_fast``
    and the layout from the compacted values. The bounds come from the
    same pass, each value compared while its copy is in cache, so the
    page's statistics need no second pass over its values. Without a
    compiler the slots are joined by Arrow (:func:`_joined`), nulls in
    place, and the caller takes the bounds from ``pc.min_max``.
    """
    return _kernel.plain_byte_array(slots, out) or (_joined(slots), None)


def _joined(slots: A.ByteSlots) -> memoryview:
    """The PLAIN layout of the valid slots in one Arrow C++ pass: the
    4-byte headers and the slots are wrapped without a copy of the
    values as two ``large_binary`` arrays (64-bit offsets, so a page
    over 2 GiB cannot overflow) and joined element-wise with an empty
    separator, which writes nothing for a null slot; the view is of the
    joined data buffer. On the slots of the 200k-row ``text`` column
    of ``synthesize_batch`` (52.7 MB, 4,098 of them null; one vCPU,
    medians of 9 in each of 2 processes) the join took 43.1-43.3 ms,
    against 77.1 ms for compacting the column and joining its values."""
    n, valid = len(slots.lengths), slots.valid()
    kept = slots.lengths if valid is None else slots.lengths[valid]
    bitmap = None if valid is None else pa.py_buffer(np.packbits(valid, bitorder="little"))
    headers = pa.Array.from_buffers(pa.large_binary(), n, [
        None, pa.py_buffer(np.arange(0, 4 * n + 1, 4, dtype=np.int64)),
        pa.py_buffer(slots.lengths.astype("<u4"))])
    values = pa.Array.from_buffers(pa.large_binary(), n, [
        bitmap, pa.py_buffer(slots.offsets.astype(np.int64, copy=False)), pa.py_buffer(slots.data)],
        null_count=slots.null_count)
    joined = pc.binary_join_element_wise(headers, values, _EMPTY)
    return memoryview(joined.buffers()[2]).cast("B")[: 4 * len(kept) + int(kept.sum())]


def plain_flba(matrix: np.ndarray) -> memoryview:
    """FIXED_LEN_BYTE_ARRAY: concatenated fixed-size values, a view of
    ``matrix`` when it is C-contiguous."""
    return np.ascontiguousarray(matrix).reshape(-1).data
