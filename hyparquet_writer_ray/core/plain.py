"""PLAIN encoding for all physical types (reference semantics:
src/plain.js:10-135). Each returns the page body itself, never copied
into a page buffer: fixed widths as a view of the values, BYTE_ARRAY
from the compiled kernel over the column's own slots (or one Arrow C++
join of the compacted page without a compiler)."""
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


def plain_byte_array(arr: pa.Array, out: "np.ndarray | None" = None) -> memoryview:
    """BYTE_ARRAY: u32 little-endian length prefix + raw bytes per value,
    for the valid slots of the string/binary array ``arr``.

    The compiled kernel's ``plain_byte_array`` reads the array's own
    offsets, validity and value buffers and writes the layout once,
    into ``out`` when it is large enough (the page loop hands each page
    the buffer of the one before, ``view.obj``), with 8 zero bytes past
    the view that let FSST scan it in place. It skips null slots and
    any bytes they own, so no compacted copy of the values comes first:
    on the 200k-row ``text`` column of ``synthesize_batch`` (53.5 MB,
    null slots owning bytes; one vCPU, medians of 9 in each of 2
    processes) it takes 18.1-18.3 ms into a fresh buffer and 10.4-10.7
    ms into a reused one, against 35.5-41.4 ms for ``drop_null_fast``
    and the layout from the compacted values. Without a compiler the
    page is compacted (``drop_null_fast``) and joined (:func:`_joined`).
    Either way the slots are checked first (``arrays.byte_slots``).
    """
    got = _kernel.plain_byte_array(A.byte_slots(arr), out)
    return got if got is not None else _joined(*A.byte_array_values(A.drop_null_fast(arr)))


def _joined(lengths: np.ndarray, data: np.ndarray) -> memoryview:
    """The PLAIN layout of non-null values in one Arrow C++ pass: the
    4-byte headers and the values are wrapped without a copy as two
    ``large_binary`` arrays (64-bit offsets, so a page over 2 GiB cannot
    overflow) and joined element-wise with an empty separator; the view
    is of the joined data buffer. On the values of the 200k-row ``text``
    column of ``synthesize_batch`` (52.6 MB; one vCPU, medians of 9 in
    each of 3 processes) the join took 40.3-59.7 ms."""
    n = len(lengths)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    headers = pa.Array.from_buffers(pa.large_binary(), n, [
        None, pa.py_buffer(np.arange(0, 4 * n + 1, 4, dtype=np.int64)),
        pa.py_buffer(lengths.astype("<u4"))])
    values = pa.Array.from_buffers(pa.large_binary(), n, [
        None, pa.py_buffer(offsets), pa.py_buffer(data)])
    joined = pc.binary_join_element_wise(headers, values, _EMPTY)
    return memoryview(joined.buffers()[2]).cast("B")[: 4 * n + data.nbytes]


def plain_flba(matrix: np.ndarray) -> memoryview:
    """FIXED_LEN_BYTE_ARRAY: concatenated fixed-size values, a view of
    ``matrix`` when it is C-contiguous."""
    return np.ascontiguousarray(matrix).reshape(-1).data
