"""PLAIN encoding for all physical types: numpy for fixed widths, one
Arrow C++ join for BYTE_ARRAY (reference semantics: src/plain.js:10-135)."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .types import ParquetType

_NP_OUT = {
    ParquetType.INT32: "<i4",
    ParquetType.INT64: "<i8",
    ParquetType.FLOAT: "<f4",
    ParquetType.DOUBLE: "<f8",
}
_EMPTY = pa.scalar(b"", pa.large_binary())


def plain_fixed(values: np.ndarray, ptype: ParquetType) -> bytes:
    """PLAIN bytes for INT32/INT64/FLOAT/DOUBLE from a numpy array."""
    dt = _NP_OUT[ptype]
    if values.dtype.kind == "u" and ptype in (ParquetType.INT32, ParquetType.INT64):
        # unsigned logical types store their two's-complement bit pattern
        width = 4 if ptype == ParquetType.INT32 else 8
        out = values.astype(f"<u{width}", copy=False).view(dt)
    else:
        out = values.astype(dt, copy=False)
    return out.tobytes()


def plain_boolean(values: np.ndarray) -> bytes:
    """BOOLEAN bit-packed LSB-first."""
    return np.packbits(values.astype(np.uint8), bitorder="little").tobytes()


def plain_byte_array(lengths: np.ndarray, data: np.ndarray) -> memoryview:
    """BYTE_ARRAY: u32 little-endian length prefix + raw bytes per value.

    One Arrow C++ pass builds the layout: the 4-byte headers and the
    values are wrapped without a copy as two ``large_binary`` arrays
    (64-bit offsets, so a page over 2 GiB cannot overflow) and joined
    element-wise with an empty separator. Returns a view of the joined
    data buffer; a page copies it once more, into its own buffer.
    """
    n = len(lengths)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    headers = pa.Array.from_buffers(pa.large_binary(), n, [
        None, pa.py_buffer(np.arange(0, 4 * n + 1, 4, dtype=np.int64)),
        pa.py_buffer(lengths.astype("<u4"))])
    values = pa.Array.from_buffers(pa.large_binary(), n, [
        None, pa.py_buffer(offsets), pa.py_buffer(data)])
    joined = pc.binary_join_element_wise(headers, values, _EMPTY)
    return memoryview(joined.buffers()[2])[: 4 * n + data.nbytes]


def plain_flba(matrix: np.ndarray) -> bytes:
    """FIXED_LEN_BYTE_ARRAY: concatenated fixed-size values."""
    return np.ascontiguousarray(matrix).tobytes()
