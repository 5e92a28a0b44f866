"""PLAIN encoding for all physical types, numpy-vectorized
(reference semantics: src/plain.js:10-135)."""
from __future__ import annotations

import numpy as np

from .types import ParquetType

_NP_OUT = {
    ParquetType.INT32: "<i4",
    ParquetType.INT64: "<i8",
    ParquetType.FLOAT: "<f4",
    ParquetType.DOUBLE: "<f8",
}


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

    Returns a view of the one buffer the values are scattered into, so a
    page copies the value bytes once more, into its own buffer.

    Two strategies: short values use a fully vectorized byte scatter;
    long values (html/text) use per-value slice copies (C memcpy), which
    beats the scatter's per-byte index arithmetic by ~10x there.
    """
    n = len(lengths)
    if n == 0:
        return memoryview(b"")
    total = int(data.nbytes) + 4 * n
    out = np.zeros(total, dtype=np.uint8)
    lengths = lengths.astype(np.int64, copy=False)
    value_base = np.concatenate([[0], np.cumsum(lengths)])
    out_starts = value_base[:-1] + 4 * np.arange(n, dtype=np.int64)
    # scatter the 4-byte length headers (always cheap: 4 bytes/value)
    len_bytes = lengths.astype("<u4").view(np.uint8).reshape(n, 4)
    idx = out_starts[:, None] + np.arange(4, dtype=np.int64)
    out[idx.reshape(-1)] = len_bytes.reshape(-1)
    if not data.nbytes:
        return memoryview(out)
    if data.nbytes < 32 * n:
        # short values: vectorized scatter
        owner = np.repeat(np.arange(n, dtype=np.int64), lengths)
        data_pos = np.arange(data.nbytes, dtype=np.int64)
        out_pos = out_starts[owner] + 4 + (data_pos - value_base[:-1][owner])
        out[out_pos] = data
    else:
        dst = out_starts + 4
        src = value_base
        for i in range(n):
            li = lengths[i]
            if li:
                out[dst[i] : dst[i] + li] = data[src[i] : src[i] + li]
    return memoryview(out)


def plain_flba(matrix: np.ndarray) -> bytes:
    """FIXED_LEN_BYTE_ARRAY: concatenated fixed-size values."""
    return np.ascontiguousarray(matrix).tobytes()
