"""Zero-copy-ish extraction of numpy views from Arrow arrays.

All encoders operate on either a fixed-width numpy array or an
``(offsets, data)`` pair for BYTE_ARRAY columns, pulled straight from
the Arrow buffers (no per-row Python objects in the hot path).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import _kernel

# Arrow type id -> numpy dtype for fixed-width physical storage
_FIXED_NP = {
    "int8": np.int8,
    "int16": np.int16,
    "int32": np.int32,
    "int64": np.int64,
    "uint8": np.uint8,
    "uint16": np.uint16,
    "uint32": np.uint32,
    "uint64": np.uint64,
    "float": np.float32,
    "double": np.float64,
    "halffloat": np.uint16,
    "date32[day]": np.int32,
    "time32[s]": np.int32,
    "time32[ms]": np.int32,
    "time64[us]": np.int64,
    "time64[ns]": np.int64,
}


def _bits(buf, offset: int, n: int) -> np.ndarray:
    """Bits ``offset`` to ``offset + n`` of an LSB-first bitmap as bools,
    unpacking only the bytes that hold them: a slice of a long array
    costs its own length, not its parent's."""
    first = offset // 8
    raw = np.frombuffer(buf, dtype=np.uint8, count=(offset + n + 7) // 8 - first,
                        offset=first)
    shift = offset % 8
    return np.unpackbits(raw, bitorder="little")[shift : shift + n].astype(bool)


def validity_mask(arr: pa.Array) -> np.ndarray | None:
    """Boolean numpy mask (True = valid) or None if no nulls."""
    if arr.null_count == 0:
        return None
    return _bits(arr.buffers()[0], arr.offset, len(arr))


def single_chunk(col) -> pa.Array:
    """One contiguous Array from an Array or ChunkedArray.
    ``ChunkedArray.combine_chunks`` COPIES even when there is exactly
    one chunk (measured 39 ms on a 56 MB string column) — the 1-chunk
    case, which is what map_batches hands us, is a zero-copy
    ``chunk(0)``."""
    if isinstance(col, pa.ChunkedArray):
        return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return col


def offset_dtype(t: pa.DataType):
    """numpy dtype of the offsets of a string/binary Arrow type (int64
    for the large variants), or None for any other type."""
    if pa.types.is_string(t) or pa.types.is_binary(t):
        return np.int32
    if pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        return np.int64
    return None


def drop_null_fast(arr: pa.Array) -> pa.Array:
    """``drop_null`` with at most one copy of the value bytes for
    string/binary arrays (and their large variants).

    - Canonical layout (null slots are zero-length): only the offsets
      are rebuilt (one vector gather) and the data buffer is reused
      zero-copy. For a web-page table the data buffer is the dominant
      payload, so Arrow's drop_null copy was ~20% of encode-task CPU.
    - Null slots that own bytes (``pc.if_else`` output, say): the
      compiled kernel's ``compact_byte_array`` writes the offsets and
      copies each run of valid slots into one buffer of exactly the
      valid bytes. Without a compiler, Arrow's ``drop_null``, which
      copies value by value into a growing buffer. Measured on one
      vCPU (medians of 9 in each of 3 processes), kernel against
      ``drop_null``: the 200k-row ``text`` column of
      ``synthesize_batch`` (53.5 MB) 19.3-20.2 / 86-110 ms, 100k
      256-byte strings at 2% nulls 4.4 / 15.7-21.7 ms. The Python
      copy of each run it replaced took 20.7-25.3 and 4.5-7.2 ms, and
      gave way to ``drop_null`` below 1 KiB per run.

    Other types use ``drop_null``. A flat string/binary chunk is no
    longer compacted as a whole (``chunk._prepare`` keeps its slots and
    the kernel lays PLAIN pages out from them): this runs on nested
    leaves, on one page of the no-compiler PLAIN path, on the first
    values of the dictionary trial and the FSST sample, and on the whole
    chunk only where every value is read (an accepted dictionary,
    equal-width keys, bloom, geo, DELTA_LENGTH / DELTA_BYTE_ARRAY
    pages)."""
    if arr.null_count == 0:
        return arr
    t = arr.type
    odt = offset_dtype(t)
    if odt is None:
        return arr.drop_null()
    n = len(arr)
    offs = np.frombuffer(arr.buffers()[1], dtype=odt, count=arr.offset + n + 1)
    offs = offs[arr.offset:]
    valid = validity_mask(arr)
    if not np.diff(offs)[~valid].any():
        new_offs = np.concatenate([offs[:-1][valid], offs[-1:]])
        return pa.Array.from_buffers(
            t, int(valid.sum()), [None, pa.py_buffer(new_offs), arr.buffers()[2]])
    compact = _kernel.compact_byte_array(offs, valid, arr.buffers()[2])
    if compact is None:
        return arr.drop_null()
    new_offs, data = compact
    return pa.Array.from_buffers(
        t, len(new_offs) - 1, [None, pa.py_buffer(new_offs), pa.py_buffer(data)])


def fixed_values(arr: pa.Array) -> np.ndarray:
    """Numpy view of the value buffer of a fixed-width arrow array
    (including slots that are null — caller masks separately)."""
    t = arr.type
    if pa.types.is_boolean(t):
        return _bits(arr.buffers()[1], arr.offset, len(arr))
    if pa.types.is_timestamp(t):
        dtype = np.int64
    elif pa.types.is_decimal(t):
        raise TypeError("decimal handled by flba_values")
    else:
        dtype = _FIXED_NP.get(str(t))
        if dtype is None:
            raise TypeError(f"unsupported fixed-width arrow type {t}")
    buf = arr.buffers()[1]
    vals = np.frombuffer(buf, dtype=dtype, count=arr.offset + len(arr))
    return vals[arr.offset : arr.offset + len(arr)]


def byte_array_values(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(lengths:int64, data:uint8) for a string/binary array, offset-normalized.

    ``data`` covers exactly the bytes of the logical slice, in order.
    Null slots have length 0 and contribute no bytes.
    """
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=offset_dtype(arr.type), count=arr.offset + len(arr) + 1)
    offsets = offsets[arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8, count=int(offsets[-1])) if len(arr) else np.empty(0, np.uint8)
    start = int(offsets[0])
    return np.diff(offsets), data[start : int(offsets[-1])]


def flba_values(arr: pa.Array, type_length: int) -> np.ndarray:
    """(n, type_length) uint8 matrix for FIXED_LEN_BYTE_ARRAY storage."""
    t = arr.type
    if pa.types.is_decimal(t):
        # arrow decimal128 is 16-byte little-endian; parquet FLBA decimal is
        # big-endian two's complement — byteswap and take the low type_length
        buf = arr.buffers()[1]
        raw = np.frombuffer(buf, dtype=np.uint8, count=(arr.offset + len(arr)) * 16)
        raw = raw.reshape(-1, 16)[arr.offset : arr.offset + len(arr)]
        be = raw[:, ::-1]  # big-endian 16 bytes
        return np.ascontiguousarray(be[:, 16 - type_length :])
    if pa.types.is_fixed_size_binary(t):
        w = t.byte_width
        buf = arr.buffers()[1]
        raw = np.frombuffer(buf, dtype=np.uint8, count=(arr.offset + len(arr)) * w)
        return raw.reshape(-1, w)[arr.offset : arr.offset + len(arr)]
    if pa.types.is_float16(t):
        vals = fixed_values(arr)  # uint16 view
        return vals.view(np.uint8).reshape(-1, 2)
    raise TypeError(f"unsupported FLBA arrow type {t}")
