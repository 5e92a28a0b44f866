"""Zero-copy-ish extraction of numpy views from Arrow arrays.

All encoders operate on either a fixed-width numpy array or the slots
of a string/binary array, pulled straight from the Arrow buffers (no
per-row Python objects in the hot path). Every reader of a
string/binary array's buffers reads them through :func:`byte_slots`,
the one check of its offsets; a column chunk checks its slots once
and reads every page as a slice of them (where it compacts them:
``chunk._Values``).
"""
from __future__ import annotations

from typing import NamedTuple

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


class ByteSlots(NamedTuple):
    """A string/binary array's slots, as :func:`byte_slots` checked them."""

    offsets: np.ndarray  # the slots' own, int32 or int64, one more than the slots
    lengths: np.ndarray  # offsets[1:] - offsets[:-1], none negative
    data: np.ndarray  # the whole value buffer, uint8
    bitmap: "np.ndarray | None"  # validity from the first slot's byte; None: no nulls
    bit_offset: int  # the first slot's bit in ``bitmap``
    null_count: int

    def slice(self, start: int, stop: int, null_count: int) -> "ByteSlots":
        """Slots ``start`` to ``stop``, which hold ``null_count`` nulls (of
        the same bitmap's bits): views, checked as these are."""
        bit = self.bit_offset + start
        return ByteSlots(self.offsets[start:stop + 1], self.lengths[start:stop], self.data,
                         self.bitmap[bit // 8:] if null_count else None, bit % 8, null_count)

    def valid(self) -> "np.ndarray | None":
        """The slots' validity as bools, or None when none is null."""
        return _bits(self.bitmap, self.bit_offset, len(self.lengths)) if self.null_count else None

    def span(self) -> np.ndarray:
        """The value bytes from the first slot's start to the last slot's
        end: the values themselves where no null slot owns bytes."""
        return self.data[self.offsets.item(0):self.offsets.item(-1)]


def byte_slots(arr: pa.Array) -> ByteSlots:
    """The one check of a string/binary array's buffers, which
    ``pa.Array.from_buffers`` takes unchecked: ``ValueError`` for another
    type, an offsets buffer or a bitmap too short for the slots, a first
    or last offset outside the value buffer, or a negative length. No
    byte-array path reads a byte outside the value buffer."""
    odt = offset_dtype(arr.type)
    if odt is None:
        raise ValueError(f"byte_slots takes a string/binary array, not {arr.type}")
    n, start = len(arr), arr.offset
    bitmap, offbuf, databuf = arr.buffers()
    width = np.dtype(odt).itemsize
    if offbuf is None or offbuf.size < (start + n + 1) * width:
        raise ValueError("the offsets buffer is too short for the slots")
    offsets = np.frombuffer(offbuf, odt, count=n + 1, offset=start * width)
    data = np.frombuffer(databuf or b"", np.uint8)
    if offsets.item(0) < 0 or offsets.item(-1) > data.size:
        raise ValueError("offsets leave the value buffer")
    lengths = offsets[1:] - offsets[:-1]
    if n and lengths.min() < 0:
        raise ValueError("offsets decrease")
    bits = None
    if arr.null_count:
        bits = np.frombuffer(bitmap or b"", np.uint8)[start // 8:]
        if bits.size * 8 < start % 8 + n:
            raise ValueError("the validity bitmap is too short for the slots")
    return ByteSlots(offsets, lengths, data, bits, start % 8, arr.null_count)


def compacted(arr: pa.Array, slots: "ByteSlots | None", valid: "np.ndarray | None"
              ) -> "tuple[pa.Array, ByteSlots | None]":
    """``drop_null`` of ``arr`` and its slots, for a string/binary array
    from its checked ``slots`` and their validity ``valid``, with at
    most one copy of the value bytes:

    - Canonical layout (null slots are zero-length): only the offsets
      are rebuilt (one vector gather) and the data buffer is reused
      zero-copy. For a web-page table the data buffer is the dominant
      payload, so Arrow's drop_null copy was ~20% of encode-task CPU.
    - Null slots that own bytes (``pc.if_else`` output, say): the
      compiled kernel's ``compact_byte_array`` writes the offsets and
      copies each run of valid slots into one buffer. Without a
      compiler, Arrow's ``drop_null``, which copies value by value into
      a growing buffer, and whose result is checked like any array.
      Measured on one vCPU (medians of 9 in each of 2 to 4 processes),
      kernel against ``drop_null``: the 200k-row ``text`` column of
      ``synthesize_batch`` (53.5 MB) 12.2-15.5 / 33.0-35.3 ms, 100k
      256-byte strings at 2% nulls 2.3-2.9 / 14.8-18.2 ms."""
    if not arr.null_count:
        return arr, slots
    if not slots.lengths[~valid].any():
        offsets, data = np.concatenate([slots.offsets[:-1][valid], slots.offsets[-1:]]), slots.data
    else:
        got = _kernel.compact_byte_array(slots)
        if got is None:
            dropped = arr.drop_null()
            return dropped, byte_slots(dropped)
        offsets, data = got
    return (pa.Array.from_buffers(arr.type, len(offsets) - 1, [
        None, pa.py_buffer(offsets), pa.py_buffer(data)]),
        ByteSlots(offsets, slots.lengths[valid], data, None, 0, 0))


def drop_null_fast(arr: pa.Array) -> pa.Array:
    """``drop_null`` with at most one copy of the value bytes for
    string/binary arrays (and their large variants): :func:`compacted`
    of their checked slots. Other types use ``drop_null``."""
    if offset_dtype(arr.type) is None:
        return arr.drop_null() if arr.null_count else arr
    slots = byte_slots(arr)
    return compacted(arr, slots, slots.valid())[0]


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
    Null slots contribute the bytes they own (none in a canonical array).
    """
    slots = byte_slots(arr)
    return slots.lengths.astype(np.int64, copy=False), slots.span()


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
