"""Split-Block Bloom Filters with xxhash64, per parquet-format
BloomFilter.md (reference: src/bloom.js; sizing formula is the
parquet-mr one).

xxhash64 runs vectorized in numpy for fixed-width values (INT32/INT64/
FLOAT/DOUBLE hash their little-endian bytes), in the compiled kernel
(``xxhash64_slots``) for BYTE_ARRAY values, and as a pure-python scalar
implementation for FIXED_LEN_BYTE_ARRAY values and for BYTE_ARRAY
values without a compiler. SBBF insertion is one
vectorized scatter over the distinct-hash array.

Reader side: :func:`bloom_might_contain` (a per-row-group probe) and
:func:`load_bloom_words` (the words ``filter_seen`` checks against) are
one bloom read, :func:`_blooms`, plus their own last step. It parses
the footer and resolves the column with ``core/reader`` and reads only
the footer and the bloom byte ranges. A source is the file's bytes
(bytes, bytearray or memoryview), a path (``str`` or ``os.PathLike``,
local or any fsspec URI, opened through ``state/fsio``) or an open
seekable binary handle.
"""
from __future__ import annotations

import contextlib
import io
import os
import struct
from typing import Optional

import numpy as np
import pyarrow as pa

from . import _kernel
from . import arrays as A
from .bufwriter import BufWriter
from .reader import read_footer, top_level_leaf
from .thrift import CompactReader, write_struct
from .types import ParquetType, SchemaElement

_M = 0xFFFFFFFFFFFFFFFF
P1 = 0x9E3779B185EBCA87
P2 = 0xC2B2AE3D27D4EB4F
P3 = 0x165667B19E3779F9
P4 = 0x85EBCA77C2B2AE63
P5 = 0x27D4EB2F165667C5

SALT = np.array(
    [0x47B6137B, 0x44974D91, 0x8824AD5B, 0xA2B7289D,
     0x705495C7, 0x2DF1424B, 0x9EFC4947, 0x5C6BFB31],
    dtype=np.uint32,
)

BYTES_PER_BLOCK = 32
MIN_BYTES = 32
MAX_BYTES_HARD = 128 << 20


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _M


def xxhash64(data: bytes, seed: int = 0) -> int:
    """Scalar xxhash64 (XXH64), pure python."""
    n = len(data)
    pos = 0
    if n >= 32:
        v1 = (seed + P1 + P2) & _M
        v2 = (seed + P2) & _M
        v3 = seed & _M
        v4 = (seed - P1) & _M
        while pos + 32 <= n:
            for i in range(4):
                lane = int.from_bytes(data[pos : pos + 8], "little")
                if i == 0:
                    v1 = (_rotl((v1 + lane * P2) & _M, 31) * P1) & _M
                elif i == 1:
                    v2 = (_rotl((v2 + lane * P2) & _M, 31) * P1) & _M
                elif i == 2:
                    v3 = (_rotl((v3 + lane * P2) & _M, 31) * P1) & _M
                else:
                    v4 = (_rotl((v4 + lane * P2) & _M, 31) * P1) & _M
                pos += 8
        h = (_rotl(v1, 1) + _rotl(v2, 7) + _rotl(v3, 12) + _rotl(v4, 18)) & _M
        for v in (v1, v2, v3, v4):
            h = ((h ^ (_rotl((v * P2) & _M, 31) * P1) & _M) * P1 + P4) & _M
    else:
        h = (seed + P5) & _M
    h = (h + n) & _M
    while pos + 8 <= n:
        k1 = int.from_bytes(data[pos : pos + 8], "little")
        h ^= (_rotl((k1 * P2) & _M, 31) * P1) & _M
        h = (_rotl(h, 27) * P1 + P4) & _M
        pos += 8
    if pos + 4 <= n:
        h ^= (int.from_bytes(data[pos : pos + 4], "little") * P1) & _M
        h = (_rotl(h, 23) * P2 + P3) & _M
        pos += 4
    while pos < n:
        h ^= (data[pos] * P5) & _M
        h = (_rotl(h, 11) * P1) & _M
        pos += 1
    h ^= h >> 33
    h = (h * P2) & _M
    h ^= h >> 29
    h = (h * P3) & _M
    h ^= h >> 32
    return h


def _np_rotl(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def xxhash64_u64(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized XXH64 of 8-byte little-endian inputs (len == 8 path)."""
    with np.errstate(over="ignore"):
        v = values.astype(np.uint64, copy=False)
        h = np.uint64((seed + P5 + 8) & _M)
        k1 = _np_rotl(v * np.uint64(P2), 31) * np.uint64(P1)
        h = h ^ k1
        h = _np_rotl(h, 27) * np.uint64(P1) + np.uint64(P4)
        return _avalanche(h)


def xxhash64_u32(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized XXH64 of 4-byte little-endian inputs (len == 4 path)."""
    with np.errstate(over="ignore"):
        v = values.astype(np.uint32, copy=False).astype(np.uint64)
        h = np.uint64((seed + P5 + 4) & _M)
        h = h ^ (v * np.uint64(P1))
        h = _np_rotl(h, 23) * np.uint64(P2) + np.uint64(P3)
        return _avalanche(h)


def _avalanche(h: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = h ^ (h >> np.uint64(33))
        h = h * np.uint64(P2)
        h = h ^ (h >> np.uint64(29))
        h = h * np.uint64(P3)
        h = h ^ (h >> np.uint64(32))
        return h


def optimal_num_bytes(ndv: int, fpp: float) -> int:
    """parquet-mr sizing: bits = -8*ndv / ln(1 - fpp^(1/8)), whole blocks,
    power-of-2 snap below 1024 bytes (src/bloom.js:102-128)."""
    if not (0 < fpp < 1):
        raise ValueError(f"fpp must be in (0,1), got {fpp}")
    import math

    m = -8 * ndv / math.log(1 - fpp ** (1 / 8)) if ndv else 0
    num_bits = math.ceil(m)
    if num_bits > MAX_BYTES_HARD << 3:
        num_bits = MAX_BYTES_HARD << 3
    block_bits = BYTES_PER_BLOCK << 3
    num_bits = ((num_bits + block_bits - 1) // block_bits) * block_bits
    num_bytes = max(num_bits >> 3, MIN_BYTES)
    if num_bytes < 1024:
        p = 1
        while p < num_bytes:
            p <<= 1
        num_bytes = p
    return num_bytes


def sbbf_insert_all(num_bytes: int, hashes: np.ndarray) -> np.ndarray:
    """Build the SBBF block words (uint32 array) from 64-bit hashes —
    fully vectorized scatter."""
    num_blocks = num_bytes // BYTES_PER_BLOCK
    words = np.zeros(num_blocks * 8, dtype=np.uint32)
    if len(hashes) == 0:
        return words
    with np.errstate(over="ignore"):
        h = hashes.astype(np.uint64, copy=False)
        block = ((h >> np.uint64(32)) * np.uint64(num_blocks)) >> np.uint64(32)
        low = (h & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        # (n, 8) bit positions
        prod = low[:, None] * SALT[None, :]
        bits = (prod >> np.uint32(27)).astype(np.uint32)
        masks = (np.uint32(1) << bits)
        word_idx = (block[:, None].astype(np.int64) * 8) + np.arange(8)
        np.bitwise_or.at(words, word_idx.reshape(-1), masks.reshape(-1))
    return words


def sbbf_check(words: np.ndarray, h: int) -> bool:
    num_blocks = len(words) // 8
    block = ((h >> 32) * num_blocks) >> 32
    low = h & 0xFFFFFFFF
    for i in range(8):
        bit = ((low * int(SALT[i])) & 0xFFFFFFFF) >> 27
        if not (int(words[block * 8 + i]) >> bit) & 1:
            return False
    return True


def hash_values(values: pa.Array, element: SchemaElement,
                slots: "A.ByteSlots | None" = None) -> Optional[np.ndarray]:
    """xxhash64 of every (non-null) value's plain encoding; None if the
    type is unhashable. A string/binary array's values are its valid
    slots, read from ``slots`` (its ``arrays.byte_slots``, checked
    here when not given) by the compiled kernel's ``xxhash64_slots``,
    or by the scalar :func:`xxhash64` without a compiler."""
    t = element.type
    if t == ParquetType.INT64:
        v = A.fixed_values(values)
        if v.dtype.itemsize != 8:  # e.g. arrow uint32 stored as INT64
            v = v.astype(np.int64 if v.dtype.kind == "i" else np.uint64)
        return xxhash64_u64(v.view(np.uint64))
    if t == ParquetType.INT32:
        v = A.fixed_values(values)
        if v.dtype.itemsize != 4:  # int8/16 sign-extend, uint8/16 zero-extend
            v = v.astype(np.int32 if v.dtype.kind == "i" else np.uint32)
        return xxhash64_u32(v.view(np.uint32))
    if t == ParquetType.DOUBLE:
        return xxhash64_u64(A.fixed_values(values).view(np.uint64))
    if t == ParquetType.FLOAT:
        return xxhash64_u32(A.fixed_values(values).view(np.uint32))
    if t == ParquetType.BYTE_ARRAY:
        slots = A.byte_slots(values) if slots is None else slots
        out = _kernel.xxhash64_slots(slots)
        if out is None:
            valid = slots.valid()
            kept = range(len(slots.lengths)) if valid is None else np.flatnonzero(valid).tolist()
            offsets = (slots.offsets - slots.offsets[0]).tolist()
            buf = slots.span().tobytes()
            out = np.array([xxhash64(buf[offsets[i]:offsets[i + 1]]) for i in kept],
                           dtype=np.uint64)
        return out
    if t == ParquetType.FIXED_LEN_BYTE_ARRAY:
        mat = A.flba_values(values, element.type_length)
        return np.array([xxhash64(row.tobytes()) for row in mat], dtype=np.uint64)
    return None  # BOOLEAN etc: bloom is pointless / unhashable


def build_bloom(values: pa.Array, element: SchemaElement,
                slots: "A.ByteSlots | None" = None,
                fpp: float = 0.01, max_bytes: int = 1 << 20) -> Optional[bytes]:
    """Serialized bloom (thrift header + block words) of the non-null
    values, or None (none, or an unhashable type). ``slots``: a
    string/binary array's checked slots (:func:`hash_values`)."""
    if len(values) == values.null_count:
        return None
    hashes = hash_values(values, element, slots)
    if hashes is None:
        return None
    distinct = np.unique(hashes)
    num_bytes = optimal_num_bytes(len(distinct), fpp)
    if num_bytes > max_bytes:
        return None
    words = sbbf_insert_all(num_bytes, distinct)
    w = BufWriter()
    write_struct(w, {
        1: num_bytes,
        2: {1: {}},  # SplitBlockAlgorithm
        3: {1: {}},  # XxHash
        4: {1: {}},  # Uncompressed
    })
    w.write(words.astype("<u4").tobytes())
    return w.getvalue()


def read_bloom(data) -> np.ndarray:
    """Parse a serialized bloom back into block words."""
    r = CompactReader(data)
    num_bytes = r.read_struct()[1]
    return np.frombuffer(data, dtype="<u4", count=num_bytes // 4, offset=r.pos)


def _opened(source):
    """Seekable binary handle (a context manager) on a parquet file:
    bytes, bytearray or memoryview in memory; a ``str`` or an
    ``os.PathLike``, local or any fsspec URI, through ``fsio``; any
    other object is taken for an open handle and left open."""
    if isinstance(source, (bytes, bytearray, memoryview)):
        return io.BytesIO(source)
    if isinstance(source, (str, os.PathLike)):
        from ..state import fsio

        return fsio.open_input(source)
    return contextlib.nullcontext(source)


def _blooms(source, column: str):
    """(physical_type, type_length, [block words of each row group, or
    None for a row group without a bloom]) of the top-level ``column``
    in the parquet file ``source`` (see :func:`_opened`). Reads the
    footer and the bloom byte ranges only, never a data page."""
    with _opened(source) as f:
        fmeta = read_footer(f)
        ci, ptype, tlen = top_level_leaf(fmeta[2], column)
        words = []
        for rg in fmeta[4]:
            md = rg[1][ci][3]  # 14, 15: bloom_filter_offset, _length
            if md.get(14) is None or not md.get(15):
                words.append(None)
            else:
                f.seek(md[14])
                words.append(read_bloom(f.read(md[15])))
    return ptype, tlen, words


def bloom_might_contain(source, column: str, value) -> list[bool]:
    """Reader-side bloom probe: for each row group of a parquet file
    (any source :func:`_opened` takes), report whether ``value`` MIGHT
    be present in ``column`` (False = definitely absent — the row group
    can be skipped without reading data pages). A row group that
    carries no bloom filter on the column reports True (cannot be
    skipped).

    The probe bytes are derived from the COLUMN's physical type, so an
    int probe against a DOUBLE column hashes the IEEE double bits (a
    value-type-driven encoding would produce silent false negatives)."""
    ptype, _, words = _blooms(source, column)
    # encode the probe by the COLUMN's physical type (parquet bloom
    # hashes the stored representation): 1=INT32 2=INT64 4=FLOAT
    # 5=DOUBLE 6=BYTE_ARRAY 7=FLBA
    if ptype == 0:
        raise TypeError("bloom probe on BOOLEAN is unsupported (as in parquet)")
    if ptype in (1, 2):
        # two's-complement masked encode: covers negatives AND unsigned
        # values with the high bit set (signed=True would overflow there)
        width = 4 if ptype == 1 else 8
        data = (int(value) & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
    elif ptype in (4, 5):
        data = struct.pack("<f" if ptype == 4 else "<d", float(value))
    else:  # BYTE_ARRAY / FIXED_LEN_BYTE_ARRAY
        if isinstance(value, str):
            data = value.encode()
        elif isinstance(value, (bytes, bytearray)):
            data = bytes(value)
        else:
            # bytes(5) would be five ZERO bytes — a garbage key whose
            # miss reads as "definitely absent" and silently skips a
            # row group that contains the value
            raise TypeError(
                f"bloom probe against a byte-array column needs a "
                f"str/bytes value, got {type(value).__name__}")
    h = xxhash64(data)
    return [w is None or bool(sbbf_check(w, h)) for w in words]


def sbbf_check_many(words: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """Vectorized SBBF membership: (n,) bool of possibly-present for an
    array of 64-bit hashes — the batch twin of ``sbbf_check`` (one
    gather + one compare over the (n, 8) salt grid, no per-value
    Python)."""
    if len(hashes) == 0:
        return np.zeros(0, dtype=bool)
    num_blocks = len(words) // 8
    with np.errstate(over="ignore"):
        h = hashes.astype(np.uint64, copy=False)
        block = ((h >> np.uint64(32)) * np.uint64(num_blocks)) >> np.uint64(32)
        low = (h & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        bits = ((low[:, None] * SALT[None, :]) >> np.uint32(27)).astype(np.uint32)
        word_idx = (block[:, None].astype(np.int64) * 8) + np.arange(8)
        w = words[word_idx]
        return (((w >> bits) & np.uint32(1)) != 0).all(axis=1)


def load_bloom_words(source, column: str):
    """(physical_type, type_length, [words per row group]) of ``column``'s
    bloom filters in a parquet file (any source :func:`_opened` takes;
    ``filter_seen`` passes a handle it opened on any store) — footer +
    bloom byte ranges only, data pages never read.
    Raises if any row group lacks a bloom on the column (a seen-filter
    against it would have to treat every value as possibly-seen)."""
    ptype, tlen, words = _blooms(source, column)
    if any(w is None for w in words):
        name = (os.fspath(source) if isinstance(source, (str, os.PathLike))
                else getattr(source, "path", getattr(source, "name", "parquet file")))
        raise ValueError(
            f"{name}: row group without a bloom filter on "
            f"{column!r} — write the prior dataset with "
            f"ColumnSpec(bloom_filter=True)")
    return ptype, tlen, words
