"""DELTA_BINARY_PACKED / DELTA_LENGTH_BYTE_ARRAY / DELTA_BYTE_ARRAY.

Layout matches the parquet spec and the reference writer
(src/delta.js:9-364): block size 128, 4 miniblocks of 32 values, header
``varint(128) varint(4) varint(count) zigzag(first)``, per block
``zigzag(min_delta)`` + 4 bitwidth bytes + bit-packed miniblocks
(LSB-first). This is the "delta + frame-of-reference" codec of the
north rule (frame-of-reference on deltas via per-block min).

Arithmetic wraps at the column's physical width (mod 2^32 or 2^64),
which keeps every adjusted delta within that width for any input;
decoders wrap the same way.

:func:`delta_binary_pack` runs the compiled kernel's
``delta_binary_pack`` (``_kernel``), which writes the whole stream in
one C pass, whenever a C compiler works. Its numpy body is the fallback
without one, and gives the same bytes: bit widths come from one
vectorized search over the powers of two, and packing goes through
``rle._pack_bits``, one call per distinct miniblock width. Every
block's ``zigzag(min_delta)`` varint, width bytes and packed miniblocks
are scattered into one buffer, written once. The two byte-array
encodings, :func:`delta_length_byte_array` and
:func:`delta_byte_array`, write their lengths through it; with the
kernel, a DELTA_LENGTH_BYTE_ARRAY page is one call of its own, which
also returns the page's min and max slot.
"""
from __future__ import annotations

import numpy as np

from . import _kernel
from . import arrays as A
from .bufwriter import BufWriter
from .rle import _pack_bits

BLOCK = 128
MINIBLOCKS = 4
MB_VALUES = BLOCK // MINIBLOCKS  # 32
_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)
_VARINT_SHIFTS = np.arange(0, 70, 7, dtype=np.uint64)  # a u64 takes <= 10 bytes


def _zigzag_varints(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``BufWriter.zigzag`` of each value, as a (len(v), 10) byte matrix
    whose row i holds its varint in the first ``nbytes[i]`` bytes."""
    v = v.astype(np.int64)
    z = (v << 1).view(np.uint64) ^ (v >> 63).view(np.uint64)
    nbytes = np.maximum((np.searchsorted(_POW2, z, side="right") + 6) // 7, 1)
    groups = ((z[:, None] >> _VARINT_SHIFTS) & np.uint64(0x7F)).astype(np.uint8)
    groups[np.arange(len(_VARINT_SHIFTS)) < nbytes[:, None] - 1] |= 0x80
    return groups, nbytes


def delta_binary_pack(w: BufWriter, values: np.ndarray) -> None:
    """Arithmetic wraps mod 2^32 for 32-bit inputs and mod 2^64 otherwise —
    decoders wrap at the column's physical width, so INT32 adjusted deltas
    must stay within 32 bits (parquet-cpp rejects bit widths > type width)."""
    stream = _kernel.delta_binary_pack(values)
    if stream is not None:
        w.write(stream)
        return
    count = len(values)
    w.varint(BLOCK)
    w.varint(MINIBLOCKS)
    w.varint(count)
    if count == 0:
        w.varint(0)
        return
    sdt, udt = (np.int32, np.uint32) if values.dtype.itemsize <= 4 else (np.int64, np.uint64)
    v = values.astype(sdt, copy=False)
    w.zigzag(int(v[0]))
    if count == 1:
        return

    n = count - 1
    nblocks = (n + BLOCK - 1) // BLOCK
    # padding holds the type's max, so it never lowers a block's min
    deltas = np.full(nblocks * BLOCK, np.iinfo(sdt).max, sdt)
    np.subtract(v[1:], v[:-1], out=deltas[:n])  # wraps at the width
    blocks = deltas.reshape(nblocks, BLOCK)
    min_delta = blocks.min(axis=1)
    mb = (blocks.view(udt) - min_delta.view(udt)[:, None]).reshape(-1, MB_VALUES)
    mb.reshape(-1)[n:] = 0  # padding packs as zeros
    widths = np.searchsorted(_POW2, mb.max(axis=1), side="right")  # bit_length

    # per block: its min_delta varint, 4 width bytes, then its
    # miniblocks' 4 * width bytes each
    varints, nbytes = _zigzag_varints(min_delta)
    sizes = np.empty((nblocks, 2 + MINIBLOCKS), np.int64)
    sizes[:, 0] = nbytes
    sizes[:, 1] = MINIBLOCKS
    sizes[:, 2:] = 4 * widths.reshape(nblocks, MINIBLOCKS)
    ends = np.cumsum(sizes).reshape(sizes.shape)
    starts = ends - sizes
    out = np.empty(int(ends[-1, -1]), np.uint8)
    vpos = starts[:, :1] + np.arange(varints.shape[1])
    in_varint = vpos < ends[:, :1]
    out[vpos[in_varint]] = varints[in_varint]
    out[starts[:, 1:2] + np.arange(MINIBLOCKS)] = widths.reshape(nblocks, MINIBLOCKS)
    mb_starts = starts[:, 2:].reshape(-1)
    for bw in np.unique(widths).tolist():
        if bw:
            rows = np.flatnonzero(widths == bw)
            packed = np.frombuffer(_pack_bits(mb[rows], bw), np.uint8)
            out[mb_starts[rows, None] + np.arange(4 * bw)] = packed.reshape(len(rows), -1)
    w.write(memoryview(out))


def delta_length_byte_array(slots: A.ByteSlots, out: "np.ndarray | None" = None
                            ) -> "tuple[memoryview, tuple[int, int] | None]":
    """DELTA_LENGTH_BYTE_ARRAY of the valid ones of a string/binary
    array's checked slots: delta-packed lengths (int32 space, per spec)
    + concatenated raw bytes, and the page's bounds as
    ``plain.plain_byte_array`` gives them (None without the kernel).

    The compiled kernel's ``delta_length_byte_array`` writes the whole
    body in one call from the slots' own buffers, into ``out`` when it
    is large enough (the page loop's reused page buffer), with the same
    ``SLACK`` zero bytes past the view for FSST. Without a compiler the
    numpy body writes the lengths through :func:`delta_binary_pack` and
    the valid slots' bytes into a ``BufWriter``."""
    got = _kernel.delta_length_byte_array(slots, out)
    if got is not None:
        return got
    valid, lengths, data = slots.valid(), slots.lengths, slots.span()
    if valid is not None:
        # null slots may own bytes: keep the valid slots' bytes only
        lengths, data = lengths[valid], data[np.repeat(valid, lengths)]
    w = BufWriter()
    delta_binary_pack(w, lengths.astype(np.int32, copy=False))
    w.write(memoryview(np.ascontiguousarray(data)))
    return w.view(), None


_PREFIX_CAP = 64  # longest common prefix we detect (longer prefixes still valid, just less compressed)


def delta_byte_array(w: BufWriter, lengths: np.ndarray, data: np.ndarray) -> None:
    """DELTA_BYTE_ARRAY: shared-prefix compression against the previous value.

    Prefixes are found on a matrix of each value's first bytes, gathered
    with one index per matrix cell rather than per data byte; the suffix
    bytes are the data with each value's prefix bytes masked out.
    """
    n = len(lengths)
    if n == 0:
        delta_binary_pack(w, np.empty(0, np.int32))
        delta_binary_pack(w, np.empty(0, np.int32))
        return
    lengths = lengths.astype(np.int64, copy=False)
    value_base = np.concatenate([[0], np.cumsum(lengths)])

    # head matrix: the first min(_PREFIX_CAP, longest) bytes from each
    # value's start. Bytes past a value's end belong to the next value (or
    # are clipped), but never count: a prefix is capped at the shorter of
    # the two lengths.
    cols = np.arange(min(_PREFIX_CAP, int(lengths.max())), dtype=np.int64)
    pos = value_base[:-1, None] + cols
    head = np.take(data, pos, mode="clip")

    prefix = np.zeros(n, dtype=np.int64)
    if n > 1:
        matched = np.logical_and.accumulate(head[1:] == head[:-1], axis=1).sum(axis=1)
        prefix[1:] = np.minimum(matched, np.minimum(lengths[1:], lengths[:-1]))

    delta_binary_pack(w, prefix.astype(np.int32))
    delta_binary_pack(w, (lengths - prefix).astype(np.int32))
    keep = np.ones(data.nbytes, dtype=bool)
    keep[pos[cols < prefix[:, None]]] = False
    w.write(memoryview(data[keep]))
