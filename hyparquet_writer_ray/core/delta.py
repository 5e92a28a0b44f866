"""DELTA_BINARY_PACKED / DELTA_LENGTH_BYTE_ARRAY / DELTA_BYTE_ARRAY.

Layout matches the parquet spec and the reference writer
(src/delta.js:9-364): block size 128, 4 miniblocks of 32 values, header
``varint(128) varint(4) varint(count) zigzag(first)``, per block
``zigzag(min_delta)`` + 4 bitwidth bytes + bit-packed miniblocks
(LSB-first). This is the "delta + frame-of-reference" codec of the
north rule (frame-of-reference on deltas via per-block min).

Arithmetic is mod-2^64 wrapping (uint64), which keeps every adjusted
delta within 64 bits for any int64 input; decoders wrap the same way.
Packing is vectorized: miniblocks are grouped by bitwidth and packed in
one numpy call per distinct width.
"""
from __future__ import annotations

import numpy as np

from .bufwriter import BufWriter

BLOCK = 128
MINIBLOCKS = 4
MB_VALUES = BLOCK // MINIBLOCKS  # 32
_I64MAX = np.int64(2**63 - 1)


def delta_binary_pack(w: BufWriter, values: np.ndarray) -> None:
    """Arithmetic wraps mod 2^32 for 32-bit inputs and mod 2^64 otherwise —
    decoders wrap at the column's physical width, so INT32 adjusted deltas
    must stay within 32 bits (parquet-cpp rejects bit widths > type width)."""
    count = len(values)
    w.varint(BLOCK)
    w.varint(MINIBLOCKS)
    w.varint(count)
    if count == 0:
        w.varint(0)
        return
    is32 = values.dtype.itemsize <= 4
    sdt, udt = (np.int32, np.uint32) if is32 else (np.int64, np.uint64)
    smax = np.int32(2**31 - 1) if is32 else _I64MAX
    v = values.astype(sdt, copy=False)
    w.zigzag(int(v[0]))
    if count == 1:
        return

    vu = v.astype(udt)
    deltas_u = vu[1:] - vu[:-1]  # mod 2^width
    n = len(deltas_u)
    nblocks = (n + BLOCK - 1) // BLOCK
    pad = nblocks * BLOCK - n

    deltas_s = deltas_u.view(sdt)
    if pad:
        deltas_s = np.concatenate([deltas_s, np.full(pad, smax, dtype=sdt)])
    blk = deltas_s.reshape(nblocks, BLOCK)
    min_delta = blk.min(axis=1)  # signed per block

    adjusted = (deltas_s.view(udt).reshape(nblocks, BLOCK)
                - min_delta.astype(udt)[:, None]).astype(np.uint64)
    if pad:
        adjusted[-1, BLOCK - pad :] = 0

    mb = adjusted.reshape(nblocks, MINIBLOCKS, MB_VALUES)
    mb_max = mb.max(axis=2)  # (nblocks, 4) uint64
    bit_widths = np.array(
        [int(x).bit_length() for x in mb_max.reshape(-1)], dtype=np.uint8
    ).reshape(nblocks, MINIBLOCKS)

    # group miniblocks by bitwidth; pack each group in one vectorized call
    flat_mb = mb.reshape(nblocks * MINIBLOCKS, MB_VALUES)
    flat_bw = bit_widths.reshape(-1)
    packed: dict[int, np.ndarray] = {}
    group_row: dict[int, np.ndarray] = {}
    for bw in np.unique(flat_bw):
        bw = int(bw)
        if bw == 0:
            continue
        rows = np.nonzero(flat_bw == bw)[0]
        vals = flat_mb[rows]  # (k, 32)
        bits = ((vals[:, :, None] >> np.arange(bw, dtype=np.uint64)) & 1).astype(np.uint8)
        packed[bw] = np.packbits(bits.reshape(len(rows), -1), axis=1, bitorder="little")
        group_row[bw] = rows
    # index: flat miniblock id -> packed row
    packed_lookup: dict[int, bytes] = {}
    for bw, rows in group_row.items():
        arr = packed[bw]
        for j, r in enumerate(rows):
            packed_lookup[int(r)] = arr[j].tobytes()

    for b in range(nblocks):
        w.zigzag(int(min_delta[b]))
        w.write(bit_widths[b].tobytes())
        base = b * MINIBLOCKS
        for m in range(MINIBLOCKS):
            bw = int(bit_widths[b, m])
            if bw:
                w.write(packed_lookup[base + m])


def delta_length_byte_array(w: BufWriter, lengths: np.ndarray, data: np.ndarray) -> None:
    """Delta-packed lengths (int32 space, per spec) + concatenated raw bytes."""
    delta_binary_pack(w, lengths.astype(np.int32, copy=False))
    w.write(memoryview(np.ascontiguousarray(data)))


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
