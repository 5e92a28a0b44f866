"""Frozen reference for the DELTA_BINARY_PACKED kernel.

``delta_binary_pack`` is the encoder ``core/delta.py`` shipped before it
packed miniblocks through ``rle._pack_bits``: a Python
``int.bit_length()`` list for the miniblock widths, a ``(k, 32, bw)``
uint8 bit matrix per width for ``np.packbits``, and one write per
miniblock; ``delta_length_byte_array`` is the DELTA_LENGTH_BYTE_ARRAY
wrapper over it. Both are kept verbatim so ``test_delta_kernels.py``
(and the DELTA_BYTE_ARRAY oracle in ``plain_oracle.py``) can require
the new kernel to produce the same bytes. Test-only: nothing in the
package imports this module.
"""
from __future__ import annotations

import numpy as np

from hyparquet_writer_ray.core.bufwriter import BufWriter

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
