"""Parquet RLE / bit-packed hybrid encoding.

Semantics match the reference (src/encoding.js:12-106): runs of >= 8
equal values become RLE runs ``varint(count<<1) + value``; everything
else is bit-packed in groups of 8 values with header
``varint(groups<<1|1)``, LSB-first bit order. Exact byte stream may
differ from the reference (both are valid parquet); correctness is
decode equality through pyarrow/duckdb.

:func:`encode_rle_hybrid` is the entry point. It runs the compiled
kernel's ``rle_hybrid`` (``_kernel``), which writes the whole stream in
one C pass, whenever a C compiler works and the width is at most 32
bits. Its numpy body below is the fallback without one, and gives the
same bytes in three steps:

1. *Segment plan.* The runs of length >= 8 are found with vectorized
   shifted-equality masks (:func:`_long_runs`); only they are visited
   in Python. Each such run is taken greedily: the literal before it
   is padded to a multiple of 8 by "stealing" values from the run's
   head, and the run is kept only if at least 8 values remain after
   the steal (else it folds into the literals). High-entropy data
   (dictionary indexes) has few such runs, low-entropy data
   (definition levels) has few runs overall.
2. *One pack.* Every bit-packed literal of the call is gathered into
   one zero-padded ``uint64`` array and packed by a single
   :func:`_pack_bits` call, so the cost per literal is one slice copy,
   not one packer call.
3. *Emit.* Headers, slices of the packed bytes and run values are
   appended to the writer in plan order.

:func:`_pack_bits` is the fallback's packer, and that of the numpy
``delta_binary_pack``; :func:`write_rle_run` writes one run.
"""
from __future__ import annotations

import numpy as np

from . import _kernel
from .bufwriter import BufWriter


_SHIFT = np.arange(65, dtype=np.uint64)


def _pack_bits(values: np.ndarray, bit_width: int) -> bytes:
    """Bit-pack values (len must be a multiple of 8) LSB-first.

    Each group of 8 values is ``8 * bit_width`` bits, i.e. ``bit_width``
    bytes: it is built in ``ceil(bit_width / 8)`` little-endian
    ``uint64`` words with one shift-OR per value (plus one for a value
    that straddles two words), and the words' low ``bit_width`` bytes
    are the output. Values must fit in ``bit_width`` bits."""
    if bit_width == 0 or len(values) == 0:
        return b""
    v = values.astype(np.uint64, copy=False).reshape(-1, 8)
    words = np.zeros(((bit_width + 7) >> 3, len(v)), dtype=np.uint64)
    for k in range(8):
        bit = k * bit_width
        wi, off = bit >> 6, bit & 63
        col = v[:, k]
        words[wi] |= col << _SHIFT[off]
        if off + bit_width > 64:
            words[wi + 1] |= col >> _SHIFT[64 - off]
    group_bytes = np.ascontiguousarray(words.T).view("<u1")[:, :bit_width]
    return np.ascontiguousarray(group_bytes).tobytes()


def write_rle_run(w: BufWriter, value: int, count: int, bit_width: int) -> int:
    """Append one RLE run, ``varint(count<<1)`` + value in
    ``ceil(bit_width/8)`` bytes; returns bytes written."""
    start = w.offset
    w.varint(count << 1)
    w.write(value.to_bytes((bit_width + 7) >> 3, "little"))
    return w.offset - start


def _long_runs(values: np.ndarray) -> tuple[list[int], list[int]]:
    """(starts, lengths) of the maximal runs of >= 8 equal values.

    ``same[i]`` ends up true iff ``values[i:i+8]`` are all equal (three
    ANDs of shifted equality masks, 1 byte per slot), so no per-run
    array is built for high-entropy input; a true stretch
    ``same[i:j]`` is the run ``values[i:j+7]``."""
    same = values[1:] == values[:-1]  # values[i:i+2] equal
    same = same[:-1] & same[1:]  # values[i:i+3]
    same = same[:-2] & same[2:]  # values[i:i+5]
    same = same[:-3] & same[3:]  # values[i:i+8]
    edges = np.flatnonzero(np.diff(same, prepend=False, append=False))
    starts = edges[0::2]
    return starts.tolist(), (edges[1::2] + 7 - starts).tolist()


def encode_rle_hybrid(w: BufWriter, values: np.ndarray, bit_width: int) -> int:
    """Append the hybrid encoding of ``values`` to ``w``; returns bytes written."""
    n = len(values)
    if n == 0:
        return 0
    stream = _kernel.rle_hybrid(values, bit_width)
    if stream is not None:
        w.write(stream)
        return len(stream)
    values = np.ascontiguousarray(values)
    # 1. segment plan: (literal start, literal end, run start, run count)
    plan = []
    pos = 0
    for rstart, rlen in zip(*_long_runs(values)) if n >= 8 else ():
        steal = (pos - rstart) % 8
        if rlen - steal < 8:
            continue  # run too short once aligned; fold into literals
        plan.append((pos, rstart + steal, rstart, rlen - steal))
        pos = rstart + rlen
    if pos < n:
        plan.append((pos, n, n, 0))  # trailing literal, no run

    # 2. gather every literal, zero-padded to whole groups, and pack once
    padded = sum((b - a + 7) & ~7 for a, b, _, _ in plan)
    lit = np.zeros(padded, dtype=np.uint64)
    d = 0
    for a, b, _, _ in plan:
        lit[d : d + b - a] = values[a:b]
        d += (b - a + 7) & ~7
    packed = memoryview(_pack_bits(lit, bit_width))

    # 3. emit headers, packed slices and run values in plan order
    start = w.offset
    run_values = iter(values[[r for _, _, r, c in plan if c]].tolist())
    value_bytes = (bit_width + 7) >> 3
    off = 0
    for a, b, _, count in plan:
        if b > a:
            groups = (b - a + 7) >> 3
            w.varint((groups << 1) | 1)
            w.write(packed[off : off + groups * bit_width])
            off += groups * bit_width
        if count:  # the same bytes as write_rle_run, without a call per run
            w.varint(count << 1)
            w.write(next(run_values).to_bytes(value_bytes, "little"))
    return w.offset - start


def bit_width_of(max_value: int) -> int:
    return int(max_value).bit_length()
