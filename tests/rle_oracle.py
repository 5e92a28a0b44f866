"""Frozen reference for the RLE / bit-packed hybrid kernels.

This is the encoder ``core/rle.py`` shipped before the one-pack-per-page
rewrite, kept verbatim in behaviour (including its bit-matrix packer) so
the fuzz tests in ``test_rle_kernels.py`` can require the new kernels to
produce the same bytes. It is test-only: nothing in the package imports
it.
"""
from __future__ import annotations

import numpy as np

from hyparquet_writer_ray.core.bufwriter import BufWriter


def pack_bits(values: np.ndarray, bit_width: int) -> bytes:
    """Bit-pack values (len must be a multiple of 8) LSB-first."""
    if bit_width == 0 or len(values) == 0:
        return b""
    v = values.astype(np.uint64, copy=False)
    bits = ((v[:, None] >> np.arange(bit_width, dtype=np.uint64)) & 1).astype(np.uint8)
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def _write_rle_run(w: BufWriter, value: int, count: int, bit_width: int) -> None:
    w.varint(count << 1)
    nbytes = (bit_width + 7) >> 3
    if nbytes:
        w.write(int(value).to_bytes(nbytes, "little"))


def _write_bitpacked(w: BufWriter, span: np.ndarray, bit_width: int) -> None:
    n = len(span)
    if n == 0:
        return
    pad = (-n) % 8
    if pad:
        span = np.concatenate([span, np.zeros(pad, dtype=span.dtype)])
    groups = len(span) // 8
    w.varint((groups << 1) | 1)
    w.write(pack_bits(span, bit_width))


def encode_rle_hybrid(values: np.ndarray, bit_width: int) -> bytes:
    """The hybrid encoding of ``values``."""
    w = BufWriter()
    n = len(values)
    if n == 0:
        return b""
    values = np.ascontiguousarray(values)
    change = np.nonzero(np.diff(values))[0] + 1
    run_starts = np.concatenate([[0], change]).astype(np.int64)
    run_ends = np.append(run_starts[1:], n)
    run_lengths = run_ends - run_starts
    candidates = np.nonzero(run_lengths >= 8)[0]

    pos = 0
    for ci in candidates:
        rstart = int(run_starts[ci])
        rlen = int(run_lengths[ci])
        lit_len = rstart - pos
        steal = (-lit_len) % 8
        if rlen - steal < 8:
            continue
        if lit_len + steal:
            _write_bitpacked(w, values[pos : rstart + steal], bit_width)
        _write_rle_run(w, int(values[rstart]), rlen - steal, bit_width)
        pos = rstart + rlen
    if pos < n:
        _write_bitpacked(w, values[pos:n], bit_width)
    return w.getvalue()
