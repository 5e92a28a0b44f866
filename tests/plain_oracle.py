"""Frozen references for the BYTE_ARRAY value kernels.

``plain_byte_array`` is the two-strategy PLAIN encoder ``core/plain.py``
shipped before the one-Arrow-join rewrite (a byte scatter for short
values, a per-value slice loop for long ones), and ``delta_byte_array``
is the DELTA_BYTE_ARRAY encoder ``core/delta.py`` shipped before its
head and suffix gathers stopped materialising one index per data byte,
packing its prefix and suffix lengths with the frozen
``delta_oracle.delta_binary_pack`` rather than the kernel under test.
Both are kept verbatim in behaviour so ``test_plain_kernels.py`` can
require the new kernels to produce the same bytes. Test-only: nothing
in the package imports this module.
"""
from __future__ import annotations

import numpy as np

from delta_oracle import delta_binary_pack
from hyparquet_writer_ray.core.bufwriter import BufWriter

_PREFIX_CAP = 64


def plain_byte_array(lengths: np.ndarray, data: np.ndarray) -> memoryview:
    """BYTE_ARRAY: u32 little-endian length prefix + raw bytes per value."""
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


def delta_byte_array(w: BufWriter, lengths: np.ndarray, data: np.ndarray) -> None:
    """DELTA_BYTE_ARRAY: shared-prefix compression against the previous value."""
    n = len(lengths)
    if n == 0:
        delta_binary_pack(w, np.empty(0, np.int32))
        delta_binary_pack(w, np.empty(0, np.int32))
        return
    lengths = lengths.astype(np.int64, copy=False)
    value_base = np.concatenate([[0], np.cumsum(lengths)])

    # head matrix: first _PREFIX_CAP bytes of each value, zero-padded
    head = np.zeros((n, _PREFIX_CAP), dtype=np.uint8)
    if data.nbytes:
        owner = np.repeat(np.arange(n, dtype=np.int64), lengths)
        pos_in_value = np.arange(data.nbytes, dtype=np.int64) - value_base[owner]
        m = pos_in_value < _PREFIX_CAP
        head[owner[m], pos_in_value[m]] = data[m]

    prefix = np.zeros(n, dtype=np.int64)
    if n > 1:
        eq = head[1:] == head[:-1]
        matched = np.cumprod(eq, axis=1).sum(axis=1)
        prefix[1:] = np.minimum(matched, np.minimum(lengths[1:], lengths[:-1]))
    suffix = lengths - prefix

    delta_binary_pack(w, prefix.astype(np.int32))
    delta_binary_pack(w, suffix.astype(np.int32))
    # gather suffix bytes
    if data.nbytes:
        starts = value_base[:-1] + prefix
        keep = np.repeat(np.arange(n, dtype=np.int64), suffix)
        local = np.arange(int(suffix.sum()), dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(suffix)])[:-1], suffix
        )
        w.write(memoryview(data[starts[keep] + local]))
