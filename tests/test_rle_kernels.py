"""Byte-for-byte fuzz of the RLE / bit-packed hybrid kernels against the
frozen oracle in ``rle_oracle.py`` (the encoder before the
one-pack-per-page rewrite). Output bytes are the contract, so equality
here is byte equality, not decode equality."""
from __future__ import annotations

import numpy as np
import pytest

import rle_oracle as oracle
from hyparquet_writer_ray.core.bufwriter import BufWriter
from hyparquet_writer_ray.core.rle import _pack_bits, encode_rle_hybrid, write_rle_run

LENGTHS = (1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 4097)
SHAPES = ("random", "long_runs", "sparse_nulls", "periodic")


def _values(rng, shape: str, n: int, bit_width: int) -> np.ndarray:
    hi = (1 << bit_width) - 1
    if shape == "random":
        return rng.integers(0, hi, n, endpoint=True, dtype=np.uint64)
    if shape == "long_runs":
        runs = rng.integers(0, hi, n, endpoint=True, dtype=np.uint64)
        return np.repeat(runs, rng.integers(1, 40, n))[:n]
    if shape == "sparse_nulls":
        # definition levels of a nullable column with ~3% scattered nulls
        v = np.full(n, hi, dtype=np.uint64)
        v[rng.random(n) < 0.03] = 0
        return v
    pattern = rng.integers(0, hi, int(rng.integers(2, 12)), endpoint=True,
                           dtype=np.uint64)
    return np.tile(pattern, n // len(pattern) + 1)[:n]


def _encode(values: np.ndarray, bit_width: int) -> bytes:
    w = BufWriter()
    w.write(b"prefix")  # the encoder appends; it must not touch earlier bytes
    written = encode_rle_hybrid(w, values, bit_width)
    out = w.getvalue()
    assert out[:6] == b"prefix" and written == len(out) - 6
    return out[6:]


@pytest.mark.parametrize("bit_width", range(0, 33))
def test_hybrid_matches_oracle(bit_width):
    rng = np.random.default_rng(1000 + bit_width)
    dtypes = (np.uint8, np.uint32) if bit_width <= 8 else (np.uint32,)
    for dtype in dtypes:
        for shape in SHAPES:
            for n in LENGTHS:
                v = _values(rng, shape, n, bit_width).astype(dtype)
                assert _encode(v, bit_width) == oracle.encode_rle_hybrid(v, bit_width), \
                    (dtype.__name__, shape, n)


@pytest.mark.parametrize("bit_width", range(1, 65))
def test_pack_bits_matches_oracle(bit_width):
    rng = np.random.default_rng(2000 + bit_width)
    hi = (1 << bit_width) - 1
    dtype = np.uint8 if bit_width <= 8 else np.uint32 if bit_width <= 32 else np.uint64
    for n in (8, 16, 24, 64, 72, 4104):
        for v in (rng.integers(0, hi, n, endpoint=True, dtype=np.uint64),
                  np.full(n, hi, dtype=np.uint64)):
            v = v.astype(dtype)
            assert _pack_bits(v, bit_width) == oracle.pack_bits(v, bit_width), n


def test_empty_input_writes_nothing():
    w = BufWriter()
    assert encode_rle_hybrid(w, np.empty(0, np.uint8), 1) == 0 and w.offset == 0
    assert _pack_bits(np.empty(0, np.uint32), 5) == b""


@pytest.mark.parametrize("bit_width", [1, 2, 3, 8, 9])
def test_rle_run_is_the_encoding_of_a_constant(bit_width):
    """The page loop writes a no-null page's definition levels with
    ``write_rle_run``; it must equal what the encoder writes for them."""
    for n in (8, 9, 100, 65536):
        v = np.full(n, (1 << bit_width) - 1, dtype=np.uint8 if bit_width <= 8 else np.uint32)
        w = BufWriter()
        assert write_rle_run(w, (1 << bit_width) - 1, n, bit_width) == w.offset
        assert w.getvalue() == oracle.encode_rle_hybrid(v, bit_width)
