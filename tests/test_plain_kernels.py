"""Byte-for-byte fuzz of the BYTE_ARRAY value kernels against the frozen
oracles in ``plain_oracle.py``: ``plain_byte_array`` (the kernel's
slot layout, or the Arrow join) against the two-strategy encoder it
replaced, on each array's non-null values, and ``delta_byte_array``
against the version that built one index per data byte. Output bytes
are the contract, so equality here is byte equality."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import plain_oracle as oracle
from hyparquet_writer_ray.core import arrays as A
from hyparquet_writer_ray.core.bufwriter import BufWriter
from hyparquet_writer_ray.core.delta import delta_byte_array
from hyparquet_writer_ray.core.plain import plain_byte_array


def _data(rng, lengths) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.asarray(lengths, dtype=np.int64)
    return lengths, rng.integers(0, 256, int(lengths.sum()), dtype=np.uint8)


def _lengths(rng, case: str) -> np.ndarray:
    if case.startswith("n="):
        return rng.integers(0, 50, int(case[2:]))
    if case == "all_empty":
        return np.zeros(300, dtype=np.int64)
    if case == "empty_among_long":
        lengths = rng.integers(200, 2_000, 400)
        lengths[rng.random(400) < 0.3] = 0
        return lengths
    if case.startswith("mean="):
        # every value 32 +/- delta bytes: the old encoder's branch point
        mean = int(case[5:])
        return np.full(1_000, mean) + rng.integers(-1, 2, 1_000) * (mean != 32)
    return rng.integers(2_000, 12_000, 60)  # multi-KB


CASES = ("n=0", "n=1", "n=2", "all_empty", "empty_among_long",
         "mean=31", "mean=32", "mean=33", "multi_kb")


def _binary(lengths, data) -> pa.Array:
    """``lengths`` / ``data`` as a large_binary array, without a copy."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return pa.Array.from_buffers(pa.large_binary(), len(lengths), [
        None, pa.py_buffer(offsets), pa.py_buffer(data)])


def _plain_equal(arr: pa.Array) -> None:
    """The PLAIN layout of ``arr``'s slots is the oracle's of its values."""
    lengths, data = A.byte_array_values(arr.drop_null())
    got = bytes(plain_byte_array(A.byte_slots(arr))[0])
    assert got == bytes(oracle.plain_byte_array(lengths, data))
    assert len(got) == 4 * len(lengths) + data.nbytes


def _delta_equal(lengths, data) -> None:
    got, want = BufWriter(), BufWriter()
    got.write(b"prefix")  # the encoder appends; it must not touch earlier bytes
    want.write(b"prefix")
    delta_byte_array(got, lengths, data)
    oracle.delta_byte_array(want, lengths, data)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("seed", range(3))
def test_kernels_match_oracle(case, seed):
    rng = np.random.default_rng(seed)
    lengths, data = _data(rng, _lengths(rng, case))
    _plain_equal(_binary(lengths, data))
    _delta_equal(lengths, data)


def _arrow_inputs(rng) -> list[pa.Array]:
    words = ["", "a", "ab", "http://example.com/" + "x" * 40, "é" * 30, "z" * 3_000]
    py = [words[i] for i in rng.integers(0, len(words), 500)]
    py_nulls = [None if rng.random() < 0.1 else s for s in py]
    out = []
    for typ in (pa.string(), pa.binary(), pa.large_string()):
        vals = [s if s is None or typ != pa.binary() else s.encode() for s in py_nulls]
        arr = pa.array(vals, type=typ)
        out += [arr, arr.slice(37), arr.slice(101, 250), arr.slice(499), arr.slice(0, 0)]
        # the same values without nulls, sliced
        out.append(pa.array([v for v in vals if v is not None], type=typ).slice(3, 200))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_kernels_match_oracle_on_arrow_inputs(seed):
    for arr in _arrow_inputs(np.random.default_rng(seed)):
        _plain_equal(arr)
        _delta_equal(*A.byte_array_values(arr))


def _prefixed(rng, n: int, stem_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted values sharing long stems, so prefixes up to and past the
    64-byte cap are found."""
    stems = [bytes(rng.integers(97, 100, stem_len, dtype=np.uint8)) for _ in range(5)]
    vals = sorted(stems[int(rng.integers(0, 5))][: int(rng.integers(0, stem_len + 1))]
                  + bytes(rng.integers(97, 123, int(rng.integers(0, 20)), dtype=np.uint8))
                  for _ in range(n))
    lengths = np.array([len(v) for v in vals], dtype=np.int64)
    return lengths, np.frombuffer(b"".join(vals), dtype=np.uint8)


@pytest.mark.parametrize("stem_len", (8, 63, 64, 65, 200))
@pytest.mark.parametrize("n", (1, 2, 700))
def test_delta_byte_array_shared_prefixes_match_oracle(stem_len, n):
    _delta_equal(*_prefixed(np.random.default_rng(stem_len * 1_000 + n), n, stem_len))
