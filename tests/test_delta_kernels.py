"""Byte-for-byte fuzz of the DELTA_BINARY_PACKED kernel against the
frozen oracle in ``delta_oracle.py`` (the encoder before it packed
through ``rle._pack_bits``), and of the DELTA_LENGTH_BYTE_ARRAY and
DELTA_BYTE_ARRAY wrappers that call it. Output bytes are the contract,
so equality here is byte equality, not decode equality."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import delta_oracle as oracle
import plain_oracle
from hyparquet_writer_ray.core import arrays as A
from hyparquet_writer_ray.core.bufwriter import BufWriter
from hyparquet_writer_ray.core.delta import (
    delta_binary_pack,
    delta_byte_array,
    delta_length_byte_array,
)

COUNTS = (0, 1, 2, 127, 128, 129, 257)
# every value dtype ``A.fixed_values`` hands the kernel for INT32/INT64 leaves
ARROW_TYPES = (pa.int8(), pa.int16(), pa.int32(), pa.int64(), pa.uint8(),
               pa.uint16(), pa.uint32(), pa.uint64(), pa.date32(),
               pa.timestamp("ms"), pa.timestamp("us"))


def _equal(kernel, reference, *args) -> None:
    got, want = BufWriter(), BufWriter()
    got.write(b"prefix")  # the encoder appends; it must not touch earlier bytes
    want.write(b"prefix")
    kernel(got, *args)
    reference(want, *args)
    assert got.getvalue() == want.getvalue()


def _pack_equal(values: np.ndarray) -> None:
    _equal(delta_binary_pack, oracle.delta_binary_pack, values)


def _shapes(rng, dtype, n: int) -> list[np.ndarray]:
    """Random over the full range, sorted, constant, alternating min/max
    (every delta wraps) and constant runs with random steps between."""
    info = np.iinfo(dtype)
    rand = rng.integers(info.min, info.max, n, endpoint=True, dtype=dtype)
    runs = np.repeat(rand[: max(1, n // 40)], 40)[:n]
    return [rand, np.sort(rand), np.full(n, info.max, dtype),
            np.resize(np.array([info.min, info.max], dtype), n), runs]


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint8, np.uint16, np.uint32, np.uint64])
@pytest.mark.parametrize("n", COUNTS + (1_000,))
def test_numpy_values_match_oracle(dtype, n):
    rng = np.random.default_rng(n * 10 + np.dtype(dtype).itemsize)
    for values in _shapes(rng, dtype, n):
        _pack_equal(values)


@pytest.mark.parametrize("bit_width", range(0, 65))
def test_miniblock_widths_match_oracle(bit_width):
    """Deltas drawn below ``2**bit_width``, so miniblocks take that width
    (and its neighbours); 64-bit inputs reach width 64 mod 2^64."""
    rng = np.random.default_rng(3000 + bit_width)
    hi = (1 << bit_width) - 1
    for n in (129, 1_000):
        deltas = rng.integers(0, hi, n, endpoint=True, dtype=np.uint64)
        deltas[::50] = hi  # every block reaches the top of the range
        _pack_equal(np.cumsum(deltas, dtype=np.uint64).view(np.int64))
        if bit_width <= 32:
            _pack_equal(np.cumsum(deltas.astype(np.uint32), dtype=np.uint32).view(np.int32))


def test_int_extremes_match_oracle():
    for dtype in (np.int32, np.int64):
        info = np.iinfo(dtype)
        edge = np.array([info.min, info.max, 0, -1, 1, info.min, info.min, info.max],
                        dtype=dtype)
        for n in COUNTS:
            _pack_equal(np.resize(edge, n))
            _pack_equal(np.resize(edge[::-1], n))


@pytest.mark.parametrize("typ", ARROW_TYPES, ids=str)
def test_arrow_views_match_oracle(typ):
    """``A.fixed_values`` views of sliced arrays (nonzero offset), as
    the page loop hands them over, and strided numpy views."""
    rng = np.random.default_rng(len(str(typ)))
    storage = pa.int32() if typ == pa.date32() else pa.int64() if pa.types.is_timestamp(typ) \
        else typ
    info = np.iinfo(storage.to_pandas_dtype())
    raw = rng.integers(info.min, info.max, 700, endpoint=True,
                       dtype=storage.to_pandas_dtype())
    arr = pa.array(np.sort(raw)).cast(typ) if typ != storage else pa.array(raw, typ)
    for part in (arr, arr.slice(1), arr.slice(37, 300), arr.slice(699), arr.slice(5, 0)):
        values = A.fixed_values(part)
        _pack_equal(values)
        _pack_equal(values[::3])  # non-contiguous


def _byte_arrays(rng) -> list[tuple[np.ndarray, np.ndarray]]:
    out = []
    for n in COUNTS:
        lengths = rng.integers(0, 300, n)
        lengths[rng.random(n) < 0.2] = 0
        data = rng.integers(97, 100, int(lengths.sum()), dtype=np.uint8)
        out.append((lengths, data))
    return out


def _delta_length(w: BufWriter, lengths: np.ndarray, data: np.ndarray) -> None:
    """``delta_length_byte_array`` of the slots ``lengths`` / ``data``
    describe, appended to ``w``."""
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    w.write(delta_length_byte_array(A.ByteSlots(offsets, lengths, data, None, 0, 0))[0])


@pytest.mark.parametrize("seed", range(3))
def test_byte_array_wrappers_match_oracle(seed):
    for lengths, data in _byte_arrays(np.random.default_rng(seed)):
        _equal(_delta_length, oracle.delta_length_byte_array, lengths, data)
        _equal(delta_byte_array, plain_oracle.delta_byte_array, lengths, data)
