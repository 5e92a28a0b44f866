"""``core/arrays.py:drop_null_fast`` against Arrow's own ``drop_null``."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from hyparquet_writer_ray.core import _kernel
from hyparquet_writer_ray.core import arrays as A

BYTE_TYPES = [pa.string(), pa.binary(), pa.large_string(), pa.large_binary()]


def _values(n: int, avg: int, typ: pa.DataType, seed: int = 0) -> pa.Array:
    rng = np.random.default_rng(seed)
    lens = rng.integers(0, 2 * avg + 1, n)
    data = rng.integers(97, 123, int(lens.sum()), dtype=np.uint8)
    return pa.array([bytes(b) for b in np.split(data, np.cumsum(lens)[:-1])],
                    pa.binary()).cast(typ)


def _nulls(values: pa.Array, mask: np.ndarray, canonical: bool) -> pa.Array:
    """``values`` with the slots of ``mask`` null: zero-length (as
    ``pa.array`` builds them) or owning their bytes (``pc.if_else``)."""
    if canonical:
        return pa.array([None if m else v for v, m in zip(values.to_pylist(), mask)],
                        values.type)
    return pc.if_else(pa.array(~mask), values, pa.scalar(None, values.type))


def _check(arr: pa.Array) -> pa.Array:
    got = A.drop_null_fast(arr)
    want = arr.drop_null()
    assert got.type == want.type and got.equals(want)
    got.validate(full=True)
    return got


@pytest.mark.parametrize("typ", BYTE_TYPES, ids=str)
@pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "if_else"])
@pytest.mark.parametrize("mask_name", [
    "none", "all", "leading", "trailing", "both_ends", "alternating", "sparse"])
def test_drop_null_fast_layouts(typ, canonical, mask_name):
    n = 300
    values = _values(n, 40, typ)
    i = np.arange(n)
    mask = {
        "none": np.zeros(n, bool),
        "all": np.ones(n, bool),
        "leading": i < 17,
        "trailing": i >= n - 23,
        "both_ends": (i < 5) | (i >= n - 5) | (i % 50 == 25),
        "alternating": i % 2 == 0,
        "sparse": np.random.default_rng(1).random(n) < 0.03,
    }[mask_name]
    arr = _nulls(values, mask, canonical)
    _check(arr)
    # a slice starts at a non-zero offset into every buffer
    for start, length in ((1, n - 1), (13, 200), (n - 40, 40), (7, 0)):
        _check(arr.slice(start, length))


@pytest.mark.parametrize("typ", BYTE_TYPES, ids=str)
@pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "if_else"])
@pytest.mark.parametrize("avg,frac", [(512, 0.02), (512, 0.1), (8, 0.02), (8, 0.5)])
def test_drop_null_fast_kernel_equals_drop_null(typ, canonical, avg, frac):
    """Long and short values in few or many runs, on both layouts: the
    offsets-only path (canonical) and the compaction kernel (null slots
    owning bytes) give ``drop_null``'s values without allocating the
    value bytes from Arrow's memory pool, which only ``drop_null``, the
    fallback without a compiler, does. The kernel's buffer holds
    exactly the valid bytes."""
    n = 5_000
    mask = np.random.default_rng(2).random(n) < frac
    arr = _nulls(_values(n, avg, typ), mask, canonical)
    before = pa.total_allocated_bytes()
    got = A.drop_null_fast(arr)
    pooled = pa.total_allocated_bytes() - before
    valid_bytes = pc.sum(pc.binary_length(arr)).as_py()
    kernel = not canonical and _kernel.get_kernel() is not None
    assert (pooled < valid_bytes) == (canonical or kernel)
    if kernel:
        assert got.buffers()[2].size == valid_bytes
    _check(arr)
    _check(arr.slice(101, n - 300))


@pytest.mark.parametrize("typ", BYTE_TYPES, ids=str)
def test_drop_null_fast_canonical_reuses_the_data_buffer(typ):
    n = 1_000
    mask = np.random.default_rng(3).random(n) < 0.1
    arr = _nulls(_values(n, 20, typ), mask, canonical=True)
    for a in (arr, arr.slice(37, 800)):
        got = _check(a)
        assert got.buffers()[2].address == a.buffers()[2].address


def test_drop_null_fast_other_types_and_no_nulls():
    ints = pa.array([1, None, 3, None], pa.int64())
    assert A.drop_null_fast(ints).equals(pa.array([1, 3], pa.int64()))
    full = _values(50, 10, pa.string())
    assert A.drop_null_fast(full) is full


def _full_unpack(buf, offset: int, n: int) -> np.ndarray:
    """The bits as the whole-bitmap unpack read them."""
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little")
    return bits[offset:offset + n].astype(bool)


def test_bitmaps_unpack_only_the_bytes_of_the_slice(monkeypatch):
    """``validity_mask`` and the boolean ``fixed_values`` of a slice equal
    the whole-bitmap unpack, at every offset (``offset % 8 != 0``
    included) and lengths 0-70, and unpack at most ``len // 8 + 2``
    bytes, however long the parent: masks of many slices of one long
    column cost their own lengths, not the parent's each time."""
    rng = np.random.default_rng(5)
    parent = pa.array(rng.random(4_000) < 0.5, mask=rng.random(4_000) < 0.3)
    seen = []
    unpack = np.unpackbits

    def counting(a, *args, **kwargs):
        seen.append(a.size)
        return unpack(a, *args, **kwargs)

    for offset in list(range(17)) + list(rng.integers(17, 3_900, 40)):
        for n in range(71):
            arr = parent.slice(int(offset), n)
            monkeypatch.setattr(np, "unpackbits", counting)
            seen.clear()
            mask, values = A.validity_mask(arr), A.fixed_values(arr)
            monkeypatch.setattr(np, "unpackbits", unpack)
            assert all(size <= n // 8 + 2 for size in seen), (offset, n, seen)
            o = arr.offset
            if arr.null_count:
                assert (mask == _full_unpack(arr.buffers()[0], o, n)).all()
            else:
                assert mask is None
            assert values.dtype == bool
            assert (values == _full_unpack(arr.buffers()[1], o, n)).all()
