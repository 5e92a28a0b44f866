"""The dictionary decision and encode of ``chunk._try_dictionary``
against Arrow: ``pc.count_distinct`` over the first 1,000 values decides
accept or reject (more than half distinct rejects), and
``pc.dictionary_encode`` gives the dictionary and the indices. Fixed-width
chunks and equal-width 1/2/4/8-byte strings run on the compiled
kernel's ``dict_encode`` wherever a C compiler works; collected again by
``test_numpy_fallback``, the same tests hold Arrow's own path to the
same answers. Float NaN and -0.0 keys, whose place in Arrow's dictionary
depends on its hash, are handed back to Arrow."""
from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyparquet_writer_ray.core import _kernel
from hyparquet_writer_ray.core import arrays as A
from hyparquet_writer_ray.core import chunk as C
from hyparquet_writer_ray.core.options import ColumnSpec, WriteOptions
from hyparquet_writer_ray.core.schema import schema_from_arrow
from hyparquet_writer_ray.core.types import Encoding, leaf_columns

INT_TYPES = [pa.int8(), pa.int16(), pa.int32(), pa.int64(),
             pa.uint8(), pa.uint16(), pa.uint32(), pa.uint64()]
FIXED_TYPES = INT_TYPES + [pa.float32(), pa.float64(), pa.date32(),
                           pa.timestamp("us", tz="Europe/Paris")]
BYTE_TYPES = [pa.string(), pa.binary(), pa.large_string(), pa.large_binary()]
FORCED = ColumnSpec(encoding=Encoding.RLE_DICTIONARY)
NO_PAGE_RULE = WriteOptions(page_size=0)


def _leaf(t: pa.DataType):
    return leaf_columns(schema_from_arrow(pa.schema([pa.field("c", t, nullable=False)])))[0]


def _try_dictionary(values: pa.Array, leaf, spec: ColumnSpec, opts: WriteOptions):
    """``chunk._try_dictionary`` of the chunk ``values``, through its view."""
    return C._try_dictionary(C._Values(values, leaf), leaf, spec, opts)


def _pool(rng, t: pa.DataType, k: int, width: int) -> pa.Array:
    """k candidate values of type t (repeats allowed), floats with NaN
    (two payloads), -0.0, +0.0 and infinities among them."""
    if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t) \
            or pa.types.is_large_binary(t):
        raw = rng.integers(32, 127, k * width, dtype=np.uint8)
        offsets = np.arange(k + 1, dtype=A.offset_dtype(t)) * width
        return pa.Array.from_buffers(t, k, [None, pa.py_buffer(offsets), pa.py_buffer(raw)])
    if pa.types.is_floating(t):
        dt = np.float32 if t == pa.float32() else np.float64
        v = np.round(rng.normal(0, 100, k), int(rng.integers(0, 3))).astype(dt)
        special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf], dt)
        pick = rng.random(k) < rng.choice([0.0, 0.05])
        v[pick] = special[rng.integers(0, len(special), int(pick.sum()))]
        return pa.array(v, t)
    if pa.types.is_date32(t):
        return pa.array(rng.integers(-50_000, 50_000, k, dtype=np.int32), t)
    if pa.types.is_timestamp(t):
        return pa.array(rng.integers(-2**62, 2**62, k, dtype=np.int64), t)
    dt = t.to_pandas_dtype()
    info = np.iinfo(dt)
    return pa.array(rng.integers(info.min, info.max, k, endpoint=True, dtype=dt), t)


def _bits(arr: pa.Array) -> "list | bytes":
    """Values to compare exactly: a fixed-width value's bytes (a float's
    bits, not its value)."""
    if A.offset_dtype(arr.type) is not None:
        return arr.to_pylist()
    return A.fixed_values(arr).tobytes()


def _oracle(values: pa.Array, forced: bool):
    n_sample = min(len(values), C.DICT_SAMPLE)
    if not forced:
        if n_sample == 0:
            return None
        distinct = pc.count_distinct(values.slice(0, C.DICT_SAMPLE)).as_py()
        if distinct == 0 or distinct / n_sample > C.DICT_MAX_RATIO:
            return None
    enc = pc.dictionary_encode(values)
    return enc.dictionary, enc.indices.to_numpy()


def _check(values: pa.Array, forced: bool = False) -> "tuple | None":
    got = _try_dictionary(values, _leaf(values.type), FORCED if forced else ColumnSpec(),
                          NO_PAGE_RULE)
    want = _oracle(values, forced)
    assert (got is None) == (want is None)
    if got is not None:
        (dictionary, indices), (want_dict, want_idx) = got, want
        assert dictionary.type == want_dict.type
        assert _bits(dictionary) == _bits(want_dict)
        assert indices.dtype == np.uint32 and np.array_equal(indices, want_idx)
    return got


@settings(max_examples=300, deadline=None)
@given(typ=st.sampled_from(FIXED_TYPES + BYTE_TYPES), width=st.sampled_from([1, 2, 4, 8]),
       n=st.one_of(st.sampled_from([0, 1, 999, 1000, 1001]), st.integers(0, 3000)),
       k=st.one_of(st.sampled_from([1, 500, 501]), st.integers(1, 3000)),
       seed=st.integers(0, 2**32 - 1), start=st.integers(0, 40), forced=st.booleans(),
       odd=st.booleans())
def test_try_dictionary_matches_arrow(typ, width, n, k, seed, start, forced, odd):
    """Any chunk, sliced at a non-zero offset: the same decision,
    dictionary (type and bits) and indices as Arrow. ``odd`` appends a
    string of another width, which leaves the chunk to Arrow."""
    rng = np.random.default_rng(seed)
    pool = _pool(rng, typ, k, width)
    arr = pool.take(pa.array(rng.integers(0, k, start + n)))
    if odd and typ in BYTE_TYPES:
        arr = pa.concat_arrays([arr, pa.array([b"z" * (width + 1)]).cast(typ)])
    _check(arr.slice(start), forced)


@pytest.mark.parametrize("typ", [pa.int16(), pa.uint64(), pa.float64(), pa.date32(),
                                 pa.timestamp("ms", tz="UTC"), pa.string()])
@pytest.mark.parametrize("n,distinct,accepted", [
    (1000, 500, True),   # exactly half of the sample distinct: accepted
    (1000, 501, False),
    (999, 500, False),   # a short chunk is its own sample
    (1001, 500, True),   # the value past the sample is new, and still in
    (5, 1, True),        # all equal
    (1, 1, False),       # all distinct
    (600, 600, False),
])
def test_the_trial_boundary(typ, n, distinct, accepted):
    """The reference rule at its edges; a forced dictionary takes every
    chunk, all-distinct ones included."""
    t = pa.string() if typ == pa.string() else typ
    keys = np.arange(n) % distinct
    if n == 1001:
        keys[-1] = n  # the one value the sample does not see
    if t == pa.string():
        arr = pa.array([f"{x:04d}" for x in keys])  # four bytes each: integer keys
    elif pa.types.is_floating(t):
        arr = pa.array(keys.astype(np.float64) / 4, t)
    elif pa.types.is_date32(t):
        arr = pa.array(keys.astype(np.int32), t)
    else:
        arr = pa.array(keys.astype(np.int64)).cast(t)
    assert (_check(arr) is not None) == accepted
    dictionary, indices = _check(arr, forced=True)
    assert len(dictionary) == len(np.unique(keys))


@pytest.mark.parametrize("typ", BYTE_TYPES)
@pytest.mark.parametrize("vals", [
    ["ab", "c", "def"],               # 6 bytes in 3 values, first 2 long
    ["abcd", "", "abcdefgh", "abcd"],
    ["a", "b", "cd", "", "e"],
])
def test_unequal_widths_that_add_up_are_left_to_arrow(typ, vals):
    """A chunk whose total length is a multiple of its first value's
    width, but whose widths differ, is not read as integer keys."""
    _check(pa.array(vals * 300).cast(typ))
    _check(pa.array(vals * 300).cast(typ), forced=True)


def test_float_nan_and_signed_zero_are_handed_back(caplog):
    """The kernel stops at the first NaN or -0.0 it would insert; a
    +0.0 alone is an ordinary key, and a rejected trial never sees
    what follows its sample. Each chunk handed back logs one record."""
    if _kernel.get_kernel() is None:
        pytest.skip("no C compiler")
    for dt in (np.float32, np.float64):
        def status(values, trial=0, dt=dt):
            return _kernel.dict_encode(np.array(values, dt), trial)[0]

        assert status([1.0, 2.0, np.nan]) == _kernel.DICT_NAN
        assert status([-np.nan]) == _kernel.DICT_NAN
        assert status([0.0, -0.0]) == _kernel.DICT_SIGNED_ZERO
        assert status([-0.0, 0.0]) == _kernel.DICT_SIGNED_ZERO
        assert status([0.0, 1.0, 0.0, np.inf, -np.inf]) == 0
        assert status(list(range(1000)) + [np.nan], trial=1000) == _kernel.DICT_REJECTED
        assert status([1.0] * 1000 + [np.nan], trial=1000) == _kernel.DICT_NAN
    with caplog.at_level(logging.DEBUG, logger="hyparquet_writer_ray"):
        _check(pa.array([1.0, 2.0] * 600 + [np.nan]))
        _check(pa.array([0.0, -0.0] * 10, pa.float32()))
        _check(pa.array([0.0, 1.0] * 10))
    assert [r.getMessage() for r in caplog.records if r.name == "hyparquet_writer_ray"] == [
        "dictionary of column c left to Arrow: NaN",
        "dictionary of column c left to Arrow: signed zero",
    ]


def test_a_type_the_view_cannot_take_is_handed_back(caplog):
    """A fixed-width physical chunk whose Arrow type ``fixed_values``
    cannot view goes to Arrow, with one record naming the type."""
    if _kernel.get_kernel() is None:
        pytest.skip("no C compiler")
    values = pa.array(np.arange(20) % 3 * 86_400_000, pa.date64())
    with caplog.at_level(logging.DEBUG, logger="hyparquet_writer_ray"):
        dictionary, indices = _try_dictionary(values, _leaf(pa.int64()), ColumnSpec(),
                                              NO_PAGE_RULE)
    assert dictionary.equals(pc.dictionary_encode(values).dictionary)
    assert [r.getMessage() for r in caplog.records if r.name == "hyparquet_writer_ray"] == [
        "dictionary of column c left to Arrow: unsupported type date64[ms]"]


def test_a_rejected_chunk_hashes_its_sample_only(monkeypatch):
    """With the kernel, the trial is part of the encode: no
    ``count_distinct``, and a rejected chunk is decided by its first
    1,000 values whatever follows them."""
    if _kernel.get_kernel() is None:
        pytest.skip("no C compiler")
    monkeypatch.setattr(C.pc, "count_distinct", None)
    values = pa.array(np.concatenate([np.arange(1000), np.zeros(100_000, np.int64)]))
    assert _try_dictionary(values, _leaf(pa.int64()), ColumnSpec(), NO_PAGE_RULE) is None
    values = pa.array(np.concatenate([np.zeros(1000, np.int64), np.arange(5000)]))
    dictionary, _ = _try_dictionary(values, _leaf(pa.int64()), ColumnSpec(), NO_PAGE_RULE)
    assert len(dictionary) == 5000


@pytest.mark.parametrize("keys,trial", [
    (np.zeros((2, 2), np.int32), 0),
    (np.zeros(3, "V3"), 0),
    (np.zeros(3, bool), 0),
    (np.zeros(3, np.complex64), 0),
    (np.zeros(3, np.int32), -1),
])
def test_dict_encode_refuses_what_it_cannot_key(keys, trial):
    if _kernel.get_kernel() is None:
        pytest.skip("no C compiler")
    with pytest.raises(ValueError, match="dict_encode takes"):
        _kernel.dict_encode(keys, trial)
