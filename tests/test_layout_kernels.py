"""The compiled kernel's byte-array layouts against their fallbacks.

``compact_byte_array`` (``arrays.drop_null_fast`` on null slots that own
bytes) must give Arrow's ``drop_null``, and ``plain_byte_array``, which
lays out a string/binary array's valid slots straight from its own
buffers, must give the frozen two-strategy encoder of
``plain_oracle.py`` and, byte for byte, ``drop_null_fast`` followed by
the Arrow join: on sliced arrays (every bit offset 0-7), ``large_*``
offsets, empty and all-null arrays, zero-length values, arrays with no
bitmap, and null slots that own bytes or are canonical. Collected again
by ``test_numpy_fallback``, the same tests hold the fallbacks (Arrow's
``drop_null`` and the Arrow join) to the same answers."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delta_oracle
import plain_oracle as oracle
from hyparquet_writer_ray.core import _kernel
from hyparquet_writer_ray.core import arrays as A
from hyparquet_writer_ray.core.bufwriter import BufWriter
from hyparquet_writer_ray.core.delta import delta_length_byte_array
from hyparquet_writer_ray.core.plain import _joined, plain_byte_array
from hyparquet_writer_ray.core.statistics import compute_statistics, slot_statistics
from hyparquet_writer_ray.core.types import ParquetType, SchemaElement

BYTE_TYPES = [pa.string(), pa.binary(), pa.large_string(), pa.large_binary()]


def _array(rng, typ: pa.DataType, n: int, null_frac: float, empty_frac: float,
           owned: bool) -> pa.Array:
    """n values of 0-60 bytes (``empty_frac`` of them zero-length) with
    ``null_frac`` of the slots null: owning the bytes they had
    (``owned``) or zero-length, as ``pa.array`` builds them."""
    lens = rng.integers(0, 61, n) * (rng.random(n) >= empty_frac)
    data = rng.integers(97, 123, int(lens.sum()), dtype=np.uint8)
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(lens, out=offsets[1:])
    odt = A.offset_dtype(typ)
    values = pa.Array.from_buffers(typ, n, [
        None, pa.py_buffer(offsets.astype(odt)), pa.py_buffer(data)])
    valid = rng.random(n) >= null_frac
    if owned:
        bitmap = pa.py_buffer(np.packbits(valid, bitorder="little"))
        return pa.Array.from_buffers(typ, n, [bitmap] + values.buffers()[1:],
                                     null_count=int(n - valid.sum()))
    return pa.array([v if ok else None for v, ok in zip(values.to_pylist(), valid)], typ)


def _check_drop_null(arr: pa.Array) -> None:
    got = A.drop_null_fast(arr)
    want = arr.drop_null()
    got.validate(full=True)
    assert got.type == want.type and got.equals(want)
    if _kernel.get_kernel() is None or arr.null_count == 0 or arr.buffers()[2] is None:
        return
    # the entry point itself: offsets from 0 and exactly the valid bytes
    slots = A.byte_slots(arr)
    size = int(slots.lengths[A.validity_mask(arr)].sum())
    new_offs, data = _kernel.compact_byte_array(slots)
    lengths, want_data = A.byte_array_values(want)
    assert new_offs.dtype == A.offset_dtype(arr.type) and new_offs[0] == 0
    assert (np.diff(new_offs) == lengths).all()
    assert data.nbytes == size and bytes(data) == bytes(want_data)


def _check_plain(arr: pa.Array) -> None:
    """The slot layout of ``arr`` is the oracle's of its non-null values,
    written fresh, into a reused buffer too small for it, and into one
    large enough that still holds an earlier page's bytes."""
    lengths, data = A.byte_array_values(arr.drop_null())
    want = bytes(oracle.plain_byte_array(lengths, data))
    got = plain_byte_array(A.byte_slots(arr))[0]
    assert bytes(got) == want
    assert len(got) == 4 * len(lengths) + data.nbytes
    # at least 4 bytes per slot and every byte of the value buffer
    roomy = 4 * len(arr) + arr.buffers()[2].size + _kernel.SLACK
    for out in (np.full(3, 0xA5, np.uint8), np.full(roomy, 0xA5, np.uint8)):
        got = plain_byte_array(A.byte_slots(arr), out)[0]
        assert bytes(got) == want
        if _kernel.get_kernel() is not None:
            base = got.obj
            assert (base is out) == (out.size == roomy)
            # the slack FSST may read past the view is zeroed
            assert bytes(base[len(got):len(got) + _kernel.SLACK]) == bytes(_kernel.SLACK)


@settings(max_examples=200, deadline=None)
@given(typ=st.sampled_from(BYTE_TYPES), n=st.integers(0, 400),
       null_frac=st.sampled_from([0.0, 0.03, 0.5, 1.0]),
       empty_frac=st.sampled_from([0.0, 0.3, 1.0]), owned=st.booleans(),
       seed=st.integers(0, 2**32 - 1), start=st.integers(0, 50), length=st.integers(0, 400))
def test_layout_kernels_match_fallbacks(typ, n, null_frac, empty_frac, owned, seed,
                                        start, length):
    arr = _array(np.random.default_rng(seed), typ, n, null_frac, empty_frac, owned)
    # a slice starts at a non-zero offset into every buffer
    for a in (arr, arr.slice(min(start, n)), arr.slice(min(start, n), length)):
        _check_drop_null(a)
        _check_plain(a)
        _check_plain(A.drop_null_fast(a))


@settings(max_examples=300, deadline=None)
@given(typ=st.sampled_from(BYTE_TYPES), n=st.integers(0, 300),
       null_frac=st.sampled_from([0.0, 0.03, 0.5, 1.0]),
       empty_frac=st.sampled_from([0.0, 0.3, 1.0]), owned=st.booleans(),
       seed=st.integers(0, 2**32 - 1), bit_offset=st.integers(0, 7),
       bytes_before=st.sampled_from([0, 1, 3]), length=st.integers(0, 300))
def test_slot_layout_matches_drop_null_and_join(typ, n, null_frac, empty_frac, owned, seed,
                                                bit_offset, bytes_before, length):
    """``plain_byte_array`` of a slice starting at every bit offset of its
    bitmap equals ``drop_null_fast`` of the slice followed by the Arrow
    join, byte for byte; so do slices with no nulls, whose bitmap the
    kernel is handed as NULL, and arrays with no bitmap at all."""
    arr = _array(np.random.default_rng(seed), typ, n, null_frac, empty_frac, owned)
    start = min(8 * bytes_before + bit_offset, n)
    for a in (arr.slice(start), arr.slice(start, length)):
        want = bytes(_joined(A.byte_slots(A.drop_null_fast(a))))
        assert bytes(plain_byte_array(A.byte_slots(a))[0]) == want
        valid = A.validity_mask(a)
        if valid is not None and valid.any():
            # a run of valid slots: a bitmap, but no null among its slots
            first = int(np.argmax(valid))
            run = int(np.argmin(valid[first:])) or len(valid) - first
            b = a.slice(first, run)
            assert b.null_count == 0 and b.buffers()[0] is not None
            assert bytes(plain_byte_array(A.byte_slots(b))[0]) == bytes(_joined(A.byte_slots(b)))


@settings(max_examples=200, deadline=None)
@given(typ=st.sampled_from(BYTE_TYPES), n=st.integers(0, 300),
       null_frac=st.sampled_from([0.0, 0.03, 0.5, 1.0]), owned=st.booleans(),
       seed=st.integers(0, 2**32 - 1), start=st.integers(0, 300), length=st.integers(0, 300))
def test_slot_slices_read_as_the_slices_slots(typ, n, null_frac, owned, seed, start, length):
    """A page's slice of a chunk's checked slots (``ByteSlots.slice``:
    its offsets, the bitmap from its first bit, its null count) reads
    as the checked slots of the Arrow slice: the same PLAIN layout,
    validity, span and compacted values, so the page loop takes each
    page from the chunk's one check."""
    arr = _array(np.random.default_rng(seed), typ, n, null_frac, 0.2, owned)
    start = min(start, n)
    page = arr.slice(start, length)
    got = A.byte_slots(arr).slice(start, start + len(page), page.null_count)
    want = A.byte_slots(page)
    assert bytes(plain_byte_array(got)[0]) == bytes(plain_byte_array(want)[0])
    assert bytes(got.span()) == bytes(want.span())
    assert (got.lengths == want.lengths).all()
    valid = got.valid()
    assert (valid is None) == (page.null_count == 0)
    if valid is not None:
        assert (valid == A.validity_mask(page)).all()
    compact, compact_slots = A.compacted(page, got, valid)
    assert compact.equals(page.drop_null())
    assert (compact_slots.lengths == A.byte_slots(page.drop_null()).lengths).all()
    assert bytes(compact_slots.span()) == bytes(A.byte_slots(compact).span())


# tokens whose concatenations tie on their 8-byte keys and differ later,
# are prefixes of one another (b"ab" < b"ab\x00"), are empty, or hold
# 0x00 and 0xFF bytes; a string column's tokens are valid UTF-8
BIN_TOKENS = [b"", b"\x00", b"\x01", b"a", b"ab", b"\x7f", b"\x80", b"\xfe", b"\xff",
              b"abcdefgh", b"\xff" * 9]
STR_TOKENS = [t.encode() for t in ("", "\x00", "\x01", "a", "ab", "\x7f", "\xe9",
                                    "\uffff", "\U0010ffff", "abcdefgh")]


def _tricky(rng, typ: pa.DataType, n: int, null_frac: float) -> pa.Array:
    """n values built from a few shared stems and random token tails,
    ``null_frac`` of the slots null and owning the bytes they had."""
    text = pa.types.is_string(typ) or pa.types.is_large_string(typ)
    tokens = STR_TOKENS if text else BIN_TOKENS
    word = lambda k: b"".join(tokens[i] for i in rng.integers(0, len(tokens), k))  # noqa: E731
    stems = [word(int(k)) for k in rng.integers(0, 4, 4)]
    values = [stems[int(rng.integers(0, 4))] + word(int(rng.integers(0, 4))) for _ in range(n)]
    if n:
        # over 16 bytes, led by the largest first byte the type allows:
        # a binary max's truncation falls back to the whole value
        values[int(rng.integers(0, n))] = "\U0010ffff".encode() * 5 if text \
            else b"\xff" * 17 + b"\x01"
    offsets = np.concatenate([[0], np.cumsum([len(v) for v in values])]).astype(A.offset_dtype(typ))
    valid = rng.random(n) >= null_frac
    return pa.Array.from_buffers(typ, n, [
        pa.py_buffer(np.packbits(valid, bitorder="little")), pa.py_buffer(offsets),
        pa.py_buffer(b"".join(values))], null_count=int(n - valid.sum()))


BYTE_ARRAY = SchemaElement(name="c", type=ParquetType.BYTE_ARRAY)


def _check_bounds(page: pa.Array, body, bounds, want_body: bytes) -> None:
    """``body`` is ``want_body``; ``bounds`` (None without the kernel) are
    the first valid slots holding ``pc.min_max``'s values of ``page``,
    and give ``compute_statistics``'s ``Stats`` through
    ``slot_statistics``."""
    assert bytes(body) == want_body
    if _kernel.get_kernel() is None:
        assert bounds is None
        return
    slots = A.byte_slots(page)
    mm = pc.min_max(page)
    valid = A.validity_mask(page)
    values = [bytes(slots.data[slots.offsets[i]:slots.offsets[i + 1]])
              for i in range(len(page))]
    for slot, want in zip(bounds, (mm["min"].as_py(), mm["max"].as_py())):
        if want is None:
            assert slot == -1
            continue
        want = want.encode() if isinstance(want, str) else want
        first = next(i for i, v in enumerate(values)
                     if v == want and (valid is None or valid[i]))
        assert slot == first, (slot, first, values[slot], want)
    assert slot_statistics(slots, bounds, page.type, BYTE_ARRAY, page.null_count) == \
        compute_statistics(page, BYTE_ARRAY, page.null_count)


@settings(max_examples=300, deadline=None)
@given(typ=st.sampled_from(BYTE_TYPES), n=st.integers(0, 120),
       null_frac=st.sampled_from([0.0, 0.2, 0.9, 1.0]), seed=st.integers(0, 2**32 - 1),
       bit_offset=st.integers(0, 7), length=st.integers(0, 120))
def test_page_bounds_match_min_max(typ, n, null_frac, seed, bit_offset, length):
    """The bounds PLAIN and DELTA_LENGTH_BYTE_ARRAY bodies return with
    their bytes are the first slots of ``pc.min_max``'s values, in its
    order (unsigned bytes, a prefix first), on values that tie on their
    8-byte keys, prefixes of one another, 0x00 and 0xFF bytes, empty
    values, null slots that own bytes, slices at every bit offset and
    all-null pages; and ``slot_statistics`` of them is
    ``compute_statistics`` of the page."""
    arr = _tricky(np.random.default_rng(seed), typ, n, null_frac)
    for page in (arr, arr.slice(min(bit_offset, n)), arr.slice(min(bit_offset, n), length)):
        lengths, data = A.byte_array_values(page.drop_null())
        want = BufWriter()
        delta_oracle.delta_length_byte_array(want, lengths, data)
        slots = A.byte_slots(page)
        _check_bounds(page, *plain_byte_array(slots),
                      bytes(oracle.plain_byte_array(lengths, data)))
        _check_bounds(page, *delta_length_byte_array(slots), want.getvalue())
        # into a reused buffer that still holds another page's bytes
        out = np.full(4 * len(page) + len(data) + 4096, 0xA5, np.uint8)
        _check_bounds(page, *delta_length_byte_array(slots, out), want.getvalue())


HAND_PICKED = [
    [b"ab\x00", b"ab"], [b"ab", b"ab\x00", b"ab"], [b"abcdefghZ", b"abcdefghA", b"abcdefgh"],
    [b"\x00", b""], [b"\x00" * 9, b"\x00" * 8, b"\x00" * 10], [b"\x7f" * 3, b"\x7f\x7f"],
    [b"\xff" * 20, b"\xff" * 19, b"\xfe" + b"\xff" * 30], [b"a\xff", b"a\x00\xff", b"a"],
]


def _utf8(values: list) -> bool:
    try:
        for v in values:
            v.decode()
    except UnicodeDecodeError:
        return False
    return True


@pytest.mark.parametrize("typ,values", [
    (typ, [v.decode() for v in values] if text else values)
    for typ in BYTE_TYPES for values in HAND_PICKED
    for text in [pa.types.is_string(typ) or pa.types.is_large_string(typ)]
    if not text or _utf8(values)], ids=repr)
def test_page_bounds_of_hand_picked_values(typ, values):
    """Pages on which an 8-byte key alone would order wrongly: a value
    and its prefix, keys equal past the value's end, and 0xFF runs
    (binary only; a string column takes the valid UTF-8 cases)."""
    for page in (pa.array(values, typ), pa.array([None] + values, typ).slice(1)):
        lengths, data = A.byte_array_values(page)
        want = BufWriter()
        delta_oracle.delta_length_byte_array(want, lengths, data)
        slots = A.byte_slots(page)
        _check_bounds(page, *plain_byte_array(slots), bytes(oracle.plain_byte_array(lengths, data)))
        _check_bounds(page, *delta_length_byte_array(slots), want.getvalue())


@pytest.mark.parametrize("typ", BYTE_TYPES, ids=str)
@pytest.mark.parametrize("owned", [True, False], ids=["owned", "canonical"])
@pytest.mark.parametrize("case", ["empty", "all_null", "all_zero_length", "one_valid"])
def test_layout_kernels_edge_cases(typ, owned, case):
    rng = np.random.default_rng(0)
    arr = {
        "empty": lambda: _array(rng, typ, 0, 0.5, 0.0, owned),
        "all_null": lambda: _array(rng, typ, 300, 1.0, 0.0, owned),
        "all_zero_length": lambda: _array(rng, typ, 300, 0.5, 1.0, owned),
        "one_valid": lambda: _array(rng, typ, 300, 0.999, 0.0, owned),
    }[case]()
    for a in (arr, arr.slice(7), arr.slice(len(arr) // 2, 0)):
        _check_drop_null(a)
        _check_plain(a)


GUARD = 64


def _guarded(size: int) -> np.ndarray:
    return np.full(size + GUARD, 0xA5, np.uint8)


@pytest.fixture
def lib():
    lib = _kernel.get_kernel()
    if lib is None:
        pytest.skip("no C compiler")
    return lib


@pytest.mark.parametrize("typ", BYTE_TYPES, ids=str)
def test_layout_kernels_stay_within_their_bounds(lib, typ):
    """Each entry point writes exactly the bytes its comment states and
    nothing past them."""
    rng = np.random.default_rng(1)
    for n, null_frac in ((0, 0.0), (1, 0.0), (1, 1.0), (500, 0.2), (500, 1.0)):
        arr = _array(rng, typ, n, null_frac, 0.2, owned=True)
        odt = A.offset_dtype(typ)
        offs = np.frombuffer(arr.buffers()[1], odt, count=n + 1)
        valid = A.validity_mask(arr)
        valid = np.ones(n, np.uint8) if valid is None else valid.astype(np.uint8)
        bits = np.frombuffer(arr.buffers()[0], np.uint8) if arr.null_count else None
        src = np.frombuffer(arr.buffers()[2], np.uint8)
        for start in range(min(n, 8) + 1):
            # slots [start, n): the bitmap's bit offset is start % 8
            size = int(np.diff(offs[start:])[valid[start:] == 1].sum())
            out = _guarded(size)
            out_off = _guarded((int(valid[start:].sum()) + 1) * np.dtype(odt).itemsize)
            m = lib.compact_byte_array(offs[start:].ctypes.data, odt is np.int64,
                                       None if bits is None else bits[start // 8:].ctypes.data,
                                       start % 8, n - start, src.ctypes.data,
                                       out_off.ctypes.data, out.ctypes.data)
            assert m == size
            assert (out[size:] == 0xA5).all() and (out_off[-GUARD:] == 0xA5).all()

        for start in range(min(n, 8) + 1):
            # slots [start, n): the bitmap's bit offset is start % 8
            args = (offs[start:].ctypes.data, odt is np.int64,
                    None if bits is None else bits[start // 8:].ctypes.data,
                    start % 8, n - start, src.ctypes.data)
            kept = valid[start:] == 1
            lengths = np.diff(offs[start:])[kept]
            head = len(_kernel.delta_binary_pack(lengths.astype(np.int32)))
            for entry, size in ((lib.plain_byte_array, 4 * len(lengths) + int(lengths.sum())),
                                (lib.delta_length_byte_array, head + int(lengths.sum()))):
                out = _guarded(size)
                bounds = np.full(2 + GUARD, -7, np.int64)
                assert entry(*args, out.ctypes.data, bounds.ctypes.data) == size
                assert (out[size:] == 0xA5).all() and (bounds[2:] == -7).all()
                assert (bounds[:2] == -1).all() == (not kept.any())
            hashes = np.full(len(lengths) + GUARD, 7, np.uint64)
            assert lib.xxhash64_slots(*args, hashes.ctypes.data) == len(lengths)
            assert (hashes[len(lengths):] == 7).all()


def test_layout_kernels_refuse_inconsistent_inputs():
    """Compaction reads the slots through ``arrays.byte_slots``, which
    checks what the C code trusts before it passes pointers: offsets that
    run past the value buffer, or too few of them for the slots, raise
    instead of reading out of bounds."""
    for offsets, n in (([0, 3, 9], 2), ([0, 3], 2)):
        arr = _Unchecked(pa.binary(), n, b"\x01", np.array(offsets, np.int32), b"abcdef",
                         null_count=1)
        with pytest.raises(ValueError, match="offsets"):
            A.drop_null_fast(arr)


class _Unchecked:
    """What ``arrays.byte_slots`` reads of an Arrow array, built without
    the checks ``pa.Array.from_buffers`` makes."""

    def __init__(self, typ, n, bitmap, offsets, data, null_count=0, offset=0):
        self.type, self._n, self.offset, self.null_count = typ, n, offset, null_count
        self._buffers = [None if bitmap is None else pa.py_buffer(bitmap),
                         pa.py_buffer(offsets), pa.py_buffer(data)]

    def __len__(self):
        return self._n

    def buffers(self):
        return self._buffers


@pytest.mark.parametrize("typ", BYTE_TYPES, ids=str)
def test_plain_byte_array_refuses_decreasing_offsets(typ):
    """A decreasing offset, and one past the last offset, which would
    have the kernel read outside the slots' bytes, raise."""
    odt = A.offset_dtype(typ)
    for offsets in ([0, 5, 2, 6], [0, 9, 4, 6]):
        arr = pa.Array.from_buffers(typ, 3, [None, pa.py_buffer(np.array(offsets, odt)),
                                             pa.py_buffer(b"abcdefghij")])
        with pytest.raises(ValueError, match="offsets decrease"):
            plain_byte_array(A.byte_slots(arr))


@pytest.mark.parametrize("typ", BYTE_TYPES, ids=str)
def test_plain_byte_array_refuses_offsets_outside_the_data(typ):
    odt = A.offset_dtype(typ)
    for offsets in ([0, 3, 9], [-1, 3, 6]):
        arr = _Unchecked(typ, 2, None, np.array(offsets, odt), b"abcdef")
        with pytest.raises(ValueError, match="offsets leave the value buffer"):
            plain_byte_array(A.byte_slots(arr))
    arr = _Unchecked(typ, 4, None, np.array([0, 1, 2], odt), b"abcdef")
    with pytest.raises(ValueError, match="offsets buffer is too short"):
        plain_byte_array(A.byte_slots(arr))


@pytest.mark.parametrize("typ", BYTE_TYPES, ids=str)
def test_plain_byte_array_refuses_a_short_bitmap(typ):
    odt = A.offset_dtype(typ)
    offsets = np.arange(21, dtype=odt)
    # 20 slots from slot 5 need bits 5..24: three bytes, not two
    arr = _Unchecked(typ, 15, b"\xff\x0f", offsets, b"a" * 20, null_count=1, offset=5)
    with pytest.raises(ValueError, match="bitmap is too short"):
        plain_byte_array(A.byte_slots(arr))


def test_plain_byte_array_refuses_other_types():
    with pytest.raises(ValueError, match="string/binary"):
        plain_byte_array(A.byte_slots(pa.array([1, 2, 3])))


def test_plain_byte_array_view_is_scanned_in_place(lib):
    """The kernel's PLAIN view ends ``SLACK`` zero bytes before its
    buffer does, so FSST reads it without a padded copy and gives the
    codes of the same bytes copied."""
    from hyparquet_writer_ray.core import fsst as F

    arr = _array(np.random.default_rng(2), pa.string(), 2_000, 0.0, 0.1, owned=False)
    view = plain_byte_array(A.byte_slots(arr))[0]
    base = view.obj
    assert bytes(base[len(view):]) == bytes(_kernel.SLACK)
    assert _kernel._slack_follows(view, np.frombuffer(view, np.uint8))
    assert not _kernel._slack_follows(bytes(view), np.frombuffer(bytes(view), np.uint8))
    # a view that ends short of the slack is copied, not read past
    short = memoryview(base)[: len(base) - 3]
    assert not _kernel._slack_follows(short, np.frombuffer(short, np.uint8))
    table = F.train(bytes(view)[:F.TRAIN_SAMPLE_BYTES])
    assert bytes(F.compress(view, table)) == bytes(F.compress(bytes(view), table))
    assert bytes(F.compress(short, table)) == bytes(F.compress(bytes(short), table))
