"""A nullable string/binary column whose null slots own bytes (what
``pc.if_else`` builds) encodes exactly as its canonical twin,
``pa.array(col.to_pylist(), col.type)``, whose null slots are empty:
the same chunk blob and the same ``ChunkMeta``.

``encode_chunk`` keeps such a column as its slots and never compacts it
as a whole, so each path that reads its values sees the null slots'
bytes unless it skips them: PLAIN pages (the kernel's slot layout, or
the page compacted and joined without a compiler), FSST pages and the
FSST training sample, DELTA_LENGTH_BYTE_ARRAY and DELTA_BYTE_ARRAY
pages, the dictionary (accepted, rejected by the trial, forced, and
the equal-width-key path), the bloom filter, the page index and the
page bounds. Inputs are sliced at non-zero offsets and include all-null
pages, empty values and 1 KiB pages. Each case runs with the compiled
kernel and without it. Since a fault that ignores null slots altogether
hits both twins alike, the fixed cases also decode the file, and the
first-values helper, the dictionary trial and the equal-width keys are
checked against the column's values."""
from __future__ import annotations

import contextlib
import io

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyparquet_writer_ray import write_table_to_bytes
from hyparquet_writer_ray.core import _kernel
from hyparquet_writer_ray.core import arrays as A
from hyparquet_writer_ray.core import chunk as C
from hyparquet_writer_ray.core.chunk import encode_chunk
from hyparquet_writer_ray.core.options import ColumnSpec, WriteOptions
from hyparquet_writer_ray.core.reader import read_byte_array_column
from hyparquet_writer_ray.core.schema import schema_from_arrow
from hyparquet_writer_ray.core.types import Encoding, leaf_columns

BYTE_TYPES = [pa.string(), pa.binary(), pa.large_string(), pa.large_binary()]
SPECS = {
    "plain": ColumnSpec(encoding=Encoding.PLAIN),
    "fsst": ColumnSpec(fsst=True),
    "delta_length": ColumnSpec(encoding=Encoding.DELTA_LENGTH_BYTE_ARRAY),
    "delta_byte_array": ColumnSpec(encoding=Encoding.DELTA_BYTE_ARRAY),
    "dictionary": ColumnSpec(),  # the trial accepts or rejects it
    "dictionary_forced": ColumnSpec(encoding=Encoding.RLE_DICTIONARY),
    "bloom": ColumnSpec(bloom_filter=True),
    # bloom and the DELTA pages, bloom and the FSST sample: each reads
    # the compacted values or a prefix of them
    "bloom_delta_length": ColumnSpec(bloom_filter=True,
                                     encoding=Encoding.DELTA_LENGTH_BYTE_ARRAY),
    "fsst_bloom": ColumnSpec(fsst=True, bloom_filter=True),
    "no_page_index": ColumnSpec(column_index=False, offset_index=False),
}


@contextlib.contextmanager
def _kernel_off(off: bool):
    """The compiled kernel disabled inside the block when ``off``."""
    saved = _kernel._tried, _kernel._lib
    if off:
        _kernel._tried, _kernel._lib = True, None
    try:
        yield
    finally:
        _kernel._tried, _kernel._lib = saved


def _owned(rng, typ: pa.DataType, n: int, null_frac: float, empty_frac: float,
           distinct: int, width: "int | None", null_run: bool) -> pa.Array:
    """n slots whose null ones own 1-9 bytes: values drawn from a pool of
    ``distinct`` values, each ``width`` bytes long (or 0-40 bytes when
    None, ``empty_frac`` of them empty), and, with ``null_run``, a run
    of 300 null slots that fills whole 1 KiB pages."""
    if width is None:
        lens = rng.integers(0, 41, distinct) * (rng.random(distinct) >= empty_frac)
    else:
        lens = np.full(distinct, width)
    pool = [bytes(rng.integers(97, 123, int(k), dtype=np.uint8)) for k in lens]
    valid = rng.random(n) >= null_frac
    if null_run and n > 300:
        at = int(rng.integers(0, n - 300))
        valid[at:at + 300] = False
    pick = rng.integers(0, distinct, n)
    raw = [pool[i] if ok else bytes(rng.integers(48, 58, int(rng.integers(1, 10)), dtype=np.uint8))
           for i, ok in zip(pick, valid)]
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum([len(v) for v in raw], out=offsets[1:])
    bitmap = pa.py_buffer(np.packbits(valid, bitorder="little"))
    return pa.Array.from_buffers(
        typ, n, [bitmap, pa.py_buffer(offsets.astype(A.offset_dtype(typ))),
                 pa.py_buffer(b"".join(raw))], null_count=int(n - valid.sum()))


def _decoded(buf: bytes, spec: str) -> pa.Array:
    """Column ``c`` of the file ``buf`` as large_binary: read by pyarrow,
    or by the package reader where FSST pages are."""
    if spec.startswith("fsst"):
        return pa.array(read_byte_array_column(buf, "c"), pa.large_binary())
    return pq.read_table(io.BytesIO(buf)).column("c").combine_chunks().cast(pa.large_binary())


def _leaf(col: pa.Array):
    return leaf_columns(schema_from_arrow(pa.schema([("c", col.type)])))[0]


def _encode(col: pa.Array, spec: ColumnSpec, opts: WriteOptions):
    blob, meta = encode_chunk(col, _leaf(col), spec, opts)
    return bytes(blob), meta


def _view(col: pa.Array) -> C._Values:
    """The chunk's view of the flat column ``col``."""
    return C._prepare(col, _leaf(col))[1]


@settings(max_examples=150, deadline=None)
@given(typ=st.sampled_from(BYTE_TYPES), spec=st.sampled_from(sorted(SPECS)),
       n=st.integers(0, 1_500), null_frac=st.sampled_from([0.0, 0.02, 0.3, 1.0]),
       empty_frac=st.sampled_from([0.0, 0.5]), distinct=st.sampled_from([1, 20, 5_000]),
       width=st.sampled_from([None, None, 1, 4, 8]), null_run=st.booleans(),
       start=st.integers(0, 17), small_pages=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_owned_null_bytes_encode_as_the_canonical_twin(typ, spec, n, null_frac, empty_frac,
                                                       distinct, width, null_run, start,
                                                       small_pages, seed):
    rng = np.random.default_rng(seed)
    col = _owned(rng, typ, n + start, null_frac, empty_frac, distinct, width, null_run)
    col = col.slice(start)
    twin = pa.array(col.to_pylist(), col.type)
    assert twin.equals(col)
    opts = WriteOptions(page_size=1 << 10 if small_pages else 1 << 20)
    for off in (False, True):
        with _kernel_off(off):
            got = _encode(col, SPECS[spec], opts)
            want = _encode(twin, SPECS[spec], opts)
        assert got[0] == want[0], (spec, off)
        assert got[1] == want[1], (spec, off)


@pytest.mark.parametrize("typ", BYTE_TYPES, ids=str)
@pytest.mark.parametrize("spec", sorted(SPECS))
def test_owned_null_bytes_cover_every_path(typ, spec):
    """One fixed case per type and path, so each is run whatever the
    fuzz draws: 3,000 slots at offset 5, 2% null plus a 300-slot null
    run, 1 KiB pages; the dictionary path accepted with 20 distinct
    values, the equal-width path with 4-byte values."""
    rng = np.random.default_rng(7)
    for distinct, width in ((20, None), (20, 4), (5_000, None)):
        col = _owned(rng, typ, 3_005, 0.02, 0.3, distinct, width, True).slice(5)
        twin = pa.array(col.to_pylist(), col.type)
        for off in (False, True):
            with _kernel_off(off):
                got = _encode(col, SPECS[spec], WriteOptions(page_size=1 << 10))
                want = _encode(twin, SPECS[spec], WriteOptions(page_size=1 << 10))
                # and both are right: the file decodes to the column
                buf = write_table_to_bytes(pa.table({"c": col}), WriteOptions(
                    page_size=1 << 10, column_specs={"c": SPECS[spec]}))
            assert got == want, (distinct, width, off)
            assert _decoded(buf, spec).equals(twin.cast(pa.large_binary())), (distinct, width, off)


@settings(max_examples=200, deadline=None)
@given(typ=st.sampled_from(BYTE_TYPES), n=st.integers(0, 3_000),
       null_frac=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), k=st.integers(0, 2_500),
       start=st.integers(0, 17), seed=st.integers(0, 2**32 - 1))
def test_first_values_are_the_first_non_null_values(typ, n, null_frac, k, start, seed):
    """The view's ``first`` gives the first k non-null values (all of
    them when there are fewer), compacted, and their slots; so it does
    once the chunk's compacted values are built."""
    rng = np.random.default_rng(seed)
    col = _owned(rng, typ, n + start, null_frac, 0.2, 50, None, False).slice(start)
    want = col.drop_null().slice(0, k)
    view = _view(col)
    for _ in range(2):
        got, slots = view.first(k)
        assert got.null_count == 0 and got.equals(want)
        assert slots.null_count == 0 and len(slots.lengths) == len(want)
        assert bytes(slots.span()) == b"".join(
            v if isinstance(v, bytes) else v.encode() for v in want.to_pylist())
        view.compacted()


@pytest.mark.parametrize("typ", BYTE_TYPES, ids=str)
def test_dictionary_trial_reads_the_first_values(typ):
    """The trial counts the distinct values among the first 1,000 values,
    not the first 1,000 slots: 500 distinct in the first 1,000 values
    accepts the dictionary, though the first 1,000 slots hold 500 values
    and 500 distinct (which would reject it)."""
    n = 3_000
    valid = np.ones(n, bool)
    valid[:2_000:2] = False  # the first 2,000 slots alternate null, value
    vals = [f"v{j % 500}" for j in range(int(valid.sum()))]
    it = iter(vals)
    col = pa.array([next(it) if ok else None for ok in valid], typ)
    for off in (False, True):
        with _kernel_off(off):
            _, meta = _encode(col, ColumnSpec(), WriteOptions())
        assert int(Encoding.RLE_DICTIONARY) in meta.encodings, off


@pytest.mark.parametrize("typ", BYTE_TYPES, ids=str)
@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_equal_width_keys_skip_owned_null_bytes(typ, width):
    """Null slots that own bytes of another width leave a chunk of
    equal-width values on the kernel's key path, keyed by its values."""
    rng = np.random.default_rng(width)
    col = _owned(rng, typ, 2_000, 0.1, 0.0, 30, width, False).slice(3)
    keys = C._equal_width_keys(_view(col))
    assert keys is not None and keys.dtype.itemsize == width
    want = np.frombuffer(b"".join(v if isinstance(v, bytes) else v.encode()
                                  for v in col.drop_null().to_pylist()), keys.dtype)
    assert (keys == want).all()
