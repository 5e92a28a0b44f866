"""String/binary columns whose offsets break the Arrow format.

``pa.Array.from_buffers`` takes offsets that pass the end of the value
buffer or decrease, which the Arrow columnar format forbids. Every
path of ``encode_chunk`` that reads such a column's bytes reads them
through ``arrays.byte_slots``, so each raises ``ValueError`` before any
byte outside the value buffer is read: PLAIN, DELTA_LENGTH_BYTE_ARRAY
and DELTA_BYTE_ARRAY pages, a forced dictionary and a bloom filter, on
string and binary columns with 32- and 64-bit offsets, whole and
sliced at slot offsets that are not a multiple of 8. Well-formed
columns, canonical and with null slots that own bytes, keep their
bytes (a pinned sha256 of each file). Collected again by
``test_numpy_fallback``, the same tests show the check runs before
Arrow's ``drop_null``, ``dictionary_encode`` and the Arrow join."""
from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from hyparquet_writer_ray import write_table_to_bytes
from hyparquet_writer_ray.core import arrays as A
from hyparquet_writer_ray.core.chunk import encode_chunk
from hyparquet_writer_ray.core.options import ColumnSpec, WriteOptions
from hyparquet_writer_ray.core.schema import schema_from_arrow
from hyparquet_writer_ray.core.types import Encoding, leaf_columns

BYTE_TYPES = [pa.string(), pa.binary(), pa.large_string(), pa.large_binary()]
SPECS = {
    "plain": ColumnSpec(encoding=Encoding.PLAIN),
    "delta_length": ColumnSpec(encoding=Encoding.DELTA_LENGTH_BYTE_ARRAY),
    "delta_byte_array": ColumnSpec(encoding=Encoding.DELTA_BYTE_ARRAY),
    "dictionary_forced": ColumnSpec(encoding=Encoding.RLE_DICTIONARY),
    "bloom": ColumnSpec(bloom_filter=True),
}


def _encode(col: pa.Array, spec: ColumnSpec) -> bytes:
    leaf = leaf_columns(schema_from_arrow(pa.schema([("c", col.type)])))[0]
    blob, _ = encode_chunk(col, leaf, spec, WriteOptions(page_size=256))
    return bytes(blob)


def _column(typ: pa.DataType, offsets, data: bytes, valid=None) -> pa.Array:
    """The array ``from_buffers`` builds over ``offsets`` and ``data``,
    which it does not check; ``valid`` is False for a null slot."""
    n = len(offsets) - 1
    bitmap = None
    if valid is not None:
        bitmap = pa.py_buffer(np.packbits(np.asarray(valid, bool), bitorder="little"))
    return pa.Array.from_buffers(
        typ, n, [bitmap, pa.py_buffer(np.asarray(offsets, A.offset_dtype(typ))),
                 pa.py_buffer(data)],
        null_count=-1 if valid is None else int(n - np.count_nonzero(valid)))


def _long(rng, bad_at: int, bad: str) -> tuple[list[int], bytes, np.ndarray]:
    """40 slots of 0-6 bytes, a third of them null, with one bad offset
    at slot ``bad_at``: past the end of the value buffer, or below the
    offset before it."""
    offsets = np.concatenate([[0], np.cumsum(rng.integers(0, 7, 40))])
    data = bytes(rng.integers(97, 123, int(offsets[-1]), dtype=np.uint8))
    offsets[bad_at] = offsets[-1] + 1_000 if bad == "past_end" else offsets[bad_at - 1] - 1
    valid = rng.random(40) >= 1 / 3
    return offsets.tolist(), data, valid


def _malformed(typ: pa.DataType) -> dict[str, pa.Array]:
    rng = np.random.default_rng(7)
    cases = {
        # a 1,000-byte slot over 10 value bytes, then a null slot
        "past_end_then_null": _column(typ, [0, 1000, 5], b"0123456789", [True, False]),
        # from_buffers checks the first and the last offset, a slice none
        "last_past_end": _column(typ, [0, 3, 40, 6], b"0123456789").slice(0, 2),
        "first_negative": _column(typ, [0, -1, 3, 6], b"0123456789").slice(1),
        "decreasing": _column(typ, [0, 6, 2, 9], b"0123456789"),
        "decreasing_null": _column(typ, [0, 6, 2, 9], b"0123456789", [True, False, True]),
    }
    for bad in ("past_end", "decrease"):
        offsets, data, valid = _long(rng, 21, bad)
        col = _column(typ, offsets, data, valid)
        # sliced at slot offsets that are not a multiple of 8
        cases[f"{bad}_slice_3"] = col.slice(3)
        cases[f"{bad}_slice_13_20"] = col.slice(13, 20)
        cases[f"{bad}_no_nulls_slice_5"] = _column(typ, offsets, data).slice(5)
    return cases


@pytest.mark.parametrize("spec", sorted(SPECS))
@pytest.mark.parametrize("typ", BYTE_TYPES, ids=str)
def test_malformed_offsets_raise(typ, spec):
    for name, col in _malformed(typ).items():
        with pytest.raises(ValueError, match="offsets"):
            _encode(col, SPECS[spec])
            pytest.fail(f"{name} was encoded")


@pytest.mark.parametrize("typ", BYTE_TYPES, ids=str)
def test_malformed_offsets_raise_through_write_table(typ):
    col = _column(typ, [0, 1000, 5], b"0123456789", [True, False])
    for spec in (ColumnSpec(encoding=Encoding.DELTA_LENGTH_BYTE_ARRAY), ColumnSpec()):
        with pytest.raises(ValueError, match="offsets"):
            write_table_to_bytes(pa.table({"c": col}),
                                 WriteOptions(column_specs={"c": spec}))


def test_the_view_names_each_fault():
    typ = pa.binary()
    for col, message in ((_column(typ, [0, 1000, 5], b"0123456789"), "offsets decrease"),
                         (_column(typ, [0, 3, 11, 5], b"0123456789").slice(0, 2),
                          "offsets leave the value buffer"),
                         (_column(typ, [0, -1, 3, 5], b"0123456789").slice(1),
                          "offsets leave the value buffer")):
        with pytest.raises(ValueError, match=message):
            A.byte_slots(col)
    slots = A.byte_slots(_column(typ, [0, 3, 3, 7], b"0123456789", [True, False, True]).slice(1))
    assert slots.offsets.tolist() == [3, 3, 7] and slots.lengths.tolist() == [0, 4]
    assert slots.bit_offset == 1 and slots.null_count == 1


def _well_formed(typ: pa.DataType, owned: bool) -> pa.Array:
    """300 slots, a tenth of them null, sliced at 3; with ``owned`` the
    null slots keep the bytes they had (``pc.if_else`` output)."""
    rng = np.random.default_rng(11)
    values = pa.array([f"v{int(i)}" * int(k) for i, k in
                       zip(rng.integers(0, 40, 300), rng.integers(0, 5, 300))], typ)
    mask = pa.array(rng.random(300) >= 0.1)
    if owned:
        col = pc.if_else(mask, values, pa.scalar(None, typ))
    else:
        col = pa.array([v if m else None for v, m in
                        zip(values.to_pylist(), mask.to_pylist())], typ)
    return col.slice(3)


def _file(col: pa.Array, spec: ColumnSpec) -> bytes:
    return write_table_to_bytes(pa.table({"c": col}),
                                WriteOptions(page_size=256, column_specs={"c": spec}))


# sha256 of the file of a well-formed column, as the engine wrote it
# before the view; the owned and the canonical twin share it, and so do
# 32- and 64-bit offsets
PINNED = {
    ("string", "bloom"): "bdf08804c88c127d",
    ("string", "delta_byte_array"): "7fff16dfccef2478",
    ("string", "delta_length"): "5f773fa3564437f1",
    ("string", "dictionary_forced"): "5b405ebe6147f7e9",
    ("string", "plain"): "c5db93700e788ba5",
    ("binary", "bloom"): "4adf0b47b1f86734",
    ("binary", "delta_byte_array"): "ffb66729ef9799c8",
    ("binary", "delta_length"): "489b2ae1183b6f76",
    ("binary", "dictionary_forced"): "1b5a025dc20ec56a",
    ("binary", "plain"): "a10782b5cc81bec6",
}


@pytest.mark.parametrize("spec", sorted(SPECS))
@pytest.mark.parametrize("typ", BYTE_TYPES, ids=str)
def test_well_formed_columns_keep_their_bytes(typ, spec):
    files = {_file(_well_formed(typ, owned), SPECS[spec]) for owned in (True, False)}
    assert len(files) == 1
    assert hashlib.sha256(files.pop()).hexdigest()[:16] == PINNED[(str(typ).removeprefix("large_"), spec)]
