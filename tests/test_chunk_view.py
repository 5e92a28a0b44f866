"""A column chunk reads its values through one view: ``encode_chunk``
checks a string/binary chunk's slots once (``arrays.byte_slots``),
compacts them at most once, and takes every page as a slice of them,
so the number of checks does not grow with the number of pages.
PLAIN and DELTA_LENGTH pages and the bloom filter read the slots
themselves and compact nothing; an FSST chunk's sample and dictionary
trial share one compacted prefix.

Counted inside one ``encode_chunk`` of a nullable string column whose
null slots own bytes (``pc.if_else`` output, so every compaction runs
``_kernel.compact_byte_array``, whose wrapper is called with or without
a compiler), in 1 KiB pages and in one 1 MiB page, on every byte-array
path, whole and sliced at an offset that is not a multiple of 8.
Collected again by ``test_numpy_fallback``, the same counts hold
without the kernel."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from hyparquet_writer_ray.core import _kernel
from hyparquet_writer_ray.core import arrays as A
from hyparquet_writer_ray.core.chunk import encode_chunk
from hyparquet_writer_ray.core.options import ColumnSpec, WriteOptions
from hyparquet_writer_ray.core.schema import schema_from_arrow
from hyparquet_writer_ray.core.types import Encoding, leaf_columns

VIEW_SPECS = {
    "plain": ColumnSpec(encoding=Encoding.PLAIN),
    "delta_length": ColumnSpec(encoding=Encoding.DELTA_LENGTH_BYTE_ARRAY),
    "delta_byte_array": ColumnSpec(encoding=Encoding.DELTA_BYTE_ARRAY),
    "fsst": ColumnSpec(fsst=True),
    "dictionary_forced": ColumnSpec(encoding=Encoding.RLE_DICTIONARY),
    "equal_width": ColumnSpec(),  # 2-byte values, few distinct: accepted
    "bloom_delta_length": ColumnSpec(bloom_filter=True,
                                     encoding=Encoding.DELTA_LENGTH_BYTE_ARRAY),
}


def _owned_column(typ: pa.DataType, equal_width: bool, n: int = 6_000) -> pa.Array:
    """n string slots, 10% null, each null slot owning its value's bytes."""
    rng = np.random.default_rng(3)
    if equal_width:
        values = [f"{k:02d}" for k in rng.integers(0, 40, n)]
    else:
        values = [f"v{k}-" + "x" * int(k % 37) for k in rng.integers(0, 5_000, n)]
    return pc.if_else(pa.array(rng.random(n) < 0.1), pa.scalar(None, typ), pa.array(values, typ))


def _counts(monkeypatch, col: pa.Array, spec: ColumnSpec, page_size: int):
    """(checks, checks of the whole chunk, chunk-wide compactions, all
    compactions) in one ``encode_chunk`` of ``col``."""
    checks, whole, compactions, every = [0], [0], [0], [0]
    byte_slots, compact = A.byte_slots, _kernel.compact_byte_array

    def counting_slots(arr):
        checks[0] += 1
        whole[0] += len(arr) == len(col)
        return byte_slots(arr)

    def counting_compact(slots):
        compactions[0] += len(slots.lengths) == len(col)
        every[0] += 1
        return compact(slots)

    leaf = leaf_columns(schema_from_arrow(pa.schema([("c", col.type)])))[0]
    monkeypatch.setattr(A, "byte_slots", counting_slots)
    monkeypatch.setattr(_kernel, "compact_byte_array", counting_compact)
    try:
        encode_chunk(col, leaf, spec, WriteOptions(page_size=page_size))
    finally:
        monkeypatch.setattr(A, "byte_slots", byte_slots)
        monkeypatch.setattr(_kernel, "compact_byte_array", compact)
    return checks[0], whole[0], compactions[0], every[0]


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()], ids=str)
@pytest.mark.parametrize("start", [0, 13])
@pytest.mark.parametrize("spec", sorted(VIEW_SPECS))
def test_a_chunk_checks_its_slots_once_and_compacts_them_at_most_once(
        monkeypatch, typ, start, spec):
    col = _owned_column(typ, spec == "equal_width").slice(start)
    small = _counts(monkeypatch, col, VIEW_SPECS[spec], 1 << 10)
    large = _counts(monkeypatch, col, VIEW_SPECS[spec], 1 << 20)
    assert small == large, (small, large)
    checks, whole, compactions, every = small
    assert whole == 1, small
    assert compactions <= 1, small
    if spec in ("plain", "delta_length", "bloom_delta_length"):
        # the pages and the bloom filter read the slots themselves
        assert every == 0, small


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()], ids=str)
@pytest.mark.parametrize("start", [0, 13])
def test_an_fsst_chunk_compacts_one_prefix(monkeypatch, typ, start):
    """The FSST sample (the first 2,000 values) and the dictionary trial
    (the first 1,000) share one compacted slot prefix, and the PLAIN
    pages read the slots: one compaction in the whole chunk."""
    col = _owned_column(typ, False).slice(start)
    assert _counts(monkeypatch, col, VIEW_SPECS["fsst"], 1 << 10)[2:] == (0, 1)
