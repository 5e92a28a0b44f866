"""The compiled kernel's integer encoders against their numpy fallbacks,
their worst-case output sizes, whole writes without the kernel, and the
kernel's build cache and fallback record.

``rle_hybrid`` and ``delta_binary_pack`` must give the numpy bodies of
``rle.encode_rle_hybrid`` and ``delta.delta_binary_pack`` byte for byte;
the frozen oracles hold both paths in ``test_rle_kernels``,
``test_delta_kernels`` and ``test_numpy_fallback``."""
from __future__ import annotations

import hashlib
import logging
import os
import subprocess
import tempfile

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyparquet_writer_ray import ColumnSpec, WriteOptions, write_table_to_bytes
from hyparquet_writer_ray.core import _kernel
from hyparquet_writer_ray.core import arrays as A
from hyparquet_writer_ray.core.bufwriter import BufWriter
from hyparquet_writer_ray.core.delta import delta_binary_pack
from hyparquet_writer_ray.core.rle import encode_rle_hybrid
from hyparquet_writer_ray.sources.webtable import synthesize_batch


@pytest.fixture
def lib():
    lib = _kernel.get_kernel()
    if lib is None:
        pytest.skip("no C compiler")
    return lib


def _both(encode, values, *args) -> tuple[bytes, bytes]:
    """``encode(w, values, *args)``'s bytes with the kernel, then with
    the numpy fallback."""
    lib = _kernel.get_kernel()
    if lib is None:
        pytest.skip("no C compiler")
    got, want = BufWriter(), BufWriter()
    encode(got, values, *args)
    _kernel._lib = None
    try:
        encode(want, values, *args)
    finally:
        _kernel._lib = lib
    return got.getvalue(), want.getvalue()


def _rle_values(rng, shape: str, n: int, bit_width: int) -> np.ndarray:
    hi = (1 << bit_width) - 1
    draw = lambda k: rng.integers(0, hi, k, endpoint=True, dtype=np.uint64)  # noqa: E731
    if shape == "literal_heavy":
        return draw(n)
    if shape == "run_heavy":
        return np.repeat(draw(n), rng.integers(1, 60, n))[:n]
    # runs of 8 and literals of 8, each length jittered by a few values,
    # so the plan meets every steal and every run folded by its steal
    parts = []
    while sum(map(len, parts)) < n:
        parts.append(np.full(int(rng.integers(6, 12)), draw(1)[0]))
        parts.append(draw(int(rng.integers(1, 11))))
    return np.concatenate(parts)[:n] if parts else draw(0)


@settings(max_examples=300, deadline=None)
@given(bit_width=st.integers(0, 32), n=st.integers(0, 5_000),
       shape=st.sampled_from(["run_heavy", "literal_heavy", "alternating"]),
       seed=st.integers(0, 2**32 - 1), offset=st.integers(0, 3), step=st.integers(1, 3))
def test_rle_kernel_matches_numpy(bit_width, n, shape, seed, offset, step):
    values = _rle_values(np.random.default_rng(seed), shape, n, bit_width)
    dtypes = [np.uint32, np.uint64] + ([np.uint8] if bit_width <= 8 else []) \
        + ([np.uint16] if bit_width <= 16 else [])
    for dtype in dtypes:
        v = values.astype(dtype)
        got, want = _both(encode_rle_hybrid, v, bit_width)
        assert got == want, (dtype.__name__, shape, n)
        got, want = _both(encode_rle_hybrid, v[offset::step], bit_width)  # strided
        assert got == want, (dtype.__name__, shape, n, offset, step)


_DELTA_DTYPES = (np.int8, np.int16, np.int32, np.uint32, np.int64, np.uint64)


def _delta_values(rng, shape: str, dtype, n: int) -> np.ndarray:
    info = np.iinfo(dtype)
    rand = rng.integers(info.min, info.max, n, endpoint=True, dtype=dtype)
    if shape == "random":
        return rand
    if shape == "sorted":
        return np.sort(rand)
    if shape == "extremes":
        edge = np.array([info.min, info.max, 0, info.max, info.min, info.min], dtype)
        return edge[rng.integers(0, len(edge), n)]
    if shape == "walk":  # small steps: narrow miniblocks, some of width 0
        steps = rng.integers(-3, 4, n) * (rng.random(n) < 0.5)
        return np.cumsum(steps).astype(dtype)
    return np.repeat(rand[: max(1, n // 50)], 50)[:n]  # constant runs


@settings(max_examples=300, deadline=None)
@given(dtype=st.sampled_from(_DELTA_DTYPES), n=st.integers(0, 5_000),
       shape=st.sampled_from(["random", "sorted", "extremes", "walk", "runs"]),
       seed=st.integers(0, 2**32 - 1), offset=st.integers(0, 3), step=st.integers(1, 3))
def test_delta_kernel_matches_numpy(dtype, n, shape, seed, offset, step):
    values = _delta_values(np.random.default_rng(seed), shape, dtype, n)
    got, want = _both(delta_binary_pack, values)
    assert got == want
    got, want = _both(delta_binary_pack, values[offset::step])  # strided view
    assert got == want
    # an offset Arrow view, as the page loop hands the values over
    view = A.fixed_values(pa.array(values).slice(offset))
    got, want = _both(delta_binary_pack, view)
    assert got == want


GUARD = 64


def _guarded(size: int) -> np.ndarray:
    return np.full(size + GUARD, 0xA5, np.uint8)


@pytest.mark.parametrize("bit_width", [0, 1, 7, 8, 9, 17, 31, 32])
def test_rle_kernel_stays_within_its_bound(lib, bit_width):
    """``rle_bound`` covers the worst plans: all literal, all runs of 8,
    and runs that each need a steal after a 1-value literal."""
    rng = np.random.default_rng(bit_width)
    hi = (1 << bit_width) - 1
    for n in (1, 7, 8, 9, 16, 17, 4_097):
        alternating = np.repeat(np.arange(n) % 2 * hi, 8)[:n]
        stolen = np.resize(np.r_[np.full(15, hi), [0]], n)
        for values in (rng.integers(0, hi, n, endpoint=True), alternating, stolen):
            v = np.ascontiguousarray(values, dtype=np.uint32)
            bound = _kernel.rle_bound(n, bit_width)
            out = _guarded(bound)
            m = lib.rle_hybrid(v.ctypes.data, n, bit_width, out.ctypes.data)
            assert m <= bound
            assert (out[bound:] == 0xA5).all()
            assert bytes(out[:m]) == bytes(_kernel.rle_hybrid(v, bit_width))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_delta_kernel_stays_within_its_bound(lib, dtype):
    """Full-range values give every miniblock the full width and every
    ``min_delta`` its longest varint, the worst case ``delta_bound``
    states."""
    info = np.iinfo(dtype)
    rng = np.random.default_rng(np.dtype(dtype).itemsize)
    for n in (0, 1, 2, 128, 129, 130, 257, 5_000):
        for values in (rng.integers(info.min, info.max, n, endpoint=True, dtype=dtype),
                       np.resize(np.array([info.min, info.max], dtype), n)):
            bound = _kernel.delta_bound(n)
            out = _guarded(bound)
            m = lib.delta_binary_pack(values.ctypes.data, n, dtype == np.int64,
                                      out.ctypes.data)
            assert m <= bound
            assert (out[bound:] == 0xA5).all()


def _lineitem(n: int = 60_000, seed: int = 5) -> pa.Table:
    """A TPC-H-lineitem-shaped table: int keys, doubles, low-cardinality
    flags and timestamps."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(1, 8, n)
    quantity = rng.integers(1, 51, n).astype(np.float64)
    ship = 694_224_000_000 + rng.integers(0, 2526, n) * 86_400_000
    return pa.table({
        "l_orderkey": np.repeat(np.arange(1, n + 1, dtype=np.int64), lines)[:n],
        "l_partkey": rng.integers(1, 200_001, n),
        "l_suppkey": rng.integers(1, 10_001, n),
        "l_linenumber": rng.integers(1, 8, n).astype(np.int32),
        "l_quantity": quantity,
        "l_extendedprice": np.round(quantity * rng.uniform(900, 2000, n), 2),
        "l_discount": rng.integers(0, 11, n) / 100,
        "l_returnflag": pa.array(["A", "N", "R"]).take(rng.integers(0, 3, n)),
        "l_linestatus": pa.array(["F", "O"]).take(rng.integers(0, 2, n)),
        "l_shipdate": pa.array(ship, pa.timestamp("ms")),
    })


@pytest.mark.parametrize("shape", ["webtable_smart", "webtable_fsst", "lineitem_default"])
def test_write_without_kernel_is_byte_identical(lib, shape):
    """A web-table part with ``auto_codec="smart"`` (delta lengths, level
    runs of nullable text), one with FSST text and page CRCs (nulls that
    own bytes, PLAIN byte-array pages scanned in place) and a
    lineitem-shaped table with default options (dictionary indexes) are
    the same bytes on both paths."""
    if shape == "webtable_smart":
        table, opts = synthesize_batch(0, 4_000), WriteOptions(auto_codec="smart")
    elif shape == "webtable_fsst":
        table = synthesize_batch(0, 4_000)
        opts = WriteOptions(page_crc=True, column_specs={"text": ColumnSpec(fsst=True)})
    else:
        table, opts = _lineitem(), WriteOptions()
    with_kernel = write_table_to_bytes(table, opts)
    _kernel._lib = None
    try:
        without = write_table_to_bytes(table, opts)
    finally:
        _kernel._lib = lib
    assert with_kernel == without


def _libraries(cache: str) -> list[str]:
    return sorted(n for n in os.listdir(cache) if n.endswith(".so"))


def _cache(monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    cache = tmp_path / f"hpw_fsst_kernel_{getattr(os, 'getuid', lambda: 0)()}"
    cache.mkdir(mode=0o700)
    return cache


def _name(src: str) -> str:
    return f"kernel_{hashlib.sha256(src.encode()).hexdigest()[:16]}.so"


def _stale(cache, name: str, mtime: int) -> None:
    (cache / name).write_bytes(b"stale")
    os.utime(cache / name, (mtime, mtime))


def test_a_build_unlinks_older_builds(lib, monkeypatch, tmp_path):
    """A build keeps the ``_KEEP_BUILDS`` libraries used last, itself
    included, and unlinks older ones, the FSST-only kernel's names and
    leftover sources among them; the new library loads."""
    cache = _cache(monkeypatch, tmp_path)
    stale = [f"fsst_kernel_{i:016x}.so" for i in range(_kernel._KEEP_BUILDS)] \
        + ["fsst_kernel_v6.so", "kernel_0123456789abcdef.so"]
    for age, name in enumerate(stale):
        _stale(cache, name, 1_000_000 - age)  # the first is the newest
    _stale(cache, "fsst_kernel.c", 2_000_000)
    (cache / "kernel_0123456789abcdef.so.build1").write_bytes(b"in progress")
    edited = _kernel._C_SRC + "\nint hpw_cache_probe(void) { return 7; }\n"
    monkeypatch.setattr(_kernel, "_C_SRC", edited)
    built = _kernel._build()
    assert built.hpw_cache_probe() == 7
    assert _libraries(str(cache)) == sorted(
        [_name(edited)] + stale[:_kernel._KEEP_BUILDS - 1])
    # another process's build in progress is not a library to remove
    assert (cache / "kernel_0123456789abcdef.so.build1").exists()
    assert not (cache / "fsst_kernel.c").exists()


def test_alternating_sources_build_once_each(lib, monkeypatch, tmp_path):
    """Two sources loaded in turn, as two checkouts sharing the cache dir
    do, compile once each; a load marks its library used, so a later
    build unlinks the libraries used longest ago instead."""
    cache = _cache(monkeypatch, tmp_path)
    runs = []
    real_run = subprocess.run
    monkeypatch.setattr(_kernel.subprocess, "run",
                        lambda *a, **k: runs.append(a) or real_run(*a, **k))
    sources = [_kernel._C_SRC + f"\nint hpw_source(void) {{ return {i}; }}\n"
               for i in range(3)]
    for src in sources[:2] * 3:
        monkeypatch.setattr(_kernel, "_C_SRC", src)
        assert _kernel._build().hpw_source() == sources.index(src)
    assert len(runs) == 2
    a, b = (cache / _name(src) for src in sources[:2])
    os.utime(a, (100, 100))
    os.utime(b, (200, 200))
    fillers = [f"kernel_{i:016x}.so" for i in range(_kernel._KEEP_BUILDS - 2)]
    for i, name in enumerate(fillers):
        _stale(cache, name, 300 + i)
    monkeypatch.setattr(_kernel, "_C_SRC", sources[0])
    _kernel._build()  # a load, no build: a becomes the newest
    monkeypatch.setattr(_kernel, "_C_SRC", sources[2])
    _kernel._build()
    assert len(runs) == 3
    # b, loaded longest ago, is the one library past the bound
    assert _libraries(str(cache)) == sorted(
        [_name(sources[0]), _name(sources[2])] + fillers)


def test_fallback_is_logged_once(monkeypatch, tmp_path, caplog):
    """An unsafe cache dir leaves every encoder on its fallback; the
    process logs one DEBUG record saying why."""
    if not hasattr(os, "getuid"):
        pytest.skip("no POSIX ownership checks")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(_kernel, "_tried", False)
    monkeypatch.setattr(_kernel, "_lib", None)
    cache = tmp_path / f"hpw_fsst_kernel_{os.getuid()}"
    cache.mkdir()
    cache.chmod(0o770)  # group-writable
    with caplog.at_level(logging.DEBUG, logger="hyparquet_writer_ray"):
        assert _kernel.get_kernel() is None
        assert _kernel.get_kernel() is None
        w = BufWriter()
        assert encode_rle_hybrid(w, np.array([3, 3, 1], np.uint8), 2) == w.offset == 3
    records = [r for r in caplog.records if r.name == "hyparquet_writer_ray"]
    assert [r.levelname for r in records] == ["DEBUG"]
    assert f"cache dir {cache} is foreign-owned or group/world-writable" \
        in records[0].getMessage()
    assert not list(cache.iterdir())  # nothing built or loaded there
