"""``read_parquet_fused``'s own read (``pipelines/read.py``) against
``ray.data.read_parquet``.

Content-named parts and single-file checkpoint ids hash the blocks of
the read, so the contract is identical blocks: for every case below
the two reads give, block for block, the same chunk lengths, the same
schema with its metadata and the same ``content_part_id``, also where
the inputs' schemas differ. The plain read builds without Ray's parquet
datasource or any sample, counts its rows from footers without reading,
and a read of a protocol only fsspec knows works end to end."""
from __future__ import annotations

import importlib
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import faultfs
from hyparquet_writer_ray.pipelines import read as R
from hyparquet_writer_ray.pipelines import write as W
from hyparquet_writer_ray.sources.webtable import synthesize_batch
from hyparquet_writer_ray.stages.encode import content_part_id
from hyparquet_writer_ray.state import fsio

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _layout(ds) -> list[tuple]:
    """Each block of ``ds`` as (content id, chunk lengths, serialized
    schema), in id order: blocks arrive in completion order."""
    import ray

    blocks = [ray.get(ref) for ref in ds.to_arrow_refs()]
    return sorted((content_part_id(t), [b.num_rows for b in t.to_batches()],
                   t.schema.serialize().to_pybytes()) for t in blocks)


def _write(d, name: str, table: pa.Table, **kw) -> str:
    path = os.path.join(str(d), f"{name}.parquet")
    pq.write_table(table, path, **kw)
    return path


def _web(d, n: int, rows: int) -> list[str]:
    return [_write(d, f"web-{i}", synthesize_batch(i * rows, rows)) for i in range(n)]


def _mixed_widths(d) -> list[str]:
    """The inputs of test_content_path_resume_after_an_added_input."""
    paths = []
    for i, width in enumerate((100, 100, 100, 1000)):
        ids = range(i * 2000, (i + 1) * 2000)
        paths.append(_write(d, f"in-{i}", pa.table(
            {"id": ids, "s": [f"{j:08d}" + "x" * width for j in ids]})))
    return paths


def _pandas(d) -> list[str]:
    """pandas-written inputs of different lengths: their footers'
    pandas metadata differ (the RangeIndex stop)."""
    return [_write(d, f"pd-{n}", pa.Table.from_pandas(
        synthesize_batch(0, n).to_pandas())) for n in (1500, 2000, 2500)]


def _reordered(d) -> list[str]:
    """Inputs whose fields differ in order and nullability."""
    t = synthesize_batch(0, 2000)
    flipped = pa.schema([f.with_nullable(t.column(f.name).null_count > 0)
                         for f in reversed(t.schema)])
    return [_write(d, "web", t),
            _write(d, "flipped", t.select(flipped.names).cast(flipped)),
            _write(d, "web-2", synthesize_batch(2000, 2000))]


# case -> (paths under a directory, columns, target_max_block_size or None)
CASES = {
    "under_one_block": lambda d: (_web(d, 3, 2000), None, None),
    "row_groups": lambda d: ([_write(d, "groups", synthesize_batch(0, 6000),
                                     row_group_size=1000)] + _web(d, 1, 2000), None, None),
    "pruned": lambda d: (_web(d, 3, 2000), ["url", "lang"], None),
    "empty_first": lambda d: ([_write(d, "empty", synthesize_batch(0, 0))]
                              + _web(d, 2, 2000), None, None),
    "empty_later": lambda d: (_web(d, 2, 2000)
                              + [_write(d, "empty", synthesize_batch(0, 0))], None, None),
    "single": lambda d: (_web(d, 1, 2000), None, None),
    "multi_chunk": lambda d: (_web(d, 8, 20_000), None, None),
    "mixed_widths_1mib": lambda d: (_mixed_widths(d), None, 1 << 20),
    "pandas_metadata": lambda d: (_pandas(d), None, None),
    "reordered": lambda d: (_reordered(d), None, None),
}


@pytest.mark.parametrize("case", list(CASES))
def test_blocks_equal_rays(ray_session, tmp_path, monkeypatch, case):
    import ray.data

    paths, columns, target = CASES[case](tmp_path)
    if target:
        monkeypatch.setattr(ray.data.DataContext.get_current(),
                            "target_max_block_size", target)
    ours = W.read_parquet_fused(paths, columns=columns)
    rays = ray.data.read_parquet(paths, columns=columns, override_num_blocks=len(paths))
    assert ours.schema().base_schema.equals(rays.schema().base_schema,
                                            check_metadata=True)
    # the same operator name (so the same fusion) and scheduling
    assert (ours._logical_plan.dag.name, ours._logical_plan.dag._ray_remote_args) \
        == (rays._logical_plan.dag.name, rays._logical_plan.dag._ray_remote_args)
    want = _layout(rays)
    assert _layout(ours) == want
    if case == "multi_chunk":
        assert all(len(chunks) > 1 for _, chunks, _ in want)
    if case in ("pandas_metadata", "reordered"):
        # each block keeps its own file's schema, as in Ray's read
        assert len({schema for _, _, schema in want}) > 1


def test_plain_read_builds_without_rays_datasource_or_samples(
        ray_session, tmp_path, monkeypatch):
    """A plain fused read is built without Ray's parquet datasource (its
    footer prefetch and sampling tasks), and the file-named write of it
    never samples: the batch size is settled only when a read task is
    shipped. A read given ``kw`` still goes through Ray's datasource."""
    from ray.data._internal.datasource import parquet_datasource as P

    def boom(*args, **kw):
        raise AssertionError("not to be called")

    paths = _web(tmp_path, 3, 500)
    monkeypatch.setattr(P.ParquetDatasource, "__init__", boom)
    monkeypatch.setattr(R, "_sample_fragment", boom)
    s = W.write_parquet_dataset(W.read_parquet_fused(paths), str(tmp_path / "out"))
    assert (s["parts"], s["rows"]) == (3, 1500)
    with pytest.raises(AssertionError, match="not to be called"):
        W.read_parquet_fused(paths, include_paths=False)


def test_count_reads_footers_only(ray_session, tmp_path, monkeypatch):
    """``count()`` of a plain fused read sums the inputs' footer row
    counts: no read task is shipped, so none runs."""
    def boom(self):
        raise AssertionError("read task shipped")

    paths = _web(tmp_path, 3, 700) + [_write(tmp_path, "empty", synthesize_batch(0, 0))]
    monkeypatch.setattr(R._ReadFile, "__reduce__", boom)
    assert W.read_parquet_fused(paths).count() == 2100


def test_fsspec_only_protocol_content_path(ray_session, tmp_path, monkeypatch):
    """A content-named write of a fused read on ``sharedfs://``, a
    protocol pyarrow does not know: the read tasks read it through
    fsspec on the Ray workers and every input row is written once."""
    monkeypatch.syspath_prepend(ROOT)
    shared = importlib.import_module("tests.sharedfs")
    monkeypatch.setattr(shared.SharedFS, "root", str(tmp_path / "store"))
    fsio.makedirs("sharedfs://in")
    tables = [synthesize_batch(i * 700, 700) for i in range(3)]
    for i, t in enumerate(tables):
        fsio.pq_write_table(t, f"sharedfs://in/in-{i}.parquet")
    ds = W.read_parquet_fused("sharedfs://in").map_batches(
        lambda b: b, batch_format="pyarrow")
    out = tmp_path / "out"
    s = W.write_parquet_dataset(ds, str(out))
    assert s["rows"] == 2100
    got = pq.read_table(str(out), columns=["url"]).column("url").to_pylist()
    assert sorted(got) == sorted(u for t in tables for u in t.column("url").to_pylist())


def test_fallback_read_of_fsspec_only_protocol(ray_session, tmp_path, monkeypatch):
    """A fused read given ``kw`` goes through Ray's parquet datasource
    on the inputs' own filesystem, so a ``sharedfs://`` input reads
    through fsspec there too."""
    monkeypatch.syspath_prepend(ROOT)
    shared = importlib.import_module("tests.sharedfs")
    monkeypatch.setattr(shared.SharedFS, "root", str(tmp_path / "store"))
    fsio.makedirs("sharedfs://in")
    for i in range(2):
        fsio.pq_write_table(synthesize_batch(i * 100, 100), f"sharedfs://in/in-{i}.parquet")
    ds = W.read_parquet_fused("sharedfs://in", include_paths=True)
    assert ds.count() == 200
    assert sorted(set(ds.to_pandas()["path"])) == ["in/in-0.parquet", "in/in-1.parquet"]


def test_fallback_read_keeps_relative_paths(ray_session, tmp_path, monkeypatch):
    """A fused read of a relative local directory given ``kw`` is Ray's
    read of the same spelling, block for block: ``include_paths`` keeps
    the paths relative, so the blocks' content ids, and the parts named
    from them, do not depend on where the working directory is."""
    import ray.data

    monkeypatch.chdir(ROOT)
    (tmp_path / "in").mkdir()
    rel = [os.path.relpath(p, ROOT) for p in _web(tmp_path / "in", 2, 300)]
    ours = W.read_parquet_fused(os.path.dirname(rel[0]), include_paths=True)
    rays = ray.data.read_parquet(rel, include_paths=True, override_num_blocks=2)
    assert sorted(set(ours.to_pandas()["path"])) == rel
    assert _layout(ours) == _layout(rays)


def test_fault_store_read_equals_local_read(tmp_path):
    """The read tasks of a ``faultmv://`` read, run in this process
    (the store is this process's memory), yield the blocks of the same
    files read from local disk."""
    cls = faultfs.RenameFS
    cls.reset()
    try:
        local = _web(tmp_path, 2, 3000)
        uris = [f"faultmv://in/web-{i}.parquet" for i in range(2)]
        for p, uri in zip(local, uris):
            with open(p, "rb") as f:
                fsio.write_marker(uri, f.read())

        def blocks(paths):
            return [content_part_id(t) for task in R.FileRead(paths).get_read_tasks(2)
                    for t in task()]

        assert blocks(uris) == blocks(local)
        assert len(blocks(uris)) == 2
    finally:
        cls.reset()
