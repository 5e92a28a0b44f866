"""Distributed pipeline tests: single-file ordered assembly, part-file
dataset mode, lineage + partition-granular resume (SURVEY.md §7.2 steps
7-8)."""
from __future__ import annotations

import glob
import os

import duckdb
import pyarrow.parquet as pq
import pytest

from hyparquet_writer_ray import WriteOptions
from hyparquet_writer_ray.migrate import migrate
from hyparquet_writer_ray.pipelines.write import (
    write_parquet_dataset,
    write_parquet_single_file,
)
from hyparquet_writer_ray.sources.webtable import synthesize_table, webtable_dataset
from hyparquet_writer_ray.state.lineage import UnmigratedError
from legacy import snapshot, to_legacy_manifest


@pytest.fixture()
def ray_data(ray_session):
    import ray.data

    return ray.data


def test_single_file_matches_input(ray_data, tmp_path):
    src = "/root/testdata/sf0.001/lineitem.parquet"
    ds = ray_data.read_parquet(src)
    out = write_parquet_single_file(ds, str(tmp_path / "l.parquet"), concurrency=2)
    assert out["rows"] == 6000
    a = duckdb.sql(f"select count(*), sum(l_quantity), min(l_shipdate) from '{tmp_path}/l.parquet'").fetchone()
    b = duckdb.sql(f"select count(*), sum(l_quantity), min(l_shipdate) from '{src}'").fetchone()
    assert a == b


def test_single_file_preserves_row_order(ray_data, tmp_path):
    src = "/root/testdata/sf0.001/orders.parquet"
    ds = ray_data.read_parquet(src)
    write_parquet_single_file(ds, str(tmp_path / "o.parquet"), concurrency=2)
    got = pq.read_table(tmp_path / "o.parquet").column("o_orderkey").to_pylist()
    ref = pq.read_table(src).column("o_orderkey").to_pylist()
    assert got == ref  # order is data (SURVEY.md §7.0 invariant 3)


def test_encode_row_groups_hashes_only_for_a_checkpoint(monkeypatch):
    """The single-file encode stage hashes a group (``content_part_id``)
    only when a checkpoint can use its id: without one
    (``skip_part_ids=None``) no group is hashed and every ``part_id`` is
    a null string; with one every group is hashed once, and a
    checkpointed group's ``group`` is null."""
    import pyarrow as pa

    from hyparquet_writer_ray.core.schema import schema_from_arrow
    from hyparquet_writer_ray.stages import encode as E

    hashed = []
    real = E.content_part_id
    monkeypatch.setattr(E, "content_part_id", lambda t: hashed.append(t.num_rows) or real(t))
    table = pa.table({"id": list(range(250)), "s": [f"v{i % 7}" for i in range(250)]})
    kw = dict(schema_ir=schema_from_arrow(table.schema), opts=WriteOptions(), max_group_rows=100)

    rows = pa.concat_tables(E.encode_row_groups(table, **kw))
    assert hashed == [] and rows.num_rows == 3
    assert rows.schema.field("part_id").type == pa.string()
    assert rows.column("part_id").null_count == 3 and rows.column("group").null_count == 0

    ids = pa.concat_tables(E.encode_row_groups(table, skip_part_ids=frozenset(), **kw)
                           ).column("part_id").to_pylist()
    assert hashed == [100, 100, 50] and None not in ids
    hashed.clear()
    rows = pa.concat_tables(E.encode_row_groups(table, skip_part_ids=frozenset(ids[1:2]), **kw))
    assert hashed == [100, 100, 50] and rows.column("part_id").to_pylist() == ids
    assert [g is None for g in rows.column("group").to_pylist()] == [False, True, False]


def test_write_table_parallel_byte_identical(ray_data, tmp_path):
    """VERDICT r4 item 4: the parallel parity writer must produce the
    EXACT bytes of the serial reference-parity writer — same schedule,
    deterministic slice encodes, ordered rebase — across type shapes,
    schedules and codec modes."""
    import io

    from hyparquet_writer_ray import (
        WriteOptions, write_table_parallel, write_table_to_bytes,
    )

    cases = [
        ("lineitem", None),                                   # default preview schedule
        ("events", WriteOptions(row_group_size=(250,))),      # many groups, ts/floats
        ("documents", WriteOptions(row_group_size=(128,),
                                   auto_codec="smart")),      # strings+nulls, smart codec
    ]
    for name, opts in cases:
        t = pq.read_table(f"/root/testdata/sf0.001/{name}.parquet")
        serial = write_table_to_bytes(t, opts)
        out = str(tmp_path / f"{name}.parquet")
        write_table_parallel(t, out, opts)
        with open(out, "rb") as f:
            assert f.read() == serial, name
    # file-object sink path
    t = pq.read_table("/root/testdata/sf0.001/events.parquet")
    buf = io.BytesIO()
    write_table_parallel(t, buf, WriteOptions(row_group_size=(250,)))
    assert buf.getvalue() == write_table_to_bytes(
        t, WriteOptions(row_group_size=(250,)))


def test_preserve_order_sets_dataset_captured_context(ray_data):
    """Ray copies the ambient DataContext into each dataset at creation,
    so _preserve_order must flip the flag on the dataset's OWN captured
    context — flipping only the global one leaves a pre-built dataset's
    execution order racy (observed as a rare order-test flake)."""
    from hyparquet_writer_ray.pipelines.write import _preserve_order

    ds = ray_data.range(10).map_batches(lambda b: b)
    captured = ds.context.execution_options
    globl = __import__("ray.data", fromlist=["DataContext"]) \
        .DataContext.get_current().execution_options
    prev_captured, prev_global = captured.preserve_order, globl.preserve_order
    with _preserve_order(ds):
        assert captured.preserve_order is True
        assert globl.preserve_order is True
    assert captured.preserve_order == prev_captured
    assert globl.preserve_order == prev_global


def test_dataset_mode_and_resume(ray_data, tmp_path):
    out_dir = str(tmp_path / "web")
    ds = webtable_dataset(20_000, rows_per_block=5_000)
    out = write_parquet_dataset(ds, out_dir, concurrency=2)
    assert out["parts"] == 4 and out["rows"] == 20_000 and out["skipped_parts"] == 0
    n = duckdb.sql(f"select count(*) from '{out_dir}/part-*.parquet'").fetchone()[0]
    assert n == 20_000
    # one lineage record file per part, with per-partition codec/size
    # records; no driver-side manifest
    import json

    lineage = os.path.join(out_dir, "_lineage")
    records = glob.glob(os.path.join(lineage, "parts", "*.json"))
    assert len(records) == 4
    recs = [r for path in records for r in json.load(open(path))]
    assert sum(r["num_rows"] for r in recs) == 20_000
    assert all(r["comp_bytes"] > 0 and r["columns"] for r in recs)
    assert all(c["codec"] and c["encodings"] for r in recs
               for c in r["columns"].values())
    assert not os.path.exists(os.path.join(lineage, "manifest.jsonl"))
    # resume: identical rerun skips every part
    ds2 = webtable_dataset(20_000, rows_per_block=5_000)
    out2 = write_parquet_dataset(ds2, out_dir, concurrency=2)
    assert out2["skipped_parts"] == 4


def test_resume_after_partial_failure(ray_data, tmp_path):
    """Kill-mid-run simulation: delete one part, rerun,
    only that partition is re-encoded and the final output is identical."""
    out_dir = str(tmp_path / "web2")
    ds = webtable_dataset(20_000, rows_per_block=5_000)
    write_parquet_dataset(ds, out_dir, concurrency=2)
    full = duckdb.sql(
        f"select count(*), count(distinct url) from '{out_dir}/part-*.parquet'"
    ).fetchone()
    victim = sorted(glob.glob(f"{out_dir}/part-*.parquet"))[0]
    os.remove(victim)
    out2 = write_parquet_dataset(
        webtable_dataset(20_000, rows_per_block=5_000), out_dir, concurrency=2
    )
    assert out2["skipped_parts"] == 3  # only the deleted part re-encoded
    after = duckdb.sql(
        f"select count(*), count(distinct url) from '{out_dir}/part-*.parquet'"
    ).fetchone()
    assert after == full


def test_resume_returns_fresh_totals(ray_data, tmp_path):
    """A resume that skips some parts and rewrites one returns the same
    totals as the fresh run: file bytes on disk for every part, and the
    lineage's uncompressed bytes for skipped ones."""
    out_dir = str(tmp_path / "web3")
    fresh = write_parquet_dataset(
        webtable_dataset(8_000, rows_per_block=2_000), out_dir, concurrency=2)
    parts = sorted(glob.glob(f"{out_dir}/part-*.parquet"))
    assert fresh["compressed_bytes"] == sum(os.path.getsize(f) for f in parts)
    os.remove(parts[0])
    resumed = write_parquet_dataset(
        webtable_dataset(8_000, rows_per_block=2_000), out_dir, concurrency=2)
    assert (fresh["skipped_parts"], resumed["skipped_parts"]) == (0, 3)
    for key in fresh.keys() - {"skipped_parts"}:
        assert resumed[key] == fresh[key], key


def test_resume_from_lineage_with_checksum(ray_data, tmp_path):
    """An out_dir whose only lineage is a legacy manifest (with the
    ``checksum`` field PartRecord had then) is refused, with no part
    written, until ``migrate`` converts it; then it resumes with every
    part skipped and the totals of the fresh run."""
    out_dir = str(tmp_path / "web4")
    fresh = write_parquet_dataset(
        webtable_dataset(8_000, rows_per_block=2_000), out_dir, concurrency=2)
    to_legacy_manifest(out_dir)
    before = snapshot(out_dir)
    with pytest.raises(UnmigratedError, match="hyparquet_writer_ray migrate"):
        write_parquet_dataset(
            webtable_dataset(8_000, rows_per_block=2_000), out_dir, concurrency=2)
    assert snapshot(out_dir) == before
    assert migrate(out_dir)["records_written"] == 4
    resumed = write_parquet_dataset(
        webtable_dataset(8_000, rows_per_block=2_000), out_dir, concurrency=2)
    assert resumed["skipped_parts"] == fresh["parts"] == 4
    for key in fresh.keys() - {"skipped_parts"}:
        assert resumed[key] == fresh[key], key


def test_single_file_resume_from_legacy_manifest(ray_data, tmp_path):
    """A checkpoint_dir whose only lineage is a legacy manifest is
    refused, with no output written, until ``migrate`` deletes it (a
    checkpoint needs no record: it is its blob); then every
    checkpointed blob is reused (no part is encoded, so nothing is
    written to the checkpoint dir) and the totals and bytes equal the
    fresh run's."""
    table = synthesize_table(4_000)
    ckpt = str(tmp_path / "ckpt")
    fresh = write_parquet_single_file(
        ray_data.from_arrow(table).repartition(4), str(tmp_path / "a.parquet"),
        max_group_rows=1_000, checkpoint_dir=ckpt)
    assert fresh["row_groups"] == 4
    to_legacy_manifest(ckpt)
    with pytest.raises(UnmigratedError, match="hyparquet_writer_ray migrate"):
        write_parquet_single_file(
            ray_data.from_arrow(table).repartition(4), str(tmp_path / "b.parquet"),
            max_group_rows=1_000, checkpoint_dir=ckpt)
    assert not (tmp_path / "b.parquet").exists()
    assert migrate(ckpt)["records_written"] == 0
    migrated = snapshot(ckpt)
    assert len(migrated) == 4 and not os.path.exists(os.path.join(ckpt, "_lineage", "parts"))
    resumed = write_parquet_single_file(
        ray_data.from_arrow(table).repartition(4), str(tmp_path / "b.parquet"),
        max_group_rows=1_000, checkpoint_dir=ckpt)
    assert snapshot(ckpt) == migrated
    for key in fresh.keys() - {"path"}:
        assert resumed[key] == fresh[key], key
    assert (tmp_path / "a.parquet").read_bytes() == \
        (tmp_path / "b.parquet").read_bytes()


def test_single_file_resume_ignores_old_checkpoint_records(ray_data, tmp_path, monkeypatch):
    """A checkpoint_dir as versions that put a file-less
    ``parts/<id>.json`` record after each blob left it, one blob
    without its record (a kill between the two puts): the rerun reuses
    every blob, encodes no group, leaves the old records as they are
    and writes the fresh run's bytes."""
    from hyparquet_writer_ray.core.rowgroup import loads
    from hyparquet_writer_ray.state.lineage import LineageLog, record_from_meta

    table = synthesize_table(4_000)
    ckpt = str(tmp_path / "ckpt")

    def run(name: str) -> dict:
        return write_parquet_single_file(
            ray_data.from_arrow(table).repartition(4), str(tmp_path / name),
            max_group_rows=1_000, checkpoint_dir=ckpt)

    fresh = run("a.parquet")
    log = LineageLog(ckpt)
    ids = sorted(log.completed_parts())
    assert len(ids) == 4
    for part_id in ids[1:]:  # ids[0] was killed before its record
        meta = loads(log.load_blob(part_id))[1]
        log.write_part_record(part_id, [record_from_meta(part_id, meta)])
    before = snapshot(ckpt)
    encoded = []
    real = LineageLog.write_checkpoint
    monkeypatch.setattr(LineageLog, "write_checkpoint",
                        lambda self, part_id, group: (encoded.append(part_id),
                                                      real(self, part_id, group)))
    resumed = run("b.parquet")
    assert encoded == []
    assert snapshot(ckpt) == before
    assert {**resumed, "path": fresh["path"]} == fresh
    assert (tmp_path / "a.parquet").read_bytes() == (tmp_path / "b.parquet").read_bytes()


def _orphan(path: str, age: float) -> str:
    """The tmp a write of ``path`` killed ``age`` seconds ago left."""
    from hyparquet_writer_ray.state import fsio

    tmp = fsio.tmp_name(path)
    os.makedirs(os.path.dirname(tmp), exist_ok=True)
    with open(tmp, "wb") as f:
        f.write(b"torn")
    os.utime(tmp, (os.path.getmtime(tmp) - age,) * 2)
    return tmp


def test_rerun_sweeps_lineage_orphans(ray_data, tmp_path):
    """Tmps of killed lineage record and checkpoint blob writes are
    swept by the next run when aged, in an out_dir and in a
    checkpoint_dir; a fresh one (a live writer's) survives."""
    from hyparquet_writer_ray.pipelines.write import write_parquet_files

    src = str(tmp_path / "in.parquet")
    pq.write_table(synthesize_table(500), src)
    out_dir, ckpt = str(tmp_path / "out"), str(tmp_path / "ckpt")
    write_parquet_files([src], out_dir)
    write_parquet_single_file(ray_data.read_parquet(src),
                              str(tmp_path / "one.parquet"), checkpoint_dir=ckpt)
    aged = [_orphan(os.path.join(d, "_lineage", sub, name), 7200)
            for d in (out_dir, ckpt)
            for sub, name in (("parts", "abc.json"), ("blobs", "g0"))]
    fresh = _orphan(os.path.join(ckpt, "_lineage", "parts", "def.json"), 0)
    write_parquet_files([src], out_dir)
    write_parquet_single_file(ray_data.read_parquet(src),
                              str(tmp_path / "one.parquet"), checkpoint_dir=ckpt)
    assert [t for t in aged if os.path.exists(t)] == []
    assert os.path.exists(fresh)


def test_two_drivers_share_one_out_dir(ray_data, tmp_path):
    """Two writers finishing parts into one out_dir at the same time
    lose no record: each part's record is its own object, and no
    driver rewrites a shared manifest."""
    import threading

    from hyparquet_writer_ray.pipelines.write import write_parquet_files
    from hyparquet_writer_ray.state.lineage import LineageLog

    paths = []
    for i in range(6):
        paths.append(str(tmp_path / f"in-{i}.parquet"))
        pq.write_table(synthesize_table(300), paths[-1])
    out_dir = str(tmp_path / "out")
    results, errors = [], []

    def driver(inputs):
        try:
            results.append(write_parquet_files(inputs, out_dir))
        except BaseException as e:  # surfaced below
            errors.append(e)

    threads = [threading.Thread(target=driver, args=(paths[i::2],))
               for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert sorted(r["parts"] for r in results) == [3, 3]
    done = LineageLog(out_dir).completed_records()
    assert set(done) == {os.path.basename(f) for f in
                         glob.glob(os.path.join(out_dir, "part-*.parquet"))}
    assert len(done) == 6
    again = write_parquet_files(paths, out_dir)
    assert (again["parts"], again["skipped_parts"]) == (6, 6)
    assert again["rows"] == sum(r["rows"] for r in results) == 1_800
    assert not os.path.exists(os.path.join(out_dir, "_lineage", "manifest.jsonl"))


@pytest.mark.xfail(strict=True, reason=(
    "content-named part ids hash each group's Arrow IPC stream, so they "
    "follow the chunk layout of Ray's read, whose batch size Ray estimates "
    "by sampling the first and last input: one more input renames every "
    "part of the others and writes their rows twice"))
def test_content_path_resume_after_an_added_input(ray_data, tmp_path, monkeypatch):
    """A content-path write (an opaque Dataset over a fused read),
    resumed with one more input, should skip every part of the inputs
    it already wrote and hold each row once. The added input has wider
    rows than the others, so Ray's sampled read batch size changes; the
    1 MiB block target keeps that batch under one input's rows."""
    import pyarrow as pa

    from hyparquet_writer_ray.pipelines.write import read_parquet_fused

    monkeypatch.setattr(ray_data.DataContext.get_current(),
                        "target_max_block_size", 1 << 20)
    paths = []
    for i, width in enumerate((100, 100, 100, 1000)):
        ids = range(i * 2000, (i + 1) * 2000)
        paths.append(str(tmp_path / f"in-{i}.parquet"))
        pq.write_table(pa.table({"id": ids, "s": [f"{j:08d}" + "x" * width for j in ids]}),
                       paths[-1])
    out = str(tmp_path / "out")

    def write(inputs):
        ds = read_parquet_fused(inputs).map_batches(lambda b: b, batch_format="pyarrow")
        return write_parquet_dataset(ds, out)

    first = write(paths[:3])
    resumed = write(paths)
    rows, distinct = duckdb.sql(
        f"select count(*), count(distinct id) from '{out}/part-*.parquet'").fetchone()
    assert (rows, distinct) == (8000, 8000)
    assert resumed["skipped_parts"] == first["parts"]


def test_webtable_determinism(ray_data):
    a = synthesize_table(1000)
    b = synthesize_table(1000)
    assert a.equals(b)
    # distributed generation produces the same rows as local
    ds = webtable_dataset(1000, rows_per_block=250)
    got = ds.to_arrow_refs()
    import ray

    import pyarrow as pa

    t = pa.concat_tables([ray.get(r) for r in got])
    t = t.combine_chunks()
    assert sorted(t.column("url").to_pylist()) == sorted(a.column("url").to_pylist())


def test_single_file_checkpoint_resume(ray_data, tmp_path):
    src = "/root/testdata/sf0.001/orders.parquet"
    ckpt = str(tmp_path / "ckpt")
    ds = ray_data.read_parquet(src)
    write_parquet_single_file(ds, str(tmp_path / "a.parquet"), concurrency=2, checkpoint_dir=ckpt)
    # rerun with same checkpoint: all groups come from the blob store
    ds2 = ray_data.read_parquet(src)
    out = write_parquet_single_file(ds2, str(tmp_path / "b.parquet"), concurrency=2, checkpoint_dir=ckpt)
    a = pq.read_table(tmp_path / "a.parquet")
    b = pq.read_table(tmp_path / "b.parquet")
    assert a.equals(b)
    # every group of the rerun came from a checkpoint: same bytes
    assert (tmp_path / "a.parquet").read_bytes() == (tmp_path / "b.parquet").read_bytes()


def test_write_parquet_files_shard_mode(ray_data, tmp_path):
    """Shard-to-shard mode: one part per input file, resume keyed on the
    input file name, column pruning at the read."""
    import pyarrow as pa

    from hyparquet_writer_ray.pipelines.write import write_parquet_files
    from hyparquet_writer_ray.sources.webtable import synthesize_batch

    in_dir = tmp_path / "in"
    in_dir.mkdir()
    paths = []
    for i in range(4):
        p = str(in_dir / f"shard{i}.parquet")
        pq.write_table(synthesize_batch(i * 1000, 1000), p)
        paths.append(p)
    out_dir = str(tmp_path / "out")
    s = write_parquet_files(paths, out_dir, columns=["url", "lang"])
    assert s["parts"] == 4 and s["rows"] == 4000
    got = duckdb.sql(f"select count(*), count(distinct url) from '{out_dir}/part-*.parquet'").fetchone()
    assert got == (4000, 4000)
    # pruned read: only the requested columns exist in the output
    cols = pq.read_table(glob.glob(f"{out_dir}/part-*.parquet")[0]).column_names
    assert sorted(cols) == ["lang", "url"]
    # resume skips everything
    s2 = write_parquet_files(paths, out_dir, columns=["url", "lang"])
    assert s2["skipped_parts"] == 4
    # resumed runs report true row counts (read from the part footers)
    assert s2["rows"] == 4000
    # delete one part -> only that shard re-encodes (part names carry a
    # path-hash suffix so same-named inputs from different dirs cannot
    # collide)
    os.remove(glob.glob(f"{out_dir}/part-shard1-*.parquet")[0])
    s3 = write_parquet_files(paths, out_dir, columns=["url", "lang"])
    assert s3["skipped_parts"] == 3
    got = duckdb.sql(f"select count(*) from '{out_dir}/part-*.parquet'").fetchone()
    assert got == (4000,)


def test_read_parquet_fused_plan(ray_session, tmp_path):
    """read_parquet_fused must produce a plan where the read fuses with
    the downstream map_batches (no SplitBlocks between them)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from hyparquet_writer_ray.pipelines.write import read_parquet_fused

    for i in range(3):
        pq.write_table(pa.table({"x": list(range(i * 10, i * 10 + 10))}),
                       str(tmp_path / f"f{i}.parquet"))
    ds = read_parquet_fused(str(tmp_path))
    out = ds.map_batches(lambda t: pa.table({"n": [t.num_rows]}),
                         batch_format="pyarrow", zero_copy_batch=True,
                         batch_size=None)
    total = sum(b.column("n")[0].as_py()
                for b in out.iter_batches(batch_size=None, batch_format="pyarrow"))
    assert total == 30
    stats = out.stats()
    assert "ReadParquet->MapBatches" in stats
    assert "SplitBlocks" not in stats


def test_compact_parquet_dataset(ray_session, tmp_path):
    """Many small files -> few target-sized parts; values preserved;
    rerun skips all finished buckets (resume by bucket identity)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from hyparquet_writer_ray.pipelines.write import compact_parquet_dataset

    src = tmp_path / "small"
    src.mkdir()
    for i in range(12):
        pq.write_table(
            pa.table({"id": list(range(i * 100, i * 100 + 100)),
                      "v": [f"val{j}" for j in range(100)]}),
            str(src / f"f{i:02d}.parquet"),
        )
    sizes = [os.path.getsize(src / f) for f in os.listdir(src)]
    out = tmp_path / "compacted"
    stats = compact_parquet_dataset(str(src), str(out),
                                    target_part_bytes=4 * sizes[0])
    assert stats["input_files"] == 12
    assert stats["rows"] == 1200
    n_parts = len([f for f in os.listdir(out) if f.endswith(".parquet")])
    # ~4 files per bucket (sizes vary by a few bytes per file)
    assert n_parts == stats["parts"]
    assert 3 <= n_parts <= 4
    got = duckdb.sql(
        f"SELECT count(*), sum(id), count(DISTINCT v) FROM '{out}/*.parquet'"
    ).fetchone()
    assert got == (1200, sum(range(1200)), 100)
    # resume: rerun with identical input skips every bucket
    stats2 = compact_parquet_dataset(str(src), str(out),
                                     target_part_bytes=4 * sizes[0])
    assert stats2["skipped_parts"] == n_parts


def test_compact_rerun_after_input_change(ray_session, tmp_path):
    """Regenerating an input file (same size, new mtime) must re-run its
    bucket instead of serving stale compacted output."""
    import time

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from hyparquet_writer_ray.pipelines.write import compact_parquet_dataset

    src = tmp_path / "in"
    src.mkdir()
    for i in range(4):
        pq.write_table(pa.table({"v": [i * 10 + j for j in range(50)]}),
                       str(src / f"f{i}.parquet"))
    out = tmp_path / "out"
    compact_parquet_dataset(str(src), str(out), target_part_bytes=1 << 30)
    before = duckdb.sql(f"SELECT sum(v) FROM '{out}/*.parquet'").fetchone()[0]
    # regenerate one input with DIFFERENT values but identical size
    time.sleep(0.05)
    pq.write_table(pa.table({"v": [900 + j for j in range(50)]}),
                   str(src / "f0.parquet"))
    stats = compact_parquet_dataset(str(src), str(out), target_part_bytes=1 << 30)
    assert stats["skipped_parts"] == 0  # bucket id changed -> re-ran
    assert stats["removed_stale_parts"] == 1  # superseded part GC'd
    # exactly the new corpus remains: old f0 rows replaced by the 900s
    rows = duckdb.sql(
        f"SELECT count(*), sum(v) FROM '{out}/part-*.parquet'"
    ).fetchone()
    assert rows[0] == 200
    assert rows[1] != before
    assert duckdb.sql(
        f"SELECT count(*) FROM '{out}/part-*.parquet' WHERE v < 10"
    ).fetchone()[0] == 0


def test_compact_gc_spares_foreign_files(ray_session, tmp_path):
    """Stale-part GC only removes files this compactor's lineage wrote;
    pre-existing parquet in out_dir must survive (ADVICE r2)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from hyparquet_writer_ray.pipelines.write import compact_parquet_dataset

    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(pa.table({"v": list(range(10))}), str(src / "a.parquet"))
    out = tmp_path / "out"
    out.mkdir()
    foreign = out / "precious.parquet"
    pq.write_table(pa.table({"x": [1, 2, 3]}), str(foreign))
    stats = compact_parquet_dataset(str(src), str(out), target_part_bytes=1 << 30)
    assert foreign.exists()
    assert stats["removed_stale_parts"] == 0


def test_compact_refuses_in_place(ray_session, tmp_path):
    """out_dir containing the inputs must raise, not eat the inputs."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest as _pytest

    from hyparquet_writer_ray.pipelines.write import compact_parquet_dataset

    d = tmp_path / "data"
    d.mkdir()
    pq.write_table(pa.table({"v": [1, 2]}), str(d / "a.parquet"))
    with _pytest.raises(ValueError, match="in place"):
        compact_parquet_dataset(str(d), str(d), target_part_bytes=1 << 30)


def test_write_parquet_partitioned_roundtrip_and_resume(ray_data, tmp_path):
    """Hive-partitioned output: <col>=<value>/part-*.parquet dirs, the
    partition column dropped from files and re-materialized on read;
    content-hash resume skips every finished part; null partition
    values land in the hive default-partition directory."""
    import pyarrow as pa

    from hyparquet_writer_ray.pipelines.write import write_parquet_partitioned

    src = pa.table({
        "doc_id": pa.array(range(100), pa.int64()),
        "lang": pa.array((["en", "de", "fr", None] * 25)),
        "n": pa.array([i * 2 for i in range(100)], pa.int64()),
    })
    out = str(tmp_path / "parts")
    stats = write_parquet_partitioned(
        ray_data.from_arrow(src), out, "lang")
    assert stats["rows"] == 100 and stats["skipped_parts"] == 0
    dirs = sorted(os.path.basename(d) for d in glob.glob(os.path.join(out, "lang=*")))
    assert dirs == ["lang=__HIVE_DEFAULT_PARTITION__", "lang=de",
                    "lang=en", "lang=fr"]
    # files do NOT carry the partition column (hive standard)
    one = glob.glob(os.path.join(out, "lang=en", "*.parquet"))[0]
    assert "lang" not in pq.read_schema(one).names
    back = pa.concat_tables(
        b for b in ray_data.read_parquet(out).iter_batches(
            batch_size=None, batch_format="pyarrow")
    )
    a = back.select(["doc_id", "lang", "n"]).sort_by("doc_id").combine_chunks()
    assert a.column("doc_id").to_pylist() == list(range(100))
    assert a.column("n").to_pylist() == [i * 2 for i in range(100)]
    # hive readers surface the null-partition directory as the sentinel
    # string unless configured with a null_fallback — match that
    want_lang = [x if x is not None else "__HIVE_DEFAULT_PARTITION__"
                 for x in src.sort_by("doc_id").column("lang").to_pylist()]
    assert a.column("lang").cast(pa.string()).to_pylist() == want_lang
    # resume: identical rerun writes nothing
    stats2 = write_parquet_partitioned(
        ray_data.from_arrow(src), out, "lang")
    assert stats2["skipped_parts"] == stats2["parts"] > 0
    # duckdb reads the same layout
    n = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{out}/*/*.parquet', "
        f"hive_partitioning=1)").fetchone()[0]
    assert n == 100


def test_sort_by_local_sort_roundtrip_and_smaller(ray_data, tmp_path):
    """Block-local sort-before-encode: lossless as a multiset, sorted
    within each part, and smaller than unsorted on shuffled input."""
    import numpy as np
    import pyarrow as pa

    src = "/root/testdata/sf0.001/events.parquet"
    t = pq.read_table(src)
    perm = np.random.default_rng(3).permutation(len(t))
    shuf = str(tmp_path / "shuf.parquet")
    pq.write_table(t.take(pa.array(perm)), shuf)

    sizes = {}
    for tag, sb in [("plain", None), ("sorted", ["ts"])]:
        out = tmp_path / tag
        stats = write_parquet_dataset(
            ray_data.read_parquet(shuf), str(out), WriteOptions(auto_codec="smart"),
            resume=False, sort_by=sb,
        )
        sizes[tag] = stats["compressed_bytes"]
        got = pa.concat_tables(
            pq.read_table(f) for f in sorted(glob.glob(f"{out}/*.parquet"))
        )
        assert got.num_rows == len(t)
        assert got.sort_by("event_id").equals(t.sort_by("event_id"))
        if sb:
            for f in glob.glob(f"{out}/*.parquet"):
                ts = pq.read_table(f).column("ts").to_numpy(zero_copy_only=False)
                assert np.all(ts[:-1] <= ts[1:])  # sorted WITHIN each part
    assert sizes["sorted"] < sizes["plain"]


def test_perfbench_span_bindings(tmp_path):
    """perfbench/spans.py patches names in pipelines/write.py by
    attribute; a refactor that drops or rebinds one silently empties
    the traced benchmark's per-layer metrics."""
    import sys

    import pyarrow as pa

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench import spans

    from hyparquet_writer_ray.pipelines.write import PartFileWriter

    table = pa.table({"id": list(range(50)), "s": [f"v{i % 7}" for i in range(50)]})
    rec = spans.Recorder()
    spans.install(rec)
    try:
        rows = list(PartFileWriter(WriteOptions(), table.schema, str(tmp_path))(table))
    finally:
        spans.uninstall()
    assert len(rows) == 1 and rows[0].column("rows")[0].as_py() == 50
    names = {s[2] for s in rec.spans}
    assert {"pipelines.write.part_writer", "stages.encode.content_part_id",
            "stages.encode.split_row_groups",
            "core.rowgroup.encode_row_group"} <= names
