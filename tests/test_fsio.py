"""fsspec-backed checkpoint namespaces (VERDICT r4 item 3): the _DONE
marker protocol, scratch knob, block files and score checkpoints must
work against object-store-style URIs, not just POSIX mounts. memory://
covers the helper semantics in-process; file:// URIs drive the full
distributed kill-resume paths end-to-end through real Ray workers
(every byte routed through the fsspec branch of state/fsio.py)."""
from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pytest

from hyparquet_writer_ray.state import fsio


def test_is_uri_schemes_and_windows_drive():
    # ADVICE r4: 'C://shared/scratch' is a Windows drive path, not a URI
    assert not fsio.is_uri("C://shared/scratch")
    assert not fsio.is_uri("/tmp/x")
    assert not fsio.is_uri("relative/dir")
    assert fsio.is_uri("s3://bucket/key")
    assert fsio.is_uri("memory://ckpt")
    assert fsio.is_uri("file:///tmp/x")
    # a colon in a local relative path's first segment is not a scheme
    assert not fsio.is_uri("ab:cd/out")
    assert not fsio.is_uri("2026-10-17T04:00/out")


def test_memory_uri_marker_glob_rmtree():
    base = "memory://fsio_t1"
    fsio.makedirs(base)
    marker = fsio.join(base, "_DONE")
    assert not fsio.exists(marker)
    fsio.write_marker(marker, "1,2,3")
    assert fsio.exists(marker)
    assert fsio.read_marker(marker) == "1,2,3"
    fsio.pq_write_table(pa.table({"x": [1, 2, 3]}),
                        fsio.join(base, "block-0.parquet"))
    fsio.pq_write_table(pa.table({"x": [4]}),
                        fsio.join(base, "block-1.parquet"))
    got = fsio.glob(fsio.join(base, "block-*.parquet"))
    assert [os.path.basename(p) for p in got] == \
        ["block-0.parquet", "block-1.parquet"]
    assert all(p.startswith("memory://") for p in got)  # caller namespace
    assert fsio.parquet_num_rows(got[0]) == 3
    t = fsio.pq_read_table(got[1])
    assert t.column("x").to_pylist() == [4]
    fsio.rm_tree(base)
    assert not fsio.exists(marker)
    fsio.rm_tree(base)  # second removal is a no-op, not an error


def test_mkdtemp_memory_base_unique():
    a = fsio.mkdtemp("sigs_", base="memory://fsio_scratch")
    b = fsio.mkdtemp("sigs_", base="memory://fsio_scratch")
    assert a != b and a.startswith("memory://fsio_scratch/sigs_")
    assert fsio.exists(a) and fsio.exists(b)
    fsio.rm_tree("memory://fsio_scratch")


def test_scratch_dir_accepts_uri_and_windows_drive(monkeypatch, tmp_path):
    from hyparquet_writer_ray.functions.dedup import _scratch_dir

    monkeypatch.setenv("HPW_SCRATCH_DIR", "memory://fsio_knob")
    d = _scratch_dir("minhash_sigs_")
    assert d.startswith("memory://fsio_knob/minhash_sigs_")
    assert fsio.exists(d)
    fsio.rm_tree("memory://fsio_knob")
    # one-letter scheme = Windows drive syntax: treated as a LOCAL path
    # (the old substring test raised ValueError on it)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HPW_SCRATCH_DIR", "C://shared/scratch")
    d = _scratch_dir("ngram_sets_")
    assert os.path.isdir(d)


def test_checkpoint_partial_write_cleared_memory():
    """A dir with parquet but NO marker is a crashed partial write and
    must be cleared before re-checkpointing (URI branch semantics)."""
    from hyparquet_writer_ray.functions.dedup import _checkpoint_is_empty

    base = "memory://fsio_partial"
    fsio.makedirs(base)
    fsio.pq_write_table(pa.table({"x": [1]}),
                        fsio.join(base, "p0.parquet"))
    assert not _checkpoint_is_empty(base)
    assert not fsio.exists(fsio.join(base, "_DONE"))
    fsio.rm_tree(base)


def _file_uri(p) -> str:
    return f"file://{p}"


def test_lineage_memory_uri_roundtrip():
    """LineageLog against an object-store-style fs: per-part records
    are single PUTs and the only records written, resume reads them,
    clear forgets everything."""
    from hyparquet_writer_ray.state.lineage import LineageLog, PartRecord

    base = "memory://fsio_lineage"
    fsio.makedirs(base)
    log = LineageLog(base)
    recs = [PartRecord(part_id="p0", num_rows=5, raw_bytes=100,
                       comp_bytes=40, file="part-p0.parquet")]
    # worker-side record: durable immediately
    log.write_part_record("p0", recs)
    # the referenced part file must exist for the record to count
    fsio.pq_write_table(pa.table({"x": [1, 2, 3, 4, 5]}),
                        fsio.join(base, "part-p0.parquet"))
    got = LineageLog(base).completed_records()
    assert set(got) == {"part-p0.parquet"} and got["part-p0.parquet"].records == recs
    log.write_part_record("p1", [PartRecord(part_id="p1", num_rows=2, raw_bytes=10,
                                            comp_bytes=5, file="part-p1.parquet")])
    assert not fsio.exists(fsio.join(base, "_lineage", "manifest.jsonl"))
    # p1's file was never written: not done
    assert set(LineageLog(base).completed_records()) == {"part-p0.parquet"}
    LineageLog(base).clear()
    assert LineageLog(base).completed_records() == {}
    fsio.rm_tree(base)


def test_write_parquet_dataset_file_uri_resume(ray_session, tmp_path):
    """The 100 TB part-file writer against a URI out_dir: atomic-PUT
    parts, per-part lineage records, full resume semantics — end to end
    through real Ray workers (file:// exercises every fsspec branch)."""
    import duckdb
    import ray.data

    from hyparquet_writer_ray.pipelines.write import write_parquet_dataset
    from hyparquet_writer_ray.sources.webtable import webtable_dataset

    out_local = str(tmp_path / "web_uri")
    out = _file_uri(out_local)
    ds = webtable_dataset(20_000, rows_per_block=5_000)
    s = write_parquet_dataset(ds, out, concurrency=2)
    assert s["parts"] == 4 and s["rows"] == 20_000 and s["skipped_parts"] == 0
    n = duckdb.sql(
        f"select count(*) from '{out_local}/part-*.parquet'").fetchone()[0]
    assert n == 20_000
    assert len(os.listdir(os.path.join(out_local, "_lineage", "parts"))) == 4
    assert not os.path.exists(
        os.path.join(out_local, "_lineage", "manifest.jsonl"))
    # identical rerun: every part skipped via the URI lineage records
    s2 = write_parquet_dataset(
        webtable_dataset(20_000, rows_per_block=5_000), out, concurrency=2)
    assert s2["skipped_parts"] == 4
    # kill simulation: drop one part file; only IT re-encodes
    victim = sorted(f for f in os.listdir(out_local)
                    if f.endswith(".parquet"))[0]
    os.unlink(os.path.join(out_local, victim))
    s3 = write_parquet_dataset(
        webtable_dataset(20_000, rows_per_block=5_000), out, concurrency=2)
    assert s3["skipped_parts"] == 3 and s3["parts"] == 4
    n = duckdb.sql(
        f"select count(*) from '{out_local}/part-*.parquet'").fetchone()[0]
    assert n == 20_000


def test_uri_and_local_outputs_byte_identical(ray_session, tmp_path):
    """Parts are content-hash named and deterministic, so a URI out_dir
    must yield the exact same file set, byte for byte, as a local one —
    the fsspec sink path cannot perturb output."""
    from hyparquet_writer_ray.pipelines.write import write_parquet_dataset
    from hyparquet_writer_ray.sources.webtable import webtable_dataset

    a, b = tmp_path / "local", tmp_path / "uri"
    write_parquet_dataset(webtable_dataset(10_000, rows_per_block=5_000),
                          str(a), concurrency=2)
    write_parquet_dataset(webtable_dataset(10_000, rows_per_block=5_000),
                          _file_uri(b), concurrency=2)
    fa = {p.name: p.read_bytes() for p in a.glob("part-*.parquet")}
    fb = {p.name: p.read_bytes() for p in b.glob("part-*.parquet")}
    assert fa and fa == fb


def test_write_parquet_files_file_uri(ray_session, tmp_path):
    """Shard-to-shard writer with a URI out_dir (incl. ``migrate
    --input``'s legacy-name cleanup going through fsspec remove)."""
    import pyarrow.parquet as pq

    from hyparquet_writer_ray.migrate import migrate
    from hyparquet_writer_ray.pipelines.write import write_parquet_files

    src = tmp_path / "in"
    src.mkdir()
    inp = str(src / "x.parquet")
    pq.write_table(pa.table({"x": [1, 2, 3]}), inp)
    out_local = tmp_path / "out_uri"
    out_local.mkdir()
    pq.write_table(pa.table({"x": [9]}), str(out_local / "part-x.parquet"))
    migrate(_file_uri(out_local), [inp])
    s = write_parquet_files([inp], _file_uri(out_local))
    assert s["rows"] == 3
    parts = [f for f in os.listdir(str(out_local))
             if f.endswith(".parquet")]
    assert "part-x.parquet" not in parts  # legacy removed through fsio
    ours = [p for p in parts if p.startswith("part-x-")]
    assert len(ours) == 1
    assert pq.read_table(str(out_local / ours[0])) \
        .column("x").to_pylist() == [1, 2, 3]
    # resume: footer-read skip path through fsio
    s2 = write_parquet_files([inp], _file_uri(out_local))
    assert s2["skipped_parts"] == 1 and s2["rows"] == 3


def test_write_parquet_partitioned_file_uri(ray_session, tmp_path):
    """Hive-partitioned writer with a URI out_dir: per-value subdirs +
    parts + lineage all through fsspec; resume skips everything."""
    import duckdb
    import ray.data

    from hyparquet_writer_ray.pipelines.write import write_parquet_partitioned

    t = pa.table({
        "k": pa.array(["a", "b", "a", "c", "b", "a"], pa.string()),
        "v": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
    })
    out_local = str(tmp_path / "hive_uri")
    out = _file_uri(out_local)
    ds = ray.data.from_arrow(t)
    s = write_parquet_partitioned(ds, out, "k")
    assert s["rows"] == 6
    got = duckdb.sql(
        f"select sum(v) from read_parquet('{out_local}/*/part-*.parquet', "
        "hive_partitioning=1) where k = 'a'").fetchone()[0]
    assert got == 10
    s2 = write_parquet_partitioned(ray.data.from_arrow(t), out, "k")
    assert s2["skipped_parts"] == s2["parts"] > 0


def test_minhash_file_uri_checkpoint_kill_resume(ray_session, tmp_path):
    """The existing sig_dir kill-resume contract, driven through a
    file:// URI so every marker/glob/write/read crosses the fsspec
    branch with real multi-process Ray workers."""
    import ray.data

    from hyparquet_writer_ray.functions.dedup import minhash_lsh_pairs

    rng = np.random.default_rng(5)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    texts = [" ".join(rng.choice(words, 30)) for _ in range(30)]
    texts = [texts[0], texts[0]] + texts[2:]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": texts})
    sd = _file_uri(tmp_path / "sigs")

    def run():
        out = minhash_lsh_pairs(ray.data.from_arrow(t), threshold=0.5,
                                num_partitions=2, sig_dir=sd)
        res = pa.concat_tables(
            b for b in out.iter_batches(batch_size=None,
                                        batch_format="pyarrow"))
        return sorted(zip(res.column("a").to_pylist(),
                          res.column("b").to_pylist()))

    first = run()
    assert (0, 1) in first
    marker = os.path.join(str(tmp_path / "sigs"), "_DONE")
    assert os.path.exists(marker)  # URI write landed on the real fs
    n_files = len([f for f in os.listdir(str(tmp_path / "sigs"))
                   if f.endswith(".parquet")])
    assert n_files > 0
    second = run()  # resume: checkpoint reused, no append duplication
    assert second == first
    assert len([f for f in os.listdir(str(tmp_path / "sigs"))
                if f.endswith(".parquet")]) == n_files
    # kill-before-marker: partial dir is cleared and rebuilt
    os.unlink(marker)
    third = run()
    assert third == first


def test_exact_cosine_file_uri_block_resume(ray_session, tmp_path):
    """Block files + blocklist marker through file:// URIs; the resume
    must not re-run the normalize pass (poisoned input proves it)."""
    import ray.data

    from hyparquet_writer_ray.functions.similarity import exact_cosine_pairs

    rng = np.random.default_rng(7)
    mat = rng.normal(size=(40, 8))
    planted = np.vstack([mat, mat[:2] * 2.0])
    ids = list(range(40)) + [100, 101]
    t = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in planted],
                              pa.list_(pa.float32())),
    })
    ds = ray.data.from_arrow(t)
    bdir = _file_uri(tmp_path / "blocks")

    def pairs(out):
        res = pa.concat_tables(
            b for b in out.iter_batches(batch_size=None,
                                        batch_format="pyarrow"))
        return sorted(zip(res.column("a").to_pylist(),
                          res.column("b").to_pylist()))

    first = pairs(exact_cosine_pairs(ds, threshold=0.9, rows_per_block=8,
                                     block_dir=bdir))
    assert {(0, 100), (1, 101)} <= set(first)
    assert os.path.exists(str(tmp_path / "blocks" / "_DONE"))

    def _boom(batch):
        raise RuntimeError("normalize must not re-run on resume")

    poisoned = ds.map_batches(_boom, batch_format="pyarrow")
    second = pairs(exact_cosine_pairs(poisoned, threshold=0.9,
                                      rows_per_block=8, block_dir=bdir))
    assert second == first


def test_mixture_score_dir_file_uri(ray_session, tmp_path):
    """export_training_mixture with a URI score_dir: the score
    checkpoint lives off the POSIX out_dir and resume still skips the
    corpus scans."""
    import ray.data

    from hyparquet_writer_ray.pipelines.mixture import (
        export_training_mixture, verify_mixture_output)

    rng = np.random.default_rng(11)
    words = ["the", "data", "web", "page", "crawl", "content"]
    docs = [" ".join(rng.choice(words, 20)) for _ in range(40)]
    t = pa.table({"doc_id": pa.array(range(40), pa.int64()),
                  "text": docs})
    ds = ray.data.from_arrow(t).repartition(2)
    out = str(tmp_path / "mix")
    sd = _file_uri(tmp_path / "scores_remote")
    s1, _, _ = export_training_mixture(ds, out, keep_quantile=0.5,
                                       seed=7, score_dir=sd)
    rows1 = sorted(sum((p.column("doc_id").to_pylist()
                        for p in verify_mixture_output(out)), []))
    assert rows1
    assert os.path.exists(str(tmp_path / "scores_remote" / "_DONE"))
    scores = sorted(f for f in os.listdir(str(tmp_path / "scores_remote"))
                    if f.endswith(".parquet"))
    assert scores
    sig = [(f, os.stat(os.path.join(str(tmp_path / "scores_remote"), f))
            .st_mtime_ns) for f in scores]
    for p in [f for f in os.listdir(out) if f.endswith(".parquet")]:
        os.unlink(os.path.join(out, p))
    s2, _, _ = export_training_mixture(ds, out, keep_quantile=0.5,
                                       seed=7, score_dir=sd, resume=True)
    rows2 = sorted(sum((p.column("doc_id").to_pylist()
                        for p in verify_mixture_output(out)), []))
    assert rows2 == rows1
    assert [(f, os.stat(os.path.join(str(tmp_path / "scores_remote"), f))
             .st_mtime_ns) for f in scores] == sig, "checkpoint rewritten"


# -- round-5 review findings: torn-write and metachar regressions -----


def test_fs_rename_based_split():
    import fsspec

    assert fsio.fs_rename_based(fsspec.filesystem("file"))
    # memory:// shows a file at its name from open: a filesystem, not a store
    assert fsio.fs_rename_based(fsspec.filesystem("memory"))

    # only atomic-PUT object stores skip tmp + rename; filesystem-backed
    # protocols such as hdfs/webhdfs (not installed here) must not
    class Stub:
        def __init__(self, protocol):
            self.protocol = protocol

    assert fsio.fs_rename_based(Stub("hdfs"))
    assert fsio.fs_rename_based(Stub(("webhdfs", "webHDFS")))
    assert not fsio.fs_rename_based(Stub("s3"))
    assert not fsio.fs_rename_based(Stub(("gcs", "gs")))


def test_glob_in_escapes_metachar_dirs(tmp_path):
    """A literal out_dir named run[1] must match itself, not be read as
    a character class (which silently returns 'no completed parts')."""
    d = tmp_path / "run[1]"
    d.mkdir()
    (d / "part-a.parquet").write_bytes(b"x")
    assert fsio.glob_in(str(d), "*.parquet") == \
        [str(d / "part-a.parquet")]
    # plain glob on the same path demonstrates the failure mode
    assert fsio.glob(os.path.join(str(d), "*.parquet")) == []
    # URI branch
    got = fsio.glob_in(_file_uri(d), "*.parquet")
    assert [os.path.basename(p) for p in got] == ["part-a.parquet"]
    assert all(p.startswith("file://") for p in got)


def test_lineage_completed_parts_metachar_dir(tmp_path):
    """Reproducer from the r5 review: checkpoints written under run[1]
    must be found on resume."""
    from hyparquet_writer_ray.state.lineage import LineageLog

    base = str(tmp_path / "run[1]")
    LineageLog(base).write_checkpoint("p0", b"blob")
    assert LineageLog(base).completed_parts() == {"p0"}


def test_part_sink_file_uri_never_exposes_partial(tmp_path):
    """Rename-based fsspec protocols must go tmp+mv: while the write is
    in flight the final name must not exist, and an aborted write must
    leave neither the final name nor the tmp."""
    from hyparquet_writer_ray.state.fsio import atomic_sink as _part_sink

    dest = tmp_path / "part.parquet"
    uri = _file_uri(dest)
    with _part_sink(uri) as f:
        f.write(b"PAR1partial")
        assert not dest.exists()  # invisible until complete
    assert dest.read_bytes() == b"PAR1partial"
    assert list(tmp_path.glob("*.inprogress-*")) == []

    dest2 = tmp_path / "part2.parquet"
    with pytest.raises(RuntimeError):
        with _part_sink(_file_uri(dest2)) as f:
            f.write(b"torn")
            raise RuntimeError("killed")
    assert not dest2.exists()
    assert list(tmp_path.glob("*.inprogress-*")) == []


def test_write_marker_file_uri_atomic(tmp_path):
    """Marker content is trusted on resume, so on a filesystem-backed
    protocol it must land via tmp+rename (no torn visible marker)."""
    m = tmp_path / "_DONE"
    fsio.write_marker(_file_uri(m), "0,1,2,3")
    assert fsio.read_marker(_file_uri(m)) == "0,1,2,3"
    assert m.read_text() == "0,1,2,3"
    assert list(tmp_path.glob("*.inprogress-*")) == []


def test_lineage_single_file_uri_records_survive_driver_kill():
    """URI: each checkpoint is one durable put of its blob, which is
    its own completion record, so a driver killed right after it still
    resumes."""
    from hyparquet_writer_ray.state.lineage import LineageLog

    base = "memory://fsio_sfckpt"
    fsio.makedirs(base)
    LineageLog(base).write_checkpoint("g0", b"groupbytes")
    assert LineageLog(base).completed_parts() == {"g0"}
    assert LineageLog(base).load_blob("g0") == b"groupbytes"
    assert not fsio.exists(fsio.join(base, "_lineage", "parts"))
    fsio.rm_tree(base)


def test_lineage_file_uri_keeps_prior_records(tmp_path):
    """On a rename-based fs (tmp+mv), records from run 1 survive run 2,
    and no tmp is left behind."""
    from hyparquet_writer_ray.state.lineage import LineageLog, PartRecord

    base = _file_uri(tmp_path / "lin")
    LineageLog(base).write_part_record("a", [PartRecord(
        part_id="a", num_rows=1, raw_bytes=1, comp_bytes=1)])
    LineageLog(base).write_part_record("b", [PartRecord(
        part_id="b", num_rows=2, raw_bytes=2, comp_bytes=2)])
    parts = tmp_path / "lin" / "_lineage" / "parts"
    assert sorted(p.name for p in parts.iterdir()) == ["a.json", "b.json"]
    assert [json.loads(p.read_text())[0]["num_rows"]
            for p in sorted(parts.iterdir())] == [1, 2]
    assert list((tmp_path / "lin").rglob("*.inprogress-*")) == []


def test_clean_dest_tmps_age_gated(tmp_path):
    """Single-file destinations sweep their own aged .inprogress-*
    orphans; fresh tmps (a concurrent writer's) survive."""
    from hyparquet_writer_ray.state.fsio import clean_dest_tmps as _clean_dest_tmps

    dest = tmp_path / "out.parquet"
    old = tmp_path / "out.parquet.inprogress-1-dead"
    fresh = tmp_path / "out.parquet.inprogress-2-live"
    old.write_bytes(b"x")
    fresh.write_bytes(b"y")
    past = os.path.getmtime(old) - 7200
    os.utime(old, (past, past))
    _clean_dest_tmps(str(dest))
    assert not old.exists() and fresh.exists()
    # URI (rename-based) branch
    old.write_bytes(b"x")
    os.utime(old, (past, past))
    _clean_dest_tmps(_file_uri(dest))
    assert not old.exists() and fresh.exists()
    fresh.unlink()


def test_write_parquet_dataset_metachar_out_dir_resume(ray_session, tmp_path):
    """End-to-end guard for the glob_in fix: resume into an out_dir
    containing glob metacharacters must skip finished parts."""
    from hyparquet_writer_ray.pipelines.write import write_parquet_dataset
    from hyparquet_writer_ray.sources.webtable import webtable_dataset

    out = str(tmp_path / "run[1]")
    s = write_parquet_dataset(webtable_dataset(10_000, rows_per_block=5_000),
                              out, concurrency=2)
    assert s["parts"] == 2 and s["skipped_parts"] == 0
    s2 = write_parquet_dataset(webtable_dataset(10_000, rows_per_block=5_000),
                               out, concurrency=2)
    assert s2["skipped_parts"] == 2


def test_write_parquet_files_untouched_unrelated_legacy(ray_session, tmp_path):
    """``migrate --input`` removes only those inputs' legacy names —
    unrelated part files stay."""
    import pyarrow.parquet as pq

    from hyparquet_writer_ray.migrate import migrate
    from hyparquet_writer_ray.pipelines.write import write_parquet_files

    src = tmp_path / "in"
    src.mkdir()
    inp = str(src / "x.parquet")
    pq.write_table(pa.table({"x": [1, 2]}), inp)
    out = tmp_path / "out"
    out.mkdir()
    pq.write_table(pa.table({"x": [9]}), str(out / "part-x.parquet"))
    pq.write_table(pa.table({"x": [8]}), str(out / "part-other.parquet"))
    migrate(str(out), [inp])
    write_parquet_files([inp], str(out))
    names = sorted(f for f in os.listdir(str(out)) if f.endswith(".parquet"))
    assert "part-x.parquet" not in names      # this input's legacy: gone
    assert "part-other.parquet" in names      # unrelated: untouched


# -- round-5 second review pass: failure-path semantics ----------------


def test_part_sink_object_store_fresh_name_failure_cleans(tmp_path):
    """A failed write to a NEW object-store name leaves nothing visible
    (memory:// surfaces partials at open, so the rm branch must fire)."""
    import fsspec

    from hyparquet_writer_ray.state.fsio import atomic_sink as _part_sink

    fs = fsspec.filesystem("memory")
    uri = "memory://fsio_sink_fail/part.parquet"
    with pytest.raises(RuntimeError):
        with _part_sink(uri) as f:
            f.write(b"torn")
            raise RuntimeError("killed")
    assert not fs.exists("/fsio_sink_fail/part.parquet")
    # success still lands content
    with _part_sink(uri) as f:
        f.write(b"PAR1ok")
    assert fs.cat("/fsio_sink_fail/part.parquet") == b"PAR1ok"
    fs.rm("/fsio_sink_fail", recursive=True)


def test_part_sink_memory_failed_rewrite_keeps_previous():
    """memory:// shows a file at its name from open, so it must get
    tmp + mv like any filesystem: a failed rewrite of an existing part
    keeps the previous bytes (writing the name in place left the
    partial new bytes there) and leaves no tmp."""
    import fsspec

    from hyparquet_writer_ray.state.fsio import atomic_sink as _part_sink

    fs = fsspec.filesystem("memory")
    fs.pipe("/fsio_rewrite/part.parquet", b"old")
    with pytest.raises(RuntimeError):
        with _part_sink("memory://fsio_rewrite/part.parquet") as f:
            f.write(b"new-partial")
            raise RuntimeError("killed")
    assert fs.cat("/fsio_rewrite/part.parquet") == b"old"
    assert fs.ls("/fsio_rewrite", detail=False) == ["/fsio_rewrite/part.parquet"]
    fs.rm("/fsio_rewrite", recursive=True)


def test_part_sink_object_store_failed_rewrite_keeps_previous():
    """A failed REWRITE of an existing object must not delete the
    previous successful object (the old unconditional rm did). Uses a
    true-object-store stand-in whose partials never surface and whose
    discard aborts the upload."""
    import io

    import fsspec
    from fsspec.implementations.memory import MemoryFileSystem

    from hyparquet_writer_ray.state import fsio

    class _AbortFile(io.BytesIO):
        def __init__(self, fs, path):
            super().__init__()
            self._fs, self._path, self._aborted = fs, path, False

        def discard(self):
            self._aborted = True

        def close(self):
            if not self._aborted and not self.closed:
                self._fs.store[self._path] = self.getvalue()
            super().close()

    class _ObjStoreFS:
        # an allowlisted atomic-PUT protocol: every other name is rename-based
        protocol = "s3"

        def __init__(self):
            self.store = {"part.parquet": b"previous-good"}

        def exists(self, p):
            return p in self.store

        def open(self, p, mode="rb"):
            assert mode == "wb"
            return _AbortFile(self, p)

    stub = _ObjStoreFS()
    orig = fsio.url_fs
    try:
        fsio.url_fs = lambda path: (stub, path.split("://", 1)[1])
        with pytest.raises(RuntimeError):
            with fsio.atomic_sink("objstub://part.parquet") as f:
                f.write(b"torn-new")
                raise RuntimeError("killed")
    finally:
        fsio.url_fs = orig
    assert stub.store["part.parquet"] == b"previous-good"


def test_rm_tree_raises_on_real_failure(tmp_path):
    """Missing path is fine; a genuinely failing delete must raise (a
    silently half-cleared checkpoint doubles rows under _DONE)."""
    fsio.rm_tree(str(tmp_path / "absent"))  # no raise
    f = tmp_path / "afile"
    f.write_bytes(b"x")
    with pytest.raises(NotADirectoryError):
        fsio.rm_tree(str(f))


def test_remove_raises_on_real_failure(tmp_path):
    fsio.remove(str(tmp_path / "absent"))  # missing-ok
    d = tmp_path / "adir"
    d.mkdir()
    with pytest.raises(IsADirectoryError):
        fsio.remove(str(d))


def test_clean_dest_tmps_legacy_fixed_name(tmp_path):
    """The pre-r5 fixed '<path>.inprogress' orphan is migrate's to
    sweep, not every write's: swept when aged, kept when fresh (a live
    pre-r5 writer may own it)."""
    from hyparquet_writer_ray.migrate import migrate

    legacy = tmp_path / "out.parquet.inprogress"
    legacy.write_bytes(b"x")
    assert migrate(str(tmp_path))["tmps_removed"] == []
    assert legacy.exists()  # fresh: kept
    past = os.path.getmtime(legacy) - 7200
    os.utime(legacy, (past, past))
    fsio.clean_dest_tmps(str(tmp_path / "out.parquet"))
    assert legacy.exists()  # not a write's
    assert migrate(str(tmp_path))["tmps_removed"] == [str(legacy)]
    assert not legacy.exists()  # aged: swept
    # URI branch
    legacy.write_bytes(b"x")
    os.utime(legacy, (past, past))
    migrate(_file_uri(tmp_path))
    assert not legacy.exists()


def test_fs_mtime_info_fallback():
    """Backends without fs.modified (sftp/ftp) fall through to
    fs.info()['mtime'] so the age-gated sweeps still run."""
    import datetime

    from hyparquet_writer_ray.state.fsio import _fs_mtime

    class _NoModified:
        def modified(self, p):
            raise NotImplementedError

        def info(self, p):
            return {"mtime": 1234.5}

    class _DatetimeInfo(_NoModified):
        def info(self, p):
            return {"mtime": datetime.datetime(
                2020, 1, 1, tzinfo=datetime.timezone.utc)}

    class _Nothing(_NoModified):
        def info(self, p):
            return {}

    assert _fs_mtime(_NoModified(), "x") == 1234.5
    assert _fs_mtime(_DatetimeInfo(), "x") == 1577836800.0
    assert _fs_mtime(_Nothing(), "x") is None


def test_write_marker_local_failure_cleans_tmp(tmp_path, monkeypatch):
    """A marker write whose commit fails must not leak
    '<marker>.inprogress-<pid>-<random>'."""
    from fsspec.implementations.local import LocalFileSystem

    m = tmp_path / "_DONE"

    def boom(self, src, dst, **kw):
        raise OSError("disk full")

    monkeypatch.setattr(LocalFileSystem, "mv", boom)
    with pytest.raises(OSError):
        fsio.write_marker(str(m))
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []


def test_write_table_unique_tmp_and_orphan_sweep(tmp_path):
    """local.write_table: unique per-attempt tmp (concurrent writers of
    one sink never share an inode), aged orphans swept, fresh tmps (a
    live concurrent writer's) kept."""
    import pyarrow.parquet as pq

    from hyparquet_writer_ray.local import write_table

    from hyparquet_writer_ray.migrate import migrate

    sink = str(tmp_path / "t.parquet")
    aged = tmp_path / "t.parquet.inprogress-98-dead"
    fixed = tmp_path / "t.parquet.inprogress"       # legacy fixed name
    fresh = tmp_path / "t.parquet.inprogress-99-beef"
    for f in (aged, fixed, fresh):
        f.write_bytes(b"x")
    past = os.path.getmtime(aged) - 7200
    os.utime(aged, (past, past))
    os.utime(fixed, (past, past))
    write_table(pa.table({"a": [1, 2, 3]}), sink)
    assert pq.read_table(sink).column("a").to_pylist() == [1, 2, 3]
    assert not aged.exists()      # aged orphan swept
    assert fresh.exists()         # fresh tmp untouched
    assert fixed.exists()         # the legacy name is migrate's
    migrate(str(tmp_path))
    assert not fixed.exists()
    fresh.unlink()
    # no tmp of our own left behind
    assert [p.name for p in tmp_path.iterdir()] == ["t.parquet"]


def test_file_uri_out_dir_sweeps_aged_tmps(ray_session, tmp_path):
    """file:// parts are written as .inprogress-* tmps plus fs.mv, so a
    killed run's orphans must be swept there too (age-gated: a live
    writer's fresh tmp survives)."""
    import time

    import ray.data

    from hyparquet_writer_ray.pipelines.write import write_parquet_dataset

    out = tmp_path / "out"
    out.mkdir()
    aged = out / "part-z.parquet.inprogress-1-deadbeef"
    fresh = out / "part-z.parquet.inprogress-2-cafebabe"
    aged.write_bytes(b"x")
    fresh.write_bytes(b"y")
    os.utime(aged, (time.time() - 7200, time.time() - 7200))
    s = write_parquet_dataset(ray.data.from_arrow(pa.table({"a": [1, 2, 3]})),
                              _file_uri(out))
    assert s["rows"] == 3
    assert not aged.exists()
    assert fresh.exists()


def test_tmp_sweeps_are_logged(tmp_path, caplog):
    """Each aged tmp the out_dir and single-file sweeps remove is logged
    as one DEBUG record naming it; a fresh tmp is neither removed nor
    logged."""
    out = tmp_path / "out"
    aged = [out / "part-a.parquet.inprogress-1-dead",
            out / "_lineage" / "parts" / "a.json.inprogress-2-dead",
            tmp_path / "one.parquet.inprogress-3-dead"]
    fresh = out / "part-b.parquet.inprogress-4-beef"
    for f in aged + [fresh]:
        f.parent.mkdir(parents=True, exist_ok=True)
        f.write_bytes(b"x")
    past = os.path.getmtime(fresh) - 7200
    for f in aged:
        os.utime(f, (past, past))
    with caplog.at_level("DEBUG", logger="hyparquet_writer_ray"):
        fsio.clean_stale_tmps(str(out))
        fsio.clean_dest_tmps(str(tmp_path / "one.parquet"))
    assert sorted(r.getMessage() for r in caplog.records
                  if r.name == "hyparquet_writer_ray") == \
        sorted(f"removed aged tmp {f}" for f in aged)
    assert fresh.exists() and not any(f.exists() for f in aged)


def test_clean_stale_tmps_sweeps_legacy_lineage_tmps(tmp_path):
    """Versions before the one tmp name wrote lineage records, blobs and
    the manifest through ``<name>.tmp-*``. ``migrate`` removes an aged
    one under ``_lineage*/`` and keeps a fresh one; a user file with
    that suffix outside ``_lineage*/`` is never touched. The writers'
    own out_dir sweep no longer looks for them."""
    import time

    from hyparquet_writer_ray.migrate import migrate

    out = tmp_path / "out"
    aged = [out / "_lineage" / "parts" / "p.json.tmp-1-dead",
            out / "_lineage" / "manifest.jsonl.tmp-2-dead",
            out / "_lineage_compact" / "blobs" / "b.tmp-3-dead"]
    fresh = out / "_lineage" / "parts" / "q.json.tmp-4-beef"
    user = [out / "x.tmp-1", out / "k=a" / "x.tmp-1"]
    for f in aged + [fresh] + user:
        f.parent.mkdir(parents=True, exist_ok=True)
        f.write_bytes(b"x")
    past = time.time() - 7200
    for f in aged + user:
        os.utime(f, (past, past))
    fsio.clean_stale_tmps(str(out))
    assert all(f.exists() for f in aged)
    assert sorted(migrate(str(out))["tmps_removed"]) == sorted(map(str, aged))
    assert [f for f in aged if f.exists()] == []
    assert fresh.exists()
    assert all(f.exists() for f in user)


def test_write_part_record_same_key_concurrently(tmp_path, monkeypatch):
    """Two tasks finishing the same content-addressed part write the
    same record concurrently: each needs its own tmp, or the loser's
    commit finds the shared tmp already renamed away."""
    import json

    from fsspec.implementations.local import LocalFileSystem

    from hyparquet_writer_ray.state.lineage import LineageLog, PartRecord

    log = LineageLog(str(tmp_path))
    recs = [PartRecord(part_id="p0", num_rows=1, raw_bytes=8, comp_bytes=4,
                       file="part-p0.parquet")]
    real_mv = LocalFileSystem.mv
    nested = []

    def racing_mv(self, src, dst, **kw):
        if not nested:  # the other task finishes first
            nested.append(src)
            log.write_part_record("p0", recs)
        real_mv(self, src, dst, **kw)

    monkeypatch.setattr(LocalFileSystem, "mv", racing_mv)
    log.write_part_record("p0", recs)
    monkeypatch.undo()
    assert nested  # the race ran through the one commit call
    parts = tmp_path / "_lineage" / "parts"
    assert sorted(p.name for p in parts.iterdir()) == ["p0.json"]
    assert json.loads((parts / "p0.json").read_text())[0]["part_id"] == "p0"


def test_identity_local_and_file_uri(tmp_path, monkeypatch):
    """A local identity is (absolute path, size, st_mtime_ns): exact in
    ns, where fsspec's info() mtime is float seconds. A file:// URI
    keeps its spelling as the path but gets the same version, and a
    relative path comes back absolute. A directory raises."""
    p = tmp_path / "x.parquet"
    p.write_bytes(b"x" * 10)
    os.utime(p, ns=(1_792_225_084_559_839_396,) * 2)
    assert fsio.identity(str(p)) == (str(p), 10, "1792225084559839396")
    assert fsio.identity(f"file://{p}") == (f"file://{p}", 10, "1792225084559839396")
    monkeypatch.chdir(tmp_path)
    assert fsio.identity("x.parquet")[0] == str(p)
    with pytest.raises(IsADirectoryError):
        fsio.identity(str(tmp_path))


def test_identity_store_versions(monkeypatch):
    """On fsspec stores the version is the first of etag, generation or
    mtime that info() reports, and "" when there is none (these test
    stores keep no mtime): then only the size tells a rewrite apart."""
    import faultfs

    fsio.write_marker("faultput://v/a", b"abc")
    fsio.write_marker("faultput://v/d/b", b"abc")
    try:
        assert fsio.identity("faultput://v/a") == ("faultput://v/a", 3, "")
        with pytest.raises(IsADirectoryError):
            fsio.identity("faultput://v/d")
        real = faultfs.PutFS.info
        extra = {"mtime": 5, "generation": 7, "ETag": '"e1"'}
        monkeypatch.setattr(faultfs.PutFS, "info",
                            lambda self, p, **kw: {**real(self, p, **kw), **extra})
        assert fsio.identity("faultput://v/a")[2] == '"e1"'
        del extra["ETag"]
        assert fsio.identity("faultput://v/a")[2] == "7"
        del extra["generation"]
        assert fsio.identity("faultput://v/a")[2] == "5"
    finally:
        faultfs.PutFS.reset()


def test_identities_list_each_directory_once(tmp_path):
    """``identities`` equals ``identity`` per path, but looks URIs up
    with one listing per directory that holds two or more of them: the
    requests do not grow with the number of inputs. A URI alone in its
    directory gets one lookup; local paths make no fsspec request."""
    import faultfs

    fs = faultfs.PutFS

    def lookups(n: int) -> tuple[dict, list]:
        paths = [f"faultput://ids{n}/in-{i}.parquet" for i in range(n)]
        for i, p in enumerate(paths):
            fsio.write_marker(p, b"x" * i)
        paths.append(f"faultput://alone{n}/in.parquet")
        fsio.write_marker(paths[-1], b"abc")
        local = tmp_path / f"l{n}.parquet"
        local.write_bytes(b"PAR1")
        paths.append(str(local))
        fs.calls.clear()
        got = fsio.identities(paths)
        calls = dict(fs.calls)
        assert got == [fsio.identity(p) for p in paths]
        return calls, got

    try:
        few, _ = lookups(3)
        many, got = lookups(40)
        assert few == many == {"find": 1, "info": 1}
        assert [g[1] for g in got[:40]] == list(range(40))
    finally:
        fs.reset()


def test_within_resolves_local_symlinks(tmp_path):
    """``within`` compares local paths with symlinks resolved (so a
    symlinked out_dir cannot hide that compaction writes in place) and
    URIs by their in-fs paths, never across backends."""
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "f.parquet").write_bytes(b"x")
    os.symlink(tmp_path / "d", tmp_path / "link")
    assert fsio.within(str(tmp_path / "d" / "f.parquet"), str(tmp_path / "link"))
    assert fsio.within(str(tmp_path / "d" / "f.parquet"), f"file://{tmp_path}/d/")
    assert not fsio.within(str(tmp_path / "d" / "f.parquet"), str(tmp_path / "d2"))
    assert fsio.within("faultput://b/out/x.parquet", "faultput://b/out")
    assert not fsio.within("faultput://b/outer/x.parquet", "faultput://b/out")
    assert not fsio.within("faultmv://b/out/x.parquet", "faultput://b/out")


@pytest.mark.parametrize("kind", ["relative", "pathlib", "file_uri", "memory", "faultmv"])
def test_arrow_fs_round_trip(tmp_path, monkeypatch, kind):
    """``pq_write_table`` -> ``parquet_num_rows`` -> ``pq_read_table``
    through the one resolver on every kind of path: a local path in any
    spelling (relative, ``pathlib.Path``, ``file://``) is pyarrow's
    native ``LocalFileSystem`` with an absolute path, any other URI its
    fsspec filesystem."""
    import pathlib

    import faultfs
    from pyarrow.fs import LocalFileSystem, PyFileSystem

    monkeypatch.chdir(tmp_path)
    faultfs.RenameFS.reset()
    path = {"relative": "sub/t.parquet",
            "pathlib": pathlib.Path("sub/t.parquet"),
            "file_uri": f"file://{tmp_path}/sub/t.parquet",
            "memory": "memory://arrow_fs_rt/t.parquet",
            "faultmv": "faultmv://arrow_fs_rt/t.parquet"}[kind]
    (tmp_path / "sub").mkdir()
    fs, p = fsio.arrow_fs(path)
    if kind in ("relative", "pathlib", "file_uri"):
        assert isinstance(fs, LocalFileSystem)
        assert p == str(tmp_path / "sub" / "t.parquet")
    else:
        assert isinstance(fs, PyFileSystem)
        assert p == "/arrow_fs_rt/t.parquet"
    t = pa.table({"x": list(range(10)), "s": [f"v{i}" for i in range(10)]})
    fsio.pq_write_table(t, path, row_group_size=4)
    assert fsio.parquet_num_rows(path) == 10
    assert fsio.pq_read_table(path).equals(t)
    if kind == "memory":
        fsio.rm_tree("memory://arrow_fs_rt")
    faultfs.RenameFS.reset()


def test_pathlike_inputs_resolve_like_str(tmp_path):
    """An ``os.PathLike`` input is the same input as its ``str``."""
    import pyarrow.parquet as pq

    p = tmp_path / "a.parquet"
    pq.write_table(pa.table({"x": [1, 2]}), p)
    assert not fsio.is_uri(p)
    assert fsio.identity(p) == fsio.identity(str(p))
    assert fsio.identities([p, str(p)]) == [fsio.identity(str(p))] * 2
    assert fsio.location(p) == fsio.location(str(p))


def test_no_builtin_open_outside_fsio():
    """Every file the package reads or writes goes through ``state/fsio``:
    no module calls the builtin ``open`` but fsio itself and the compiled
    kernel's compiler cache, which is local by nature."""
    import ast
    import pathlib

    pkg = pathlib.Path(fsio.__file__).resolve().parents[1]
    allowed = {"state/fsio.py", "core/_kernel.py"}
    calls = [
        f"{rel}:{node.lineno}"
        for path in sorted(pkg.rglob("*.py"))
        if (rel := path.relative_to(pkg).as_posix()) not in allowed
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "open"
    ]
    assert calls == []


def test_byte_array_buffers_are_read_only_through_byte_slots():
    """The chunk encoder and the compiled kernel's wrappers read a
    string/binary array's buffers only through ``arrays.byte_slots``,
    the one check of its offsets: neither module calls ``.buffers()``."""
    import ast
    import pathlib

    pkg = pathlib.Path(fsio.__file__).resolve().parents[1]
    calls = [
        f"{rel}:{node.lineno}"
        for rel in ("core/chunk.py", "core/_kernel.py")
        for node in ast.walk(ast.parse((pkg / rel).read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "buffers"
    ]
    assert calls == []


def test_a_chunk_reads_its_values_only_through_its_view():
    """In ``core/chunk.py`` only ``_prepare`` and ``_Values``, which build
    a chunk's one view of its values, check a string/binary array's
    slots, unpack a validity bitmap or compact values."""
    import ast
    import pathlib

    path = pathlib.Path(fsio.__file__).resolve().parents[1] / "core" / "chunk.py"
    readers = {"byte_slots", "byte_array_values", "validity_mask", "drop_null_fast",
               "compacted"}
    calls = [
        f"{top.name}:{node.lineno}"
        for top in ast.parse(path.read_text()).body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and top.name not in ("_prepare", "_Values")
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in readers
        and isinstance(node.value, ast.Name) and node.value.id == "A"
    ]
    assert calls == []


def test_no_pickle_in_package():
    """No module of the package imports ``pickle``: row groups and
    checkpoints travel as ``core/rowgroup.dumps`` bytes, so no state a
    writer reads back can run code when it is loaded."""
    import ast
    import pathlib

    pkg = pathlib.Path(fsio.__file__).resolve().parents[1]
    imports = [
        f"{path.relative_to(pkg).as_posix()}:{node.lineno}"
        for path in sorted(pkg.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(
            a.name.split(".")[0] in ("pickle", "_pickle") for a in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] in ("pickle", "_pickle")
    ]
    assert imports == []
