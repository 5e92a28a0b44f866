"""Regression tests for the round-4 pipeline review findings: input
basename collisions, compaction GC isolation, schema_overrides in the
distributed writers, curate fresh-run cleanup, and empty-block guards."""
from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture
def ray_data(ray_session):
    import ray.data

    return ray.data


def test_write_parquet_files_same_basename_different_dirs(ray_session, tmp_path):
    from hyparquet_writer_ray.pipelines.write import write_parquet_files

    da, db = tmp_path / "a", tmp_path / "b"
    da.mkdir(); db.mkdir()
    pq.write_table(pa.table({"x": [1, 2, 3]}), str(da / "x.parquet"))
    pq.write_table(pa.table({"x": [10, 20]}), str(db / "x.parquet"))
    out = str(tmp_path / "out")
    s = write_parquet_files([str(da / "x.parquet"), str(db / "x.parquet")], out)
    assert s["parts"] == 2 and s["rows"] == 5
    parts = sorted(glob.glob(os.path.join(out, "part-*.parquet")))
    assert len(parts) == 2  # no silent collision on one output file
    got = sorted(v for p in parts for v in pq.read_table(p).column("x").to_pylist())
    assert got == [1, 2, 3, 10, 20]


def test_clean_stale_tmps_spares_live_writers(tmp_path):
    """ADVICE r4: the tmp GC must not delete a CONCURRENT writer's live
    .inprogress files — only age-stale leftovers from crashed runs."""
    import time

    from hyparquet_writer_ray.state.fsio import clean_stale_tmps as _clean_stale_tmps

    out = tmp_path / "out"
    out.mkdir()
    stale = out / "part-a.parquet.inprogress-1-deadbeef"
    live = out / "part-b.parquet.inprogress-2-cafebabe"
    stale.write_bytes(b"x")
    live.write_bytes(b"y")
    os.utime(stale, (time.time() - 7200, time.time() - 7200))
    _clean_stale_tmps(str(out))
    assert not stale.exists()  # crashed-run leftover removed
    assert live.exists()       # concurrent writer's live tmp kept


def test_write_parquet_files_removes_legacy_named_parts(ray_session, tmp_path):
    """ADVICE r4: resuming into an out_dir written before the path-hash
    suffix must not leave old part-<base>.parquet files alongside the
    new hashed names (part-* consumers would read duplicate rows):
    ``migrate --input`` removes them first."""
    from hyparquet_writer_ray.migrate import migrate
    from hyparquet_writer_ray.pipelines.write import write_parquet_files

    src = tmp_path / "in"
    src.mkdir()
    inp = str(src / "x.parquet")
    pq.write_table(pa.table({"x": [1, 2, 3]}), inp)
    out = tmp_path / "out"
    out.mkdir()
    # simulate a pre-hash-naming run's output plus an unrelated part
    pq.write_table(pa.table({"x": [1, 2, 3]}), str(out / "part-x.parquet"))
    pq.write_table(pa.table({"z": [9]}), str(out / "part-other.parquet"))
    assert migrate(str(out), [inp])["legacy_parts_removed"] == ["part-x.parquet"]
    s = write_parquet_files([inp], str(out))
    assert s["rows"] == 3
    parts = sorted(os.path.basename(p)
                   for p in glob.glob(os.path.join(str(out), "part-*.parquet")))
    assert "part-x.parquet" not in parts        # legacy name removed
    assert "part-other.parquet" in parts        # unrelated part untouched
    ours = [p for p in parts if p.startswith("part-x-")]
    assert len(ours) == 1
    got = pq.read_table(os.path.join(str(out), ours[0]))
    assert got.column("x").to_pylist() == [1, 2, 3]


def test_compaction_gc_leaves_other_writers_parts(ray_data, tmp_path):
    from hyparquet_writer_ray.pipelines.write import (
        compact_parquet_dataset, write_parquet_dataset,
    )

    out = str(tmp_path / "out")
    ds = ray_data.from_arrow(pa.table({"x": list(range(100))}))
    write_parquet_dataset(ds, out)
    dataset_parts = set(glob.glob(os.path.join(out, "part-*.parquet")))
    assert dataset_parts

    ins = tmp_path / "ins"
    ins.mkdir()
    inputs = []
    for i in range(3):
        p = str(ins / f"s{i}.parquet")
        pq.write_table(pa.table({"y": [i] * 10}), p)
        inputs.append(p)
    compact_parquet_dataset(inputs, out)
    # rerun with a CHANGED input set -> compaction GC runs; the earlier
    # write_parquet_dataset parts must survive it
    compact_parquet_dataset(inputs[:2], out)
    assert dataset_parts <= set(glob.glob(os.path.join(out, "part-*.parquet")))


def test_distributed_writer_honors_schema_overrides(ray_data, tmp_path):
    from hyparquet_writer_ray import WriteOptions
    from hyparquet_writer_ray.core.types import (
        ConvertedType, LogicalType, ParquetType, SchemaElement,
    )
    from hyparquet_writer_ray.pipelines.write import write_parquet_dataset

    ds = ray_data.from_arrow(pa.table({"cfg": ['{"a":1}', "{}", "[]"]}))
    opts = WriteOptions(schema_overrides={
        "cfg": SchemaElement("cfg", type=ParquetType.BYTE_ARRAY,
                             converted_type=ConvertedType.JSON,
                             logical_type=LogicalType("JSON")),
    })
    out = str(tmp_path / "out")
    write_parquet_dataset(ds, out, opts)
    part = glob.glob(os.path.join(out, "part-*.parquet"))[0]
    assert str(pq.ParquetFile(part).schema.column(0).logical_type) == "JSON"


def test_curate_documents_fresh_run_clears_stale_parts(ray_data, tmp_path):
    from hyparquet_writer_ray.pipelines.curate import curate_documents

    docs = pa.table({
        "doc_id": pa.array(list(range(8)), pa.int64()),
        "text": [f"word {'x ' * (i + 1)}tail{i}" for i in range(8)],
        "lang": ["en"] * 8,
    })
    out = str(tmp_path / "out")
    first = curate_documents(ray_data.from_arrow(docs), out, min_tokens=2)
    n_first = first.count()
    assert n_first == 8
    # stricter rerun into the SAME dir: old parts must not pollute it
    second = curate_documents(ray_data.from_arrow(docs), out, min_tokens=6)
    n_second = second.count()
    assert 0 < n_second < n_first
    assert ray_data.read_parquet(out).count() == n_second


def test_lang_stats_tolerates_empty_blocks(ray_data):
    from hyparquet_writer_ray.pipelines.curate import lang_stats

    t = pa.table({
        "lang": ["en", "de", "en"],
        "n_tokens": pa.array([5, 7, 9], pa.int64()),
    })
    empty = t.slice(0, 0)
    ds = ray_data.from_arrow([t, empty])
    got = lang_stats(ds).to_pandas()
    assert got.set_index("lang")["n_tokens"].to_dict() == {"de": 7, "en": 14}
    assert got.set_index("lang")["n_docs"].to_dict() == {"de": 1, "en": 2}


def test_mixture_empty_corpus_id_type_matches_pipeline_contract(ray_data, tmp_path):
    # the pipeline-wide contract: lm_score emits int64 doc ids, so the
    # empty-corpus early return must also be int64 (consistent schema
    # whether or not any document scored)
    from hyparquet_writer_ray.pipelines.mixture import export_training_mixture

    corpus = pa.table({
        "doc_id": pa.array([7, 8], pa.int32()),
        "text": ["x", "y"],  # single tokens: nothing has >= 2 tokens
    })
    survivors, packs, stats = export_training_mixture(
        ray_data.from_arrow(corpus), str(tmp_path / "mix"))
    assert stats["rows"] == 0
    assert survivors.schema().base_schema.field("doc_id").type == pa.int64()


def test_write_parquet_files_legacy_sweep_spares_current_parts(ray_session, tmp_path):
    """One input's legacy name can equal another input's hashed name
    (stem ``y-<hash of y's path>``). ``migrate --input`` must not delete
    that current part, or it re-encodes on the resume."""
    import hashlib

    from hyparquet_writer_ray.migrate import migrate
    from hyparquet_writer_ray.pipelines.write import write_parquet_files

    src = tmp_path / "in"
    src.mkdir()
    y = str(src / "y.parquet")
    digest = hashlib.sha1(os.path.abspath(y).encode()).hexdigest()[:8]
    x = str(src / f"y-{digest}.parquet")
    pq.write_table(pa.table({"v": [1, 2]}), y)
    pq.write_table(pa.table({"v": [3]}), x)
    out = str(tmp_path / "out")
    first = write_parquet_files([y, x], out)
    assert first["parts"] == 2 and first["rows"] == 3
    assert migrate(out, [y, x])["legacy_parts_removed"] == []
    again = write_parquet_files([y, x], out)
    assert again["skipped_parts"] == 2 and again["rows"] == 3
