"""Regression tests for the round-4 windows/semistructured/shuffle/
packing/multimodal review findings."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture
def ray_data(ray_session):
    import ray.data

    return ray.data


def test_window_ops_normalize_timestamp_units(ray_data):
    from hyparquet_writer_ray.functions.windows import (
        sessionize, tumbling_window_agg,
    )

    base = 1_700_000_000  # epoch seconds
    secs = [base, base + 30, base + 2000]
    t_us = pa.table({"ts": pa.array([s * 1_000_000 for s in secs],
                                    pa.timestamp("us")),
                     "u": ["a", "a", "a"]})
    t_ms = pa.table({"ts": pa.array([s * 1_000 for s in secs],
                                    pa.timestamp("ms")),
                     "u": ["a", "a", "a"]})

    def win(t):
        out = tumbling_window_agg(ray_data.from_arrow(t), ts_col="ts",
                                  width_seconds=600)
        return [(r["w_start"], r["n"]) for r in out.take_all()]

    assert win(t_us) == win(t_ms)  # ms input must not be 1000x off

    def sess(t):
        out = sessionize(ray_data.from_arrow(t), key_col="u", ts_col="ts",
                         gap_seconds=100)
        return [(r["u"], r["session_id"], r["n_events"], r["s_start"])
                for r in out.take_all()]

    assert sess(t_us) == sess(t_ms)
    assert len(sess(t_us)) == 2  # 30s gap joins, 1970s gap splits


def test_sessionize_null_keys_form_one_group(ray_data):
    from hyparquet_writer_ray.functions.windows import sessionize

    base = 1_700_000_000_000_000
    t = pa.table({
        "u": pa.array(["a", None, None, "a"], pa.string()),
        "ts": pa.array([base, base, base + 10_000_000, base + 5_000_000],
                       pa.timestamp("us")),
    })
    out = sessionize(ray_data.from_arrow(t), key_col="u", ts_col="ts",
                     gap_seconds=60, sort=False).take_all()
    by_key = {}
    for r in out:
        by_key.setdefault(r["u"], []).append(r["n_events"])
    assert sorted(by_key["a"]) == [2]
    assert sorted(by_key[None]) == [2]  # one null-key group, not a crash


def test_json_extract_duplicate_keys_take_last():
    from hyparquet_writer_ray.functions.semistructured import (
        json_extract_batch,
    )

    t = pa.table({"props": ['{"a":1,"a":2}', '{"a":7}']})
    got = json_extract_batch(t, "a").column("a").to_pylist()
    assert got == [2, 7]  # json.loads/DuckDB keep the LAST occurrence


def test_json_extract_rejects_invalid_flat_lookalikes():
    from hyparquet_writer_ray.functions.semistructured import (
        json_extract_batch,
    )

    bad = ['{"a":1,}', '{"a":1"b":2}', '{"a":01}']
    t = pa.table({"props": bad + ['{"a":3}']})
    got = json_extract_batch(t, "a").column("a").to_pylist()
    assert got == [None, None, None, 3]  # invalid JSON -> null, like SQL


def test_shuffle_and_packing_reject_null_ids(ray_data):
    from hyparquet_writer_ray.functions.packing import pack_sequences
    from hyparquet_writer_ray.functions.shuffle import (
        deterministic_shuffle, weighted_sample,
    )

    t = pa.table({"doc_id": pa.array([1, None], pa.int64()),
                  "w": pa.array([1.0, 2.0]),
                  "n_tokens": pa.array([3, 4], pa.int64())})
    ds = ray_data.from_arrow(t)
    with pytest.raises(Exception, match="null ids"):
        deterministic_shuffle(ds, id_col="doc_id").materialize()
    with pytest.raises(Exception, match="null ids"):
        weighted_sample(ds, id_col="doc_id", weight_col="w", k=1)
    with pytest.raises(Exception, match="null doc ids"):
        pack_sequences(ds, id_col="doc_id", tokens_col="n_tokens",
                       budget=10).materialize()


def test_weighted_sample_empty_dataset(ray_data):
    from hyparquet_writer_ray.functions.shuffle import weighted_sample

    ds = ray_data.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "w": pa.array([], pa.float64())}))
    got = weighted_sample(ds, id_col="doc_id", weight_col="w", k=3)
    assert got.num_rows == 0


def test_image_decode_tolerates_corrupt_payloads(ray_data):
    from hyparquet_writer_ray.functions.multimodal import ImageDecodeStage

    stage = ImageDecodeStage(out_size=4, backend="stdlib")
    batch = pa.table({
        "id": pa.array([1, 2], pa.int64()),
        "payload": pa.array([b"not an image at all", None], pa.binary()),
    })
    out = stage(batch)
    assert out.column("decoded").to_pylist() == [False, False]


def test_audio_features_tolerate_corrupt_payloads():
    from hyparquet_writer_ray.functions.audio import AudioFeatureStage

    stage = AudioFeatureStage(backend="stdlib")
    batch = pa.table({
        "id": pa.array([1], pa.int64()),
        "payload": pa.array([b"RIFFgarbage"], pa.binary()),
    })
    out = stage(batch)
    assert out.column("decoded").to_pylist() == [False]


def test_row_group_size_zero_rejected():
    from hyparquet_writer_ray import WriteOptions, write_table_to_bytes

    t = pa.table({"x": [1, 2, 3]})
    with pytest.raises(ValueError, match="row_group_size"):
        write_table_to_bytes(t, WriteOptions(row_group_size=0))


def test_window_ops_accept_nanosecond_timestamps(ray_data):
    from hyparquet_writer_ray.functions.windows import tumbling_window_agg

    base_ns = 1_700_000_000 * 1_000_000_000
    t = pa.table({"ts": pa.array([base_ns + 1500, base_ns + 2500],
                                 pa.timestamp("ns"))})  # sub-us residue
    out = tumbling_window_agg(ray_data.from_arrow(t), ts_col="ts",
                              width_seconds=600).take_all()
    assert out == [{"w_start": 1_699_999_800, "n": 2}]


def test_lineage_tolerates_torn_manifest_line(tmp_path):
    import json
    from dataclasses import asdict

    from hyparquet_writer_ray.state.lineage import LineageLog, PartRecord

    from hyparquet_writer_ray.migrate import migrate
    from hyparquet_writer_ray.state.lineage import UnmigratedError

    # a manifest as older versions wrote it: one line per record, the
    # last one torn by a SIGKILL of the driver. Resume refuses it;
    # migrate converts it and skips the torn line.
    log = LineageLog(str(tmp_path))
    rec = PartRecord(part_id="p1", num_rows=5, raw_bytes=10, comp_bytes=8,
                     file="part-p1.parquet")
    (tmp_path / rec.file).write_bytes(b"PAR1")
    with open(log.manifest_path, "w") as f:
        f.write(json.dumps(asdict(rec)) + "\n")
        f.write('{"part_id": "p2", "num_ro')
    with pytest.raises(UnmigratedError):
        LineageLog(str(tmp_path)).completed_records()
    assert migrate(str(tmp_path))["records_written"] == 1
    done = LineageLog(str(tmp_path)).completed_records()
    assert list(done) == ["part-p1.parquet"] and done[rec.file].records == [rec]
    LineageLog(str(tmp_path)).clear()  # a fresh export forgets them too
    assert LineageLog(str(tmp_path)).completed_records() == {}


def test_lineage_clear_keeps_blob_store_usable(tmp_path):
    from hyparquet_writer_ray.state.lineage import LineageLog

    log = LineageLog(str(tmp_path))
    log.write_checkpoint("p1", b"blob")
    log.clear()
    log.write_checkpoint("p1", b"blob2")  # must not raise FileNotFoundError
    assert LineageLog(str(tmp_path)).load_blob("p1") == b"blob2"
