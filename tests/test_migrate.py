"""``python -m hyparquet_writer_ray migrate``: every writer refuses a
directory that still holds an older version's lineage state and writes
nothing there; after one ``migrate`` it resumes as if the directory had
been written today. Also: how ``migrate`` converts a manifest (today's
precedence and dedupe, torn lines, the dropped ``checksum``), that a
killed migrate can be rerun, that a malformed record fails with a
message, and the CLI."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from dataclasses import asdict

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from hyparquet_writer_ray.migrate import migrate
from hyparquet_writer_ray.pipelines import write as W
from hyparquet_writer_ray.state import fsio
from hyparquet_writer_ray.state.lineage import LineageLog, PartRecord, UnmigratedError
from legacy import snapshot, to_legacy_manifest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _inputs(d, n: int = 4) -> list[str]:
    os.makedirs(d, exist_ok=True)
    paths = []
    for i in range(n):
        p = os.path.join(str(d), f"in-{i}.parquet")
        pq.write_table(pa.table({
            "id": pa.array(range(i * 1000, i * 1000 + 300), pa.int64()),
            "k": [f"k{j % 2}" for j in range(300)]}), p)
        paths.append(p)
    return paths


def _writer(kind: str, paths: list[str], out: str):
    """(lineage namespace, run) for one writer over ``paths``; ``run(i)``
    writes the i-th run into ``out`` and returns its stats."""
    import ray.data

    if kind == "dataset_fused":
        return "_lineage", lambda i: W.write_parquet_dataset(
            W.read_parquet_fused(paths), out)
    if kind == "dataset_content":
        return "_lineage", lambda i: W.write_parquet_dataset(
            W.read_parquet_fused(paths).map_batches(lambda b: b,
                                                    batch_format="pyarrow"), out)
    if kind == "partitioned":
        return "_lineage", lambda i: W.write_parquet_partitioned(
            ray.data.read_parquet(paths), out, "k")
    if kind == "files":
        return "_lineage", lambda i: W.write_parquet_files(paths, out)
    if kind == "compact":
        size = sum(os.path.getsize(p) for p in paths[:2])
        return W.COMPACT_LINEAGE, lambda i: W.compact_parquet_dataset(
            paths, out, target_part_bytes=size)
    assert kind == "single"
    return "_lineage", lambda i: W.write_parquet_single_file(
        W.read_parquet_fused(paths), os.path.join(os.path.dirname(out), f"{i}.parquet"),
        max_group_rows=100, checkpoint_dir=out)


@pytest.mark.parametrize("kind", ["dataset_fused", "dataset_content", "partitioned",
                                  "files", "compact", "single"])
def test_writer_refuses_unmigrated_dir_then_resumes(ray_session, tmp_path, kind):
    """With an older version's manifest (its records carrying
    ``checksum``, no ``parts/``), every writer raises the error naming
    ``migrate`` and writes nothing. After ``migrate`` it resumes with
    every part skipped and the fresh run's totals; the single-file
    output is byte-identical."""
    paths = _inputs(tmp_path / "in")
    out = str(tmp_path / "out")
    name, run = _writer(kind, paths, out)
    fresh = run(0)
    to_legacy_manifest(out, name)
    before = snapshot(tmp_path)
    with pytest.raises(UnmigratedError,
                       match=re.escape(f"python -m hyparquet_writer_ray migrate {out}`")):
        run(1)
    assert snapshot(tmp_path) == before
    summary = migrate(out)
    assert summary["manifests_removed"] == [os.path.join(out, name, "manifest.jsonl")]
    parts = os.path.join(out, name, "parts")
    assert os.path.isdir(parts) == (kind != "single")  # a checkpoint is its blob
    assert summary["records_written"] == (len(os.listdir(parts)) if kind != "single" else 0)
    migrated = snapshot(out)
    resumed = run(1)
    if kind == "single":
        assert snapshot(out) == migrated  # no part encoded, no record written
        assert (tmp_path / "0.parquet").read_bytes() == (tmp_path / "1.parquet").read_bytes()
        assert {**resumed, "path": fresh["path"]} == fresh
        return
    assert resumed["skipped_parts"] == fresh["parts"] > 0
    assert resumed == {**fresh, "skipped_parts": fresh["parts"]}


class _CreatesFile:
    """Unpickling this creates the file at ``path``."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return open, (self.path, "w")


def test_pickled_checkpoint_is_refused_then_dropped(ray_session, tmp_path, monkeypatch):
    """A checkpoint blob of an older version (a pickle, here one whose
    unpickling would create a file): the single-file resume raises the
    error naming ``migrate``, never unpickles it and leaves no output,
    and the checkpoint it wrote before the refusal loads. ``migrate``
    deletes that blob; the rerun re-encodes the group and writes a
    fresh run's bytes."""
    import pickle

    from hyparquet_writer_ray.core.rowgroup import loads

    paths = _inputs(tmp_path / "in")
    ckpt = str(tmp_path / "ckpt")
    _, run = _writer("single", paths, ckpt)
    order = []  # part ids in the order the driver checkpoints them
    real = LineageLog.write_checkpoint

    def recording(self, part_id, group):
        order.append(part_id)
        real(self, part_id, group)

    monkeypatch.setattr(LineageLog, "write_checkpoint", recording)
    run(0)
    monkeypatch.setattr(LineageLog, "write_checkpoint", real)
    log = LineageLog(ckpt)
    first, evil = (os.path.join(log.blob_dir, p) for p in (order[0], order[-1]))
    os.remove(first)  # re-encoded, and checkpointed, before the old blob
    marker = tmp_path / "unpickled"
    with open(evil, "wb") as f:
        f.write(pickle.dumps(_CreatesFile(str(marker))))

    with pytest.raises(UnmigratedError, match=re.escape(
            f"python -m hyparquet_writer_ray migrate {ckpt}`")):
        run(1)
    assert not marker.exists()
    assert not any(p.name.startswith("1.parquet") for p in tmp_path.iterdir())
    assert set(log.completed_parts()) == set(order)
    for p in order[:-1]:
        loads(log.load_blob(p))

    summary = migrate(ckpt)
    assert summary["blobs_removed"] == [evil]
    assert not os.path.exists(evil)
    assert migrate(ckpt)["blobs_removed"] == []
    assert not marker.exists()
    run(2)
    assert (tmp_path / "2.parquet").read_bytes() == (tmp_path / "0.parquet").read_bytes()
    assert set(log.completed_parts()) == set(order)


def test_corrupt_checkpoint_is_kept_and_named(ray_session, tmp_path):
    """A checkpoint blob that ends in the row-group trailer but does not
    load (here its first bytes are cut off) is corrupt, not an older
    version's: ``migrate`` keeps it, and the resume's error names it as
    corrupt and says to delete it. Once it is deleted, the rerun
    re-encodes its group and writes a fresh run's bytes."""
    paths = _inputs(tmp_path / "in")
    ckpt = str(tmp_path / "ckpt")
    _, run = _writer("single", paths, ckpt)
    run(0)
    log = LineageLog(ckpt)
    blob = os.path.join(log.blob_dir, sorted(log.completed_parts())[0])
    with open(blob, "rb") as f:
        data = f.read()
    with open(blob, "wb") as f:
        f.write(data[10:])

    assert migrate(ckpt)["blobs_removed"] == []
    with pytest.raises(UnmigratedError, match=re.escape(
            f"checkpoint blob {blob} is corrupt")) as err:
        run(1)
    assert "delete it, then rerun" in str(err.value)
    assert "migrate" not in str(err.value)
    os.remove(blob)
    run(2)
    assert (tmp_path / "2.parquet").read_bytes() == (tmp_path / "0.parquet").read_bytes()


def test_noop_migrate_reads_only_blob_tails(tmp_path, monkeypatch):
    """``migrate`` decides each checkpoint blob by its last bytes and
    never calls ``loads``: over current blobs it removes nothing. A blob
    torn short of its trailer goes; one that carries the trailer stays,
    corrupt or not (the resume names it)."""
    from hyparquet_writer_ray import WriteOptions
    from hyparquet_writer_ray.core import rowgroup
    from hyparquet_writer_ray.core.schema import normalize_table, schema_from_arrow
    from hyparquet_writer_ray.core.types import leaf_columns

    table = normalize_table(pa.table({"id": pa.array(range(600), pa.int64()),
                                      "k": [f"k{i % 3}" for i in range(600)]}))
    schema_ir = schema_from_arrow(table.schema)
    log = LineageLog(str(tmp_path))
    blobs = [rowgroup.dumps(*rowgroup.encode_row_group(
        table.slice(i, 200), schema_ir, leaf_columns(schema_ir), WriteOptions()))
        for i in range(0, 600, 200)]
    for i, blob in enumerate(blobs):
        log.write_checkpoint(f"g{i}", blob)

    def refuse(data):
        raise AssertionError("migrate called loads")

    monkeypatch.setattr(rowgroup, "loads", refuse)
    assert migrate(str(tmp_path))["blobs_removed"] == []
    assert log.completed_parts() == {"g0", "g1", "g2"}

    log.write_checkpoint("torn", blobs[0][:-3])
    log.write_checkpoint("corrupt", blobs[0][10:])
    torn = os.path.join(log.blob_dir, "torn")
    assert migrate(str(tmp_path))["blobs_removed"] == [torn]
    assert log.completed_parts() == {"g0", "g1", "g2", "corrupt"}


def _rec(part_id: str, file=None, rows: int = 1) -> PartRecord:
    return PartRecord(part_id=part_id, num_rows=rows, raw_bytes=2, comp_bytes=3,
                      file=file)


def _line(rec: PartRecord, **extra) -> str:
    return json.dumps({**asdict(rec), **extra}) + "\n"


def _parts(base: str, name: str = "_lineage") -> dict[str, bytes]:
    d = os.path.join(base, name, "parts")
    return {f: open(os.path.join(d, f), "rb").read() for f in sorted(os.listdir(d))}


def _written(*recs: PartRecord) -> bytes:
    """The bytes a writer puts for a part's records."""
    return json.dumps([asdict(r) for r in recs]).encode()


def test_migrate_writes_manifest_lines_as_records(tmp_path):
    """Each distinct manifest line of a part file becomes a record keyed
    as the writers key it (content, file-named and hive parts by file);
    a file with a ``parts/`` list keeps it; a checkpoint line (no file)
    becomes no record, and a checkpoint record an earlier version put in
    ``parts/`` is left as it is; a torn line and ``checksum`` are
    dropped, also from a ``parts/`` record. Output: the bytes a writer
    puts. A second run has nothing to do."""
    base = str(tmp_path)
    log = LineageLog(base)
    kept = _rec("new", "part-a.parquet")
    log.write_part_record("a", [kept])
    old_ckpt = _rec("p9")
    log.write_part_record("p8", [_rec("p8")])
    fsio.write_marker(os.path.join(log.parts_dir, "c.json"),
                      json.dumps([dict(asdict(_rec("c", "part-c.parquet")),
                                       checksum="ff")]))
    b0, b1 = _rec("b0", "part-b.parquet"), _rec("b1", "part-b.parquet")
    hive = _rec("h", "k=x/part-0123456789abcdef.parquet")
    with open(log.manifest_path, "w") as f:
        f.write(_line(_rec("old", "part-a.parquet"), checksum="01"))
        f.write(_line(b0, checksum="01") + _line(b1) + _line(b0, checksum="02"))
        f.write("\n" + _line(hive) + _line(old_ckpt) + _line(_rec("p8", rows=7)))
        f.write('{"part_id": "torn", "num_ro')
    summary = migrate(base)
    assert summary == {
        "dir": base, "records_written": 2, "records_rewritten": 1,
        "blobs_removed": [], "legacy_parts_removed": [], "tmps_removed": [],
        "manifests_removed": [log.manifest_path]}
    assert _parts(base) == {
        "0123456789abcdef.json": _written(hive),
        "a.json": _written(kept),
        "b.json": _written(b0, b1),
        "c.json": _written(_rec("c", "part-c.parquet")),
        "p8.json": _written(_rec("p8")),
    }
    again = migrate(base)
    assert again == {**summary, "records_written": 0, "records_rewritten": 0,
                     "manifests_removed": []}


def test_killed_migrate_reruns(tmp_path, monkeypatch):
    """The manifest goes last: a migrate killed before deleting it
    leaves a dir the writers still refuse, and a rerun ends where an
    uninterrupted migrate does."""
    base = str(tmp_path / "a")
    log = LineageLog(base)
    with open(os.path.join(base, "part-x.parquet"), "wb") as f:
        f.write(b"PAR1")
    with open(log.manifest_path, "w") as f:
        f.write(_line(_rec("p1"), checksum="01") + _line(_rec("x", "part-x.parquet")))
    real = fsio.remove

    def killed(path):
        raise RuntimeError("killed")

    monkeypatch.setattr(fsio, "remove", killed)
    with pytest.raises(RuntimeError, match="killed"):
        migrate(base)
    monkeypatch.setattr(fsio, "remove", real)
    for resume in (LineageLog(base).completed_records, LineageLog(base).completed_parts):
        with pytest.raises(UnmigratedError):
            resume()
    assert migrate(base)["manifests_removed"] == [log.manifest_path]
    assert _parts(base) == {"x.json": _written(_rec("x", "part-x.parquet"))}
    assert set(LineageLog(base).completed_records()) == {"part-x.parquet"}


def test_clear_forgets_an_unmigrated_namespace(tmp_path):
    """A fresh export's ``clear`` removes the whole namespace, an older
    version's manifest included, so it needs no ``migrate``."""
    base = str(tmp_path)
    log = LineageLog(base)
    with open(log.manifest_path, "w") as f:
        f.write(_line(_rec("p1")))
    log.clear()
    assert LineageLog(base).completed_parts() == set()
    log.write_checkpoint("p2", b"blob")
    assert LineageLog(base).completed_parts() == {"p2"}


@pytest.mark.parametrize("record", [
    {"part_id": "x", "num_rows": 1, "raw_bytes": 1, "comp_bytes": 1, "bogus": 1},
    {"part_id": "x", "num_rows": 1},
    {"part_id": "x", "num_rows": 1, "raw_bytes": 1, "comp_bytes": 1, "checksum": "ab"},
    "x",
])
def test_malformed_record_fails_with_a_message(tmp_path, record):
    """A ``parts/`` record that is JSON but not a record (an unknown key,
    a missing field, the ``checksum`` of a dir whose manifest was
    deleted by hand, not an object) raises the error naming ``migrate``
    and the record's path from the part-file resume; a checkpoint
    resume reads no record."""
    base = str(tmp_path)
    path = os.path.join(base, "_lineage", "parts", "x.json")
    fsio.makedirs(os.path.dirname(path))
    fsio.write_marker(path, json.dumps([record]))
    with pytest.raises(UnmigratedError) as e:
        LineageLog(base).completed_records()
    assert path in str(e.value)
    assert f"python -m hyparquet_writer_ray migrate {base}`" in str(e.value)
    assert LineageLog(base).completed_parts() == set()
    if "checksum" in record:
        migrate(base)  # the leftover checksum is rewritten away
        assert LineageLog(base).completed_records() == {}
        assert "checksum" not in fsio.read_marker(path)


def _migrate_cli(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "hyparquet_writer_ray", "migrate", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=check)


def _summary(res: subprocess.CompletedProcess) -> dict:
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_cli_migrates_then_has_nothing_to_do(ray_session, tmp_path):
    """``python -m hyparquet_writer_ray migrate <dir>`` on a
    manifest-only ``write_parquet_dataset`` out_dir, a
    ``write_parquet_files`` out_dir with a legacy-named part (given its
    ``--input``) and a single-file ``checkpoint_dir``: each exits 0 and
    prints its summary, and a second run finds nothing to do. A missing
    dir exits non-zero."""
    import ray.data

    paths = _inputs(tmp_path / "in")
    ds_out, files_out, ckpt = (str(tmp_path / d) for d in ("ds", "files", "ckpt"))
    W.write_parquet_dataset(ray.data.read_parquet(paths), ds_out)
    W.write_parquet_files(paths, files_out)
    W.write_parquet_single_file(ray.data.read_parquet(paths), str(tmp_path / "s.parquet"),
                                checkpoint_dir=ckpt)
    for d in (ds_out, files_out, ckpt):
        to_legacy_manifest(d)
    pq.write_table(pa.table({"id": [1]}), os.path.join(files_out, "part-in-0.parquet"))

    nothing = {"records_written": 0, "records_rewritten": 0, "blobs_removed": [],
               "legacy_parts_removed": [], "tmps_removed": [], "manifests_removed": []}
    for d, extra, legacy in ((ds_out, [], []), (ckpt, [], []),
                             (files_out, ["--input", str(tmp_path / "in")],
                              ["part-in-0.parquet"])):
        first = _summary(_migrate_cli(d, *extra))
        assert first["manifests_removed"] == [os.path.join(d, "_lineage", "manifest.jsonl")]
        assert (first["records_written"] > 0) == (d != ckpt)  # a checkpoint is its blob
        assert first["legacy_parts_removed"] == legacy
        assert _summary(_migrate_cli(d, *extra)) == {"dir": d, **nothing}
    assert W.write_parquet_files(paths, files_out)["skipped_parts"] == 4

    res = _migrate_cli(str(tmp_path / "missing"), check=False)
    assert res.returncode != 0
    assert "no such directory" in res.stderr
