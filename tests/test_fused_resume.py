"""Part naming and resume by input identity.

``write_parquet_dataset(read_parquet_fused(...))`` writes one
``part-<stem>-<hash>.parquet`` per input file through the
file-granular path of ``write_parquet_files`` and resumes on each
input's ``(path, size, version)``; every other Dataset keeps content
named parts. Also: a regenerated input re-encodes, an out_dir written
with content names keeps them, a part task streams its input a block
at a time with the bytes of a whole-table read, URI inputs on both
fault-injecting backend classes (tests/faultfs.py) kill and resume
and are named from one listing, a resume hands Ray only the parts it
writes and logs the ones it skips, ``concurrency`` caps the part tasks in flight, a failed part
task fails the call and cancels the rest, a duplicate input is
rejected, and the CLI expands URI inputs and subdirectories."""
from __future__ import annotations

import glob
import hashlib
import json
import os
import re
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import faultfs
from fakeray import FakeTasks
from hyparquet_writer_ray.pipelines import write as W
from hyparquet_writer_ray.state import fsio
from hyparquet_writer_ray.state.lineage import LineageLog

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONTENT = re.compile(r"part-[0-9a-f]{16}\.parquet")
FILE_NAMED = re.compile(r"part-(.+)-[0-9a-f]{8}\.parquet")


def _table(i: int, n: int = 300) -> pa.Table:
    return pa.table({"id": pa.array(range(i * 1000, i * 1000 + n), pa.int64()),
                     "s": [f"v{i}-{j % 11}" for j in range(n)]})


def _inputs(d, n: int = 4) -> list[str]:
    os.makedirs(d, exist_ok=True)
    paths = []
    for i in range(n):
        p = os.path.join(str(d), f"in-{i}.parquet")
        pq.write_table(_table(i), p)
        paths.append(p)
    return paths


def _parts(out) -> list[str]:
    return sorted(os.path.basename(p) for p in glob.glob(os.path.join(str(out), "part-*.parquet")))


def _rows(out) -> list[tuple]:
    t = pa.concat_tables(pq.read_table(os.path.join(str(out), p)) for p in _parts(out))
    return sorted(zip(t.column("id").to_pylist(), t.column("s").to_pylist()))


def _expected(paths) -> list[tuple]:
    t = pa.concat_tables(pq.read_table(p) for p in paths)
    return sorted(zip(t.column("id").to_pylist(), t.column("s").to_pylist()))


def _untagged(ds):
    """The same read as ``ds`` without the record that it is a plain read:
    what ``read_parquet_fused`` returned before it kept one."""
    W._FUSED_READS.pop(ds)
    return ds


def test_fused_read_writes_one_file_named_part_per_input(ray_session, tmp_path):
    paths = _inputs(tmp_path / "in")
    out = tmp_path / "out"
    s = W.write_parquet_dataset(W.read_parquet_fused(str(tmp_path / "in")), str(out))
    names = _parts(out)
    assert [FILE_NAMED.fullmatch(n).group(1) for n in names] == \
        [f"in-{i}" for i in range(4)]
    assert (s["parts"], s["rows"], s["skipped_parts"]) == (4, 1200, 0)
    assert _rows(out) == _expected(paths)
    # the same parts, byte for byte, as write_parquet_files
    files = tmp_path / "files"
    W.write_parquet_files(paths, str(files))
    assert names == _parts(files)
    for n in names:
        assert (out / n).read_bytes() == (files / n).read_bytes()
    # record ids hash the input identity: no decoded byte was hashed
    ids = {json.dumps(fsio.identity(p)) for p in paths}
    recs = LineageLog(str(out)).completed_records()
    assert {r.part_id for part in recs.values() for r in part.records} == \
        {hashlib.sha1(i.encode()).hexdigest()[:16] for i in ids}


def test_resume_skips_finished_inputs_without_reading_them(ray_session, tmp_path):
    """A fused resume rewrites only the missing part and returns the
    fresh totals. A finished input is skipped on its identity alone:
    garbage of the same size under the same mtime is never read (the
    same-size, same-mtime hole that ``fsio.identity`` documents)."""
    paths = _inputs(tmp_path / "in")
    out = tmp_path / "out"
    fresh = W.write_parquet_dataset(W.read_parquet_fused(paths), str(out))
    os.remove(out / _parts(out)[2])
    resumed = W.write_parquet_dataset(W.read_parquet_fused(paths), str(out))
    assert (resumed["parts"], resumed["skipped_parts"]) == (4, 3)
    for key in fresh.keys() - {"skipped_parts"}:
        assert resumed[key] == fresh[key], key
    st = os.stat(paths[1])
    with open(paths[1], "r+b") as f:
        f.write(b"\0" * st.st_size)
    os.utime(paths[1], ns=(st.st_atime_ns, st.st_mtime_ns))
    again = W.write_parquet_files(paths, str(out))
    assert again["skipped_parts"] == 4
    for key in fresh.keys() - {"skipped_parts"}:
        assert again[key] == fresh[key], key


def test_write_parquet_files_reencodes_regenerated_input(ray_session, tmp_path):
    """An input rewritten at the same path with different rows is
    re-encoded in place on resume, not skipped by name; its part keeps
    one set of records and the totals equal a fresh run's."""
    paths = _inputs(tmp_path / "in")
    out = tmp_path / "out"
    W.write_parquet_files(paths, str(out))
    before = _parts(out)
    pq.write_table(_table(7, 450), paths[2])
    st = os.stat(paths[2])
    os.utime(paths[2], ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    resumed = W.write_parquet_files(paths, str(out))
    assert _parts(out) == before
    assert resumed["skipped_parts"] == 3
    assert _rows(out) == _expected(paths)
    fresh = W.write_parquet_files(paths, str(tmp_path / "fresh"))
    for key in fresh.keys() - {"skipped_parts", "out_dir"}:
        assert resumed[key] == fresh[key], key
    recs = LineageLog(str(out)).completed_records()
    assert sorted(recs) == before
    assert all(len(f.records) == 1 for f in recs.values())  # one row group each
    again = W.write_parquet_files(paths, str(out))
    assert again["skipped_parts"] == 4
    assert again["uncompressed_bytes"] == fresh["uncompressed_bytes"]


def _filter(ds):
    return ds.filter(lambda row: True)


def _map(ds):
    return ds.map_batches(lambda t: t, batch_format="pyarrow")


@pytest.mark.parametrize("case", ["filter", "map_batches", "kw", "hive_dir",
                                  "sort_by", "part_rows", "repartition_blocks"])
def test_other_datasets_keep_content_names(ray_session, tmp_path, case):
    """Only an untransformed fused read with no re-bundling option is
    written per input file; everything else is content named and still
    writes exactly the input's rows."""
    src = tmp_path / ("shard=a" if case == "hive_dir" else "in")
    paths = _inputs(src)
    read = W.read_parquet_fused(
        str(src), **({"include_paths": False} if case == "kw" else {}))
    ds = {"filter": _filter, "map_batches": _map}.get(case, lambda d: d)(read)
    kw = {"sort_by": {"sort_by": "id"}, "part_rows": {"part_rows": 600},
          "repartition_blocks": {"repartition_blocks": 2}}.get(case, {})
    out = tmp_path / "out"
    s = W.write_parquet_dataset(ds, str(out), **kw)
    names = _parts(out)
    assert names and all(CONTENT.fullmatch(n) for n in names), names
    assert s["rows"] == 1200
    assert _rows(out) == _expected(paths)


@pytest.mark.parametrize("resume", [True, False])
def test_content_named_out_dir_keeps_content_names(ray_session, tmp_path, resume):
    """An out_dir whose parts a fused read wrote content named (before
    fused reads were written per file) keeps that naming: a resume skips
    every intact part and rewrites only the missing one, and no
    file-named part appears next to them to duplicate their rows."""
    paths = _inputs(tmp_path / "in")
    out = tmp_path / "out"
    first = W.write_parquet_dataset(_untagged(W.read_parquet_fused(paths)), str(out))
    names = _parts(out)
    assert names and all(CONTENT.fullmatch(n) for n in names)
    victim = out / names[0]
    os.remove(victim)
    s = W.write_parquet_dataset(W.read_parquet_fused(paths), str(out), resume=resume)
    assert _parts(out) == names
    assert s["parts"] == first["parts"]
    assert s["skipped_parts"] == (len(names) - 1 if resume else 0)
    assert _rows(out) == _expected(paths)


def test_mixed_out_dir_never_duplicates_rows(ray_session, tmp_path):
    """A fused run, an opaque run of other rows into the same out_dir,
    then the fused run again: it resumes its own file-named parts and
    leaves the opaque run's content-named ones alone."""
    import ray.data

    paths = _inputs(tmp_path / "in")
    out = tmp_path / "out"
    W.write_parquet_dataset(W.read_parquet_fused(paths), str(out))
    other = _table(9)
    with pytest.warns(UserWarning, match="named by input file"):
        W.write_parquet_dataset(ray.data.from_arrow(other), str(out))
    os.remove(out / _parts(out)[-1])  # file-named parts sort last
    s = W.write_parquet_dataset(W.read_parquet_fused(paths), str(out))
    assert (s["parts"], s["skipped_parts"], s["rows"]) == (4, 3, 1200)
    names = _parts(out)
    assert sum(bool(FILE_NAMED.fullmatch(n)) for n in names) == 4
    want = _expected(paths) + list(zip(other.column("id").to_pylist(),
                                       other.column("s").to_pylist()))
    assert _rows(out) == sorted(want)


def test_same_inputs_through_both_paths(ray_session, tmp_path):
    """The same inputs through an opaque Dataset after a fused run
    warn: the content path cannot see which rows the file-named parts
    hold and writes them again. In the other order the fused run keeps
    the content names and writes nothing twice. (The opaque Dataset is
    an identity map of the same read, so its blocks, and so their
    content names, are the fused read's.)"""
    paths = _inputs(tmp_path / "in")

    def opaque():
        return W.read_parquet_fused(paths).map_batches(
            lambda b: b, batch_format="pyarrow", zero_copy_batch=True)

    fused_first = tmp_path / "fused_first"
    W.write_parquet_dataset(W.read_parquet_fused(paths), str(fused_first))
    with pytest.warns(UserWarning, match="named by input file"):
        W.write_parquet_dataset(opaque(), str(fused_first))

    opaque_first = tmp_path / "opaque_first"
    W.write_parquet_dataset(opaque(), str(opaque_first))
    before = _parts(opaque_first)
    s = W.write_parquet_dataset(W.read_parquet_fused(paths), str(opaque_first))
    assert _parts(opaque_first) == before
    assert all(CONTENT.fullmatch(n) for n in before)
    assert s["skipped_parts"] == s["parts"]
    assert _rows(opaque_first) == _expected(paths)


def _old_load(paths, opts, columns, max_rows, max_bytes):
    """What _read_groups was before it streamed: one table per part."""
    from hyparquet_writer_ray.core.schema import normalize_table, schema_from_arrow
    from hyparquet_writer_ray.stages.encode import split_row_groups

    table = pa.concat_tables(
        normalize_table(pq.read_table(p, columns=columns)) for p in paths)
    return schema_from_arrow(table.schema, opts.schema_overrides), (
        ("r", g) for g in split_row_groups(table, max_rows, max_bytes))


def _nullable_table(n: int) -> pa.Table:
    return pa.table({
        "i": pa.array([None if j % 7 == 0 else j for j in range(n)], pa.int64()),
        "s": pa.array([None if j % 5 == 0 else f"s{j % 1000}" for j in range(n)]),
        "l": pa.array([None if j % 3 == 0 else [j, j] for j in range(n)],
                      pa.list_(pa.int32())),
        "ts": pa.array(range(n), pa.timestamp("s")),
    })


@pytest.mark.parametrize("row_group_size", [None, 70_000, 1000])
def test_streamed_read_keeps_part_bytes(tmp_path, row_group_size):
    """An input that fits in one block is written byte for byte as when
    each part read its inputs as one table: pq.read_table splits a row
    group into chunks of 131072 rows and the streamed read does too, so
    split_row_groups sees the same nbytes. Two inputs, one with more
    rows than one scan batch."""
    from hyparquet_writer_ray.core.options import WriteOptions

    paths = [str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")]
    pq.write_table(_nullable_table(300_001), paths[0], row_group_size=row_group_size)
    pq.write_table(_nullable_table(5000), paths[1], row_group_size=row_group_size)
    from hyparquet_writer_ray.core.schema import normalize_table

    whole = normalize_table(pq.read_table(paths[0]))
    _, block = W._scan_blocks(paths[:1], None, 128 << 20)
    assert [len(c) for c in block.column("s").chunks] == \
        [len(c) for c in whole.column("s").chunks]
    assert block.nbytes == whole.nbytes
    opts = WriteOptions()
    for cols, max_bytes in ((None, 64 << 20), (["s", "i"], 1 << 20)):
        got = {}
        for name, load in (
                ("old", lambda: _old_load(paths, opts, cols, 100_000, max_bytes)),
                ("new", lambda: W._read_groups(paths, "r", opts, cols, 100_000,
                                               max_bytes, 128 << 20))):
            os.makedirs(tmp_path / name, exist_ok=True)
            W._write_part(str(tmp_path / name), "p.parquet", "r", load, opts,
                          skip=frozenset())
            got[name] = (tmp_path / name / "p.parquet").read_bytes()
        assert got["old"] == got["new"], (cols, max_bytes)


def test_streamed_read_holds_one_block(tmp_path):
    """An input larger than one block is decoded a block at a time: no
    block is much over ``block_bytes``, and the row groups still hold
    every input row in order."""
    from hyparquet_writer_ray.core.options import WriteOptions

    from hyparquet_writer_ray.core.schema import normalize_table

    p = str(tmp_path / "big.parquet")
    pq.write_table(_nullable_table(200_000), p, row_group_size=50_000)
    whole = normalize_table(pq.read_table(p))
    block = whole.nbytes // 10
    schema, *blocks = W._scan_blocks([p], None, block)
    assert schema == whole.schema
    assert len(blocks) >= 5
    assert max(b.nbytes for b in blocks) < 2 * block
    _, groups = W._read_groups([p], "r", WriteOptions(), None, 100_000,
                               64 << 20, block)
    assert pa.concat_tables(g for _, g in groups).equals(whole)


def test_scan_blocks_on_a_store_equal_the_local_read(tmp_path):
    """A part task streams a ``faultmv://`` input through the same
    resolver and open as a local one: the same tables (values, chunk
    lengths, ``nbytes``) at the default block and at a tenth of the
    input."""
    import ray.data

    from hyparquet_writer_ray.core.schema import normalize_table

    local = str(tmp_path / "big.parquet")
    pq.write_table(_nullable_table(60_000), local, row_group_size=7_000)
    faultfs.RenameFS.reset()
    remote = "faultmv://scan/big.parquet"
    with open(local, "rb") as f:
        fsio.write_marker(remote, f.read())
    default = ray.data.DataContext.get_current().target_max_block_size
    try:
        for block in (default, normalize_table(pq.read_table(local)).nbytes // 10):
            want = list(W._scan_blocks([local], None, block))
            got = list(W._scan_blocks([remote], None, block))
            assert got[0] == want[0]
            assert len(got) == len(want) > (2 if block != default else 1)
            for g, w in zip(got[1:], want[1:]):
                assert g.equals(w)
                assert g.nbytes == w.nbytes
                assert [[len(c) for c in col.chunks] for col in g.columns] == \
                    [[len(c) for c in col.chunks] for col in w.columns]
    finally:
        faultfs.RenameFS.reset()


def test_pathlike_inputs_write_what_str_inputs_write(ray_session, tmp_path, monkeypatch):
    """``pathlib.Path`` inputs give the same part names, record ids and
    bytes as the same paths given as ``str``: through
    ``write_parquet_files``, ``compact_parquet_dataset`` (a directory)
    and ``read_parquet_fused`` (a directory, and a list)."""
    import pathlib

    FakeTasks(monkeypatch)
    paths = _inputs(tmp_path / "in")
    as_path = [pathlib.Path(p) for p in paths]

    def out(name: str, lineage: str = "_lineage") -> tuple:
        d = tmp_path / name
        recs = LineageLog(str(d), name=lineage).completed_records().values()
        return ({n: (d / n).read_bytes() for n in _parts(d)},
                sorted(r.part_id for part in recs for r in part.records))

    W.write_parquet_files(paths, str(tmp_path / "files_str"))
    W.write_parquet_files(as_path, str(tmp_path / "files_path"))
    assert out("files_path") == out("files_str")
    W.compact_parquet_dataset(str(tmp_path / "in"), str(tmp_path / "compact_str"))
    W.compact_parquet_dataset(tmp_path / "in", str(tmp_path / "compact_path"))
    assert out("compact_path", W.COMPACT_LINEAGE) == out("compact_str", W.COMPACT_LINEAGE)
    for name, src in (("fused_dir", tmp_path / "in"), ("fused_list", as_path)):
        W.write_parquet_dataset(W.read_parquet_fused(src), str(tmp_path / name))
        assert out(name) == out("files_str")


def test_file_parts_list_inputs_instead_of_heads():
    """Naming the parts of many URI inputs in one directory costs one
    listing, not one metadata request per input."""
    fs = faultfs.PutFS

    def calls(n: int) -> dict:
        paths = [f"faultput://many{n}/in-{i}.parquet" for i in range(n)]
        for p in paths:
            fsio.write_marker(p, b"PAR1")
        fs.calls.clear()
        assert len(W._file_parts(paths)) == n
        return dict(fs.calls)

    try:
        assert calls(3) == calls(30) == {"find": 1}
    finally:
        fs.reset()


@pytest.fixture(params=["faultmv", "faultput"])
def fault_store(request, monkeypatch):
    """(protocol, :class:`FakeTasks`): the file-granular part tasks
    run in this process."""
    cls = faultfs.STORES[request.param]
    cls.reset()
    yield request.param, FakeTasks(monkeypatch, cls)
    cls.reset()


@pytest.fixture(params=["local", "faultmv", "faultput"])
def part_tasks(request, monkeypatch, tmp_path):
    """(base dir, :class:`FakeTasks`) on a local path and on both fault
    stores."""
    cls = faultfs.STORES.get(request.param)
    if cls is None:
        yield str(tmp_path), FakeTasks(monkeypatch)
        return
    cls.reset()
    yield f"{request.param}://", FakeTasks(monkeypatch, cls)
    cls.reset()


def _store_inputs(base: str, n: int = 4) -> list[str]:
    fsio.makedirs(fsio.join(base, "in"))
    paths = [fsio.join(base, "in", f"in-{i}.parquet") for i in range(n)]
    for i, p in enumerate(paths):
        fsio.pq_write_table(_table(i), p)
    return paths


def test_uri_inputs_kill_then_resume(fault_store):
    """Inputs and out_dir on a rename-based filesystem and on an
    atomic-PUT store: a run killed mid-part resumes, skipping the parts
    finished before the kill, and ends equal to an uninterrupted run."""
    proto, tasks = fault_store
    paths = _store_inputs(f"{proto}://")
    clean = W.write_parquet_files(paths, f"{proto}://clean")

    tasks.kill_after(2)
    with pytest.raises(OSError, match="injected write failure"):
        W.write_parquet_files(paths, f"{proto}://out")
    names = [p.rsplit("/", 1)[1] for p in fsio.glob_in(f"{proto}://out", "*")]
    assert sum(n.startswith("part-") for n in names) == 2
    assert not [n for n in names if ".inprogress-" in n]

    resumed = W.write_parquet_files(paths, f"{proto}://out")
    assert (resumed["parts"], resumed["skipped_parts"]) == (4, 2)
    for key in clean.keys() - {"skipped_parts", "out_dir"}:
        assert resumed[key] == clean[key], key
    for p in fsio.glob_in(f"{proto}://clean", "part-*.parquet"):
        name = p.rsplit("/", 1)[1]
        assert fsio.read_bytes(fsio.join(f"{proto}://out", name)) == \
            fsio.read_bytes(p)


def test_compaction_uri_inputs(fault_store):
    """Compaction buckets URI inputs by their identity's size, refuses
    an out_dir that holds its inputs, and resumes finished buckets."""
    proto, _ = fault_store
    paths = _store_inputs(f"{proto}://")
    size = sum(fsio.identity(p)[1] for p in paths[:2])
    out = f"{proto}://compact"
    s = W.compact_parquet_dataset(f"{proto}://in", out, target_part_bytes=size)
    assert (s["input_files"], s["rows"]) == (4, 1200)
    assert s["parts"] >= 2
    got = pa.concat_tables(fsio.pq_read_table(p)
                           for p in fsio.glob_in(out, "part-*.parquet"))
    assert sorted(got.column("id").to_pylist()) == \
        sorted(i for p in paths for i in fsio.pq_read_table(p).column("id").to_pylist())
    again = W.compact_parquet_dataset(paths, out, target_part_bytes=size)
    assert again["skipped_parts"] == s["parts"]
    with pytest.raises(ValueError, match="in place"):
        W.compact_parquet_dataset(paths, f"{proto}://in")


def test_compaction_gc_heads_each_stale_part_once(monkeypatch, caplog):
    """Compaction's GC removes the parts of a superseded bucket layout
    with no metadata request or listing (every candidate is a file of
    the out_dir listing the resume already made) and logs one DEBUG
    record per part."""
    fs = faultfs.PutFS
    fs.reset()
    FakeTasks(monkeypatch, fs)
    paths = _store_inputs("faultput://gc")
    out = "faultput://gc/compact"
    first = W.compact_parquet_dataset(paths, out, target_part_bytes=1)
    stale = sorted(p.rsplit("/", 1)[1] for p in fsio.glob_in(out, "part-*.parquet"))
    assert first["parts"] == len(stale) == 4
    real = W._write_input_parts

    def then_count(*a, **kw):
        total = real(*a, **kw)
        fs.calls.clear()  # count the GC's requests only
        return total

    monkeypatch.setattr(W, "_write_input_parts", then_count)
    try:
        with caplog.at_level("DEBUG", logger="hyparquet_writer_ray"):
            s = W.compact_parquet_dataset(paths, out, target_part_bytes=1 << 30)
        assert (s["parts"], s["removed_stale_parts"]) == (1, 4)
        assert dict(fs.calls) == {}
        assert [r.getMessage() for r in caplog.records
                if r.name == "hyparquet_writer_ray" and "stale" in r.getMessage()] == \
            [f"stale compaction part {n} removed" for n in stale]
        assert fsio.glob_in(out, "part-*.parquet") != []
        assert not any(fsio.exists(fsio.join(out, n)) for n in stale)
    finally:
        fs.reset()


def test_resume_hands_tasks_only_pending_parts(part_tasks):
    """A resume submits Ray tasks for the pending parts only; the
    driver totals the finished ones, so the result equals the fresh
    run's."""
    base, tasks = part_tasks
    paths = _store_inputs(base)
    out = fsio.join(base, "out")
    fresh = W.write_parquet_files(paths, out)
    assert len(tasks.calls) == 4
    fsio.remove(fsio.glob_in(out, "part-*.parquet")[1])
    resumed = W.write_parquet_files(paths, out)
    assert [p for _, _, p in tasks.calls[4:]] == [[paths[1]]]
    assert resumed == {**fresh, "skipped_parts": 3}


def test_parts_skipped_on_resume_are_logged(part_tasks, caplog):
    """A resume writes one DEBUG record per part it settles on the
    driver, naming its file, and none for a part it writes."""
    base, _ = part_tasks
    paths = _store_inputs(base)
    out = fsio.join(base, "out")
    W.write_parquet_files(paths, out)
    names = sorted(p.rsplit("/", 1)[1] for p in fsio.glob_in(out, "part-*.parquet"))
    for name in names[1::2]:
        fsio.remove(fsio.join(out, name))
    with caplog.at_level("DEBUG", logger="hyparquet_writer_ray"):
        W.write_parquet_files(paths, out)
    assert [r.getMessage() for r in caplog.records
            if r.name == "hyparquet_writer_ray" and r.funcName == "_write_input_parts"] \
        == [f"part {n} finished by an earlier run: skipped" for n in names[::2]]


def test_part_skipped_in_its_task_is_logged(tmp_path, caplog):
    """A content-named part that its task finds finished (in ``skip``
    and on disk) is logged like a part the driver settles."""
    fname = "part-0123456789abcdef.parquet"
    (tmp_path / fname).write_bytes(b"x")

    def load():
        raise AssertionError("a skipped part is not read")

    with caplog.at_level("DEBUG", logger="hyparquet_writer_ray"):
        row = W._write_part(str(tmp_path), fname, "0123456789abcdef", load,
                            W.WriteOptions(), skip=frozenset([fname]))
    assert row.column("skipped").to_pylist() == [True]
    assert [r.getMessage() for r in caplog.records
            if r.name == "hyparquet_writer_ray"] == \
        [f"part {fname} finished by an earlier run: skipped"]


def test_finished_resume_runs_no_task(part_tasks):
    """With every part finished, neither the file writer nor compaction
    submits a task, and both return the fresh totals, file bytes
    included."""
    base, tasks = part_tasks
    paths = _store_inputs(base)
    size = sum(fsio.identity(p)[1] for p in paths[:2])
    files, compact = fsio.join(base, "files"), fsio.join(base, "compact")
    fresh = W.write_parquet_files(paths, files)
    fresh_c = W.compact_parquet_dataset(paths, compact, target_part_bytes=size)
    assert fresh["compressed_bytes"] == sum(
        len(fsio.read_bytes(p)) for p in fsio.glob_in(files, "part-*.parquet"))
    ran = len(tasks.calls)
    again = W.write_parquet_files(paths, files)
    again_c = W.compact_parquet_dataset(paths, compact, target_part_bytes=size)
    assert len(tasks.calls) == ran
    assert again == {**fresh, "skipped_parts": 4}
    assert again_c == {**fresh_c, "skipped_parts": fresh_c["parts"]}


def test_resume_lists_finished_parts_instead_of_heads(monkeypatch):
    """On an atomic-PUT store, resuming 3 or 30 finished parts costs the
    same listings and not one metadata request: sizes come with the
    listing of the out_dir. Reads are the manifest probe plus one GET
    per record file."""
    fs = faultfs.PutFS
    fs.reset()
    FakeTasks(monkeypatch, fs)

    def calls(n: int) -> dict:
        paths = _store_inputs(f"faultput://many{n}", n)
        out = f"faultput://many{n}/out"
        W.write_parquet_files(paths, out)
        fs.calls.clear()
        assert W.write_parquet_files(paths, out)["skipped_parts"] == n
        calls = dict(fs.calls)
        assert calls.pop("cat_file") == 1 + n
        return calls

    try:
        few, many = calls(3), calls(30)
        assert few == many
        assert set(few) == {"find"}
    finally:
        fs.reset()


def test_fused_resume_with_every_part_finished_runs_no_task(
        ray_session, tmp_path, monkeypatch):
    """The fused route through Ray: a resume with nothing pending maps
    no Dataset, submits no task and returns the fresh totals."""
    paths = _inputs(tmp_path / "in")
    out = str(tmp_path / "out")
    fresh = W.write_parquet_dataset(W.read_parquet_fused(paths), out)
    launched = []
    for name in ("_map_batches", "_remote"):
        real = getattr(W, name)
        monkeypatch.setattr(W, name, lambda *a, real=real, **kw:
                            launched.append(a) or real(*a, **kw))
    again = W.write_parquet_dataset(W.read_parquet_fused(paths), out)
    assert launched == []
    assert again == {**fresh, "skipped_parts": 4}


def test_duplicate_input_is_rejected(ray_session, tmp_path, monkeypatch):
    """An input given twice, spelled alike or not (relative, with a
    ``.`` segment, as a ``file://`` URI), would send two tasks racing on
    one part file and count its rows twice: ``write_parquet_files``
    raises before writing anything. A fused read of such paths holds
    the rows twice, as Ray reads them, and keeps content names: its two
    equal blocks write one part, and the totals count that part once,
    fresh and on a rerun."""
    monkeypatch.chdir(tmp_path)
    p = _inputs(tmp_path / "in", 1)[0]
    out = tmp_path / "out"
    for dup in ([p, p], [p, "in/in-0.parquet"], ["./in/../in/in-0.parquet", p],
                [p, f"file://{p}"],
                [f"file://{p}", f"file://{tmp_path}/in/./in-0.parquet"]):
        with pytest.raises(ValueError, match="in-0.parquet"):
            W.write_parquet_files(dup, str(out))
    assert not out.exists()
    ds = tmp_path / "ds"
    for skipped in (0, 1):
        s = W.write_parquet_dataset(
            W.read_parquet_fused([p, f"{tmp_path}/in/./in-0.parquet"]), str(ds))
        assert all(CONTENT.fullmatch(n) for n in _parts(ds))
        assert (s["parts"], s["skipped_parts"], s["rows"]) == \
            (len(_parts(ds)), skipped, len(_rows(ds))) == (1, skipped, 300)


@pytest.mark.parametrize("concurrency", [None, 1, (1, 2)])
def test_part_tasks_in_flight_stay_under_concurrency(
        ray_session, tmp_path, monkeypatch, concurrency):
    """``concurrency`` caps the part tasks in flight at once (a
    ``(min, max)`` pair at its max); unset, every pending part is
    submitted at once."""
    paths = _inputs(tmp_path / "in", 5)
    ds = W.read_parquet_fused(paths)
    tasks = FakeTasks(monkeypatch)
    s = W.write_parquet_dataset(ds, str(tmp_path / "out"), concurrency=concurrency)
    assert (s["parts"], s["rows"], len(tasks.calls)) == (5, 1500, 5)
    assert tasks.peak == (W._task_concurrency(concurrency) or 5)
    assert _rows(tmp_path / "out") == _expected(paths)


def test_failed_part_task_cancels_the_ones_in_flight(part_tasks):
    """A failed part task fails the call with its own error and cancels
    every task still in flight; the parts finished before it stay."""
    base, tasks = part_tasks
    paths = _store_inputs(base, 6)
    fsio.write_marker(paths[2], b"not a parquet file")
    out = fsio.join(base, "out")
    with pytest.raises(pa.ArrowInvalid):
        W.write_parquet_files(paths, out)
    assert (tasks.peak, tasks.cancelled) == (6, 3)
    names = sorted(p.rsplit("/", 1)[1] for p in fsio.glob_in(out, "part-*.parquet"))
    assert [FILE_NAMED.fullmatch(n).group(1) for n in names] == ["in-0", "in-1"]
    assert LineageLog(out).completed_records().keys() == set(names)


def test_failed_part_task_fails_the_call(ray_session, tmp_path, monkeypatch):
    """On Ray: inputs that are not parquet files fail their part tasks.
    The call raises that error's type once every task still in flight
    is cancelled: nothing writes after it returns, and the second
    failure is not left for Ray to log as an unhandled error. The parts
    finished before the failure keep their lineage records; a rerun with
    the inputs fixed skips them and writes the rest."""
    import gc
    import time

    import ray._private.worker as ray_worker

    unhandled = []
    monkeypatch.setattr(ray_worker, "_unhandled_error_handler", unhandled.append)
    paths = _inputs(tmp_path / "in", 12)
    for p in paths[5:7]:
        with open(p, "wb") as f:
            f.write(b"not a parquet file")
    out = str(tmp_path / "out")

    def state():
        return sorted(os.listdir(out)), LineageLog(out).completed_records()

    with pytest.raises(pa.ArrowInvalid):
        W.write_parquet_files(paths, out)
    listed, finished = state()
    assert len(finished) >= 1
    gc.collect()
    time.sleep(1)
    assert state() == (listed, finished)
    assert unhandled == []

    for i in (5, 6):
        pq.write_table(_table(i), paths[i])
    s = W.write_parquet_files(paths, out)
    assert (s["parts"], s["skipped_parts"], s["rows"]) == (12, len(finished), 3600)
    assert _rows(out) == _expected(paths)


def _cli(*args: str) -> dict:
    res = subprocess.run(
        [sys.executable, "-m", "hyparquet_writer_ray", "encode", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        env={**os.environ, "RAY_ADDRESS": "local"},
    )
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_cli_expands_uri_inputs(tmp_path):
    """``--mode files`` expands a URI directory (a plain glob finds
    nothing there), and dataset mode goes through the fused read, so it
    writes one file-named part per input."""
    paths = _inputs(tmp_path / "in")
    files = _cli("--input", f"file://{tmp_path / 'in'}",
                 "--output", str(tmp_path / "files"), "--mode", "files")
    assert (files["parts"], files["rows"]) == (4, 1200)
    assert _rows(tmp_path / "files") == _expected(paths)
    ds = _cli("--input", str(tmp_path / "in"), "--output", str(tmp_path / "ds"))
    assert (ds["parts"], ds["rows"]) == (4, 1200)
    assert all(FILE_NAMED.fullmatch(n) for n in _parts(tmp_path / "ds"))


def test_cli_dataset_mode_reads_subdirectories(tmp_path):
    """Dataset mode reads an input directory's subdirectories, as
    ``ray.data.read_parquet`` does: a hive ``lang=xx/`` input keeps its
    column, and a directory with top-level and nested files loses none.
    An input that matches nothing is an error, not an empty output."""
    hive = tmp_path / "hive"
    for i, lang in enumerate(("de", "en")):
        (hive / f"lang={lang}").mkdir(parents=True)
        pq.write_table(_table(i), hive / f"lang={lang}" / "x.parquet")
    s = _cli("--input", str(hive), "--output", str(tmp_path / "hive_out"))
    assert s["rows"] == 600
    t = pa.concat_tables(pq.read_table(tmp_path / "hive_out" / p)
                         for p in _parts(tmp_path / "hive_out"))
    assert sorted(zip(t.column("id").to_pylist(), t.column("lang").to_pylist())) == \
        [(i * 1000 + j, lang) for i, lang in enumerate(("de", "en")) for j in range(300)]

    nested = tmp_path / "nested"
    (nested / "sub").mkdir(parents=True)
    paths = [str(nested / "a.parquet"), str(nested / "sub" / "b.parquet")]
    for i, p in enumerate(paths):
        pq.write_table(_table(i), p)
    s = _cli("--input", str(nested), "--output", str(tmp_path / "nested_out"))
    assert (s["parts"], s["rows"]) == (2, 600)
    assert _rows(tmp_path / "nested_out") == _expected(paths)

    res = subprocess.run(
        [sys.executable, "-m", "hyparquet_writer_ray", "encode",
         "--input", str(tmp_path / "missing"), "--output", str(tmp_path / "x")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert res.returncode != 0
    assert "no parquet files found" in res.stderr
    assert not (tmp_path / "x").exists()


def test_uri_input_part_renamed_from_cwd_hash(ray_session, tmp_path, monkeypatch):
    """A URI input's part name used to hash the working directory plus
    the URI. ``migrate --input`` from that directory removes the old
    part, and the resume writes the current name, so no rows are
    duplicated."""
    from hyparquet_writer_ray.migrate import migrate

    monkeypatch.chdir(tmp_path)
    inp = f"file://{_inputs(tmp_path / 'in', 1)[0]}"
    out = tmp_path / "out"
    W.write_parquet_files([inp], str(out))
    (name,) = _parts(out)
    old = f"part-in-0-{hashlib.sha1(os.path.abspath(inp).encode()).hexdigest()[:8]}.parquet"
    assert name != old
    os.rename(out / name, out / old)
    assert migrate(str(out), [inp])["legacy_parts_removed"] == [old]
    s = W.write_parquet_files([inp], str(out))
    assert _parts(out) == [name]
    assert (s["parts"], s["skipped_parts"], s["rows"]) == (1, 0, 300)
