"""Kill-resume on each backend class, through the one part-file kernel
(``pipelines.write._write_part``) and ``LineageLog``, in-process: local
POSIX (``tmp_path``), a rename-based filesystem and an atomic-PUT object
store (both from tests/faultfs.py). A part write fails mid-part, then a
rerun resumes from the lineage."""
from __future__ import annotations

import pyarrow as pa
import pytest
from fsspec.implementations.local import LocalFileOpener

import faultfs
from hyparquet_writer_ray.core.options import WriteOptions
from hyparquet_writer_ray.core.schema import schema_from_arrow
from hyparquet_writer_ray.pipelines.write import _write_part
from hyparquet_writer_ray.state import fsio
from hyparquet_writer_ray.state.lineage import LineageLog, PartRecord


@pytest.fixture(autouse=True)
def _fresh_stores():
    for cls in (faultfs.RenameFS, faultfs.PutFS):
        cls.reset()
    yield
    for cls in (faultfs.RenameFS, faultfs.PutFS):
        cls.reset()


@pytest.fixture(params=["local", "faultmv", "faultput"])
def backend(request, tmp_path, monkeypatch):
    """(base dir, fail_write): ``fail_write(n)`` makes the n-th write
    call from now raise OSError."""
    if request.param != "local":
        cls = faultfs.RenameFS if request.param == "faultmv" else faultfs.PutFS
        return f"{request.param}://kill", cls.fail_write
    countdown: list[int] = []
    real = LocalFileOpener.write

    def write(self, *args, **kwargs):
        if countdown:
            countdown[0] -= 1
            if countdown[0] == 0:
                countdown.clear()
                raise OSError("injected write failure")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(LocalFileOpener, "write", write)
    return str(tmp_path), lambda n: countdown.append(n)


def _write(out: str, i: int, skip: frozenset = frozenset()) -> pa.Table:
    table = pa.table({"id": pa.array(range(i * 500, (i + 1) * 500), pa.int64()),
                      "s": [f"row-{j % 37}" for j in range(500)]})
    return _write_part(out, f"part-{i}.parquet", f"p{i}",
                       lambda: (schema_from_arrow(table.schema), [(f"g{i}", table)]),
                       WriteOptions(), skip=skip)


def _names(base: str) -> list[str]:
    return sorted(p[len(base) + 1:] for p in fsio.glob_in(base, "**"))


def test_kill_mid_part_then_resume(backend):
    base, fail_write = backend
    clean, out = fsio.join(base, "clean"), fsio.join(base, "out")
    fsio.makedirs(clean)
    fsio.makedirs(out)
    for i in range(4):
        _write(clean, i)

    _write(out, 0)
    _write(out, 1)
    fail_write(2)  # part 3's second write: its header is already out
    with pytest.raises(OSError, match="injected write failure"):
        _write(out, 2)
    names = _names(out)
    assert "part-2.parquet" not in names  # no torn object at its name
    assert not fsio.exists(fsio.join(out, "part-2.parquet"))
    assert [n for n in names if ".inprogress-" in n] == []
    assert [n for n in names if n.startswith("_lineage/parts/")] == \
        ["_lineage/parts/p0.json", "_lineage/parts/p1.json"]

    done = LineageLog(out).completed_records()
    assert set(done) == {"part-0.parquet", "part-1.parquet"}
    rows = [_write(out, i, frozenset(done)) for i in range(4)]
    assert [r.column("skipped")[0].as_py() for r in rows] == \
        [True, True, False, False]
    for i in range(4):
        name = f"part-{i}.parquet"
        assert fsio.read_bytes(fsio.join(out, name)) == \
            fsio.read_bytes(fsio.join(clean, name))
    assert set(LineageLog(out).completed_records()) == \
        {f"part-{i}.parquet" for i in range(4)}


def _no_mtime(self, path):
    raise NotImplementedError


@pytest.mark.parametrize("proto", ["faultmv", "faultput"])
def test_sweep_without_mtime_keeps_tmps(proto, monkeypatch):
    """A backend with no mtime cannot age a tmp: the age-gated sweeps
    keep every tmp and do not raise."""
    fs = fsio.url_fs(f"{proto}://x")[0]
    if proto == "faultmv":
        monkeypatch.setattr(faultfs.RenameFS, "modified", _no_mtime)
    tmps = ["/sweep/part-a.parquet.inprogress-1-dead",
            "/sweep/sub/part-b.parquet.inprogress-2-dead",
            "/dest/one.parquet.inprogress-3-dead"]
    for p in tmps:
        fs.pipe_file(p, b"x")
    fsio.clean_stale_tmps(f"{proto}://sweep", max_age=0)
    fsio.clean_dest_tmps(f"{proto}://dest/one.parquet", max_age=0)
    assert all(fs.exists(p) for p in tmps)


def test_sweep_with_mtime_removes_aged_tmps():
    """Control for the test above: with an mtime the same sweeps run."""
    fs = fsio.url_fs("faultmv://x")[0]
    fs.pipe_file("/sweep/part-a.parquet.inprogress-1-dead", b"x")
    fs.pipe_file("/dest/one.parquet.inprogress-3-dead", b"x")
    fsio.clean_stale_tmps("faultmv://sweep", max_age=0)
    fsio.clean_dest_tmps("faultmv://dest/one.parquet", max_age=0)
    assert not fs.exists("/sweep/part-a.parquet.inprogress-1-dead")
    assert not fs.exists("/dest/one.parquet.inprogress-3-dead")


def test_resume_validation_lists_instead_of_heads():
    """Resume checks each record's part file against one listing per
    directory the records name (plus the parts/ listing), not one HEAD
    per record: the lookups do not grow with the number of parts. A
    record whose output is gone is not done. Reads are the manifest
    probe plus one GET per record file."""
    fs = faultfs.PutFS

    def validate(n: int) -> dict:
        base = f"faultput://res{n}"
        log = LineageLog(base)
        for i in range(n):
            # part files in two directories: the root and a hive subdir
            rec = PartRecord(part_id=f"p{i}", num_rows=1, raw_bytes=i,
                             comp_bytes=1,
                             file=f"{'k=a/' if i % 2 else ''}part-{i}.parquet")
            fsio.write_marker(fsio.join(base, rec.file), b"PAR1")
            log.write_part_record(rec.part_id, [rec])
        fsio.remove(fsio.join(base, "part-0.parquet"))
        fs.calls.clear()
        got = set(LineageLog(base).completed_records())
        assert got == {f"{'k=a/' if i % 2 else ''}part-{i}.parquet"
                       for i in range(1, n)}
        calls = dict(fs.calls)
        assert calls.pop("cat_file") == 1 + n
        return calls

    few, many = validate(3), validate(12)
    assert few == many
    # parts/ plus the two part directories
    assert many == {"find": 3}


def test_checkpoint_is_one_put_and_resume_one_listing():
    """A single-file checkpoint is one PUT, of its blob, and a resume
    over 30 checkpoints makes the same requests as one over 3,000: the
    manifest probe and one listing of blobs/. A blob whose put never
    completed is not done."""
    fs = faultfs.PutFS

    def resume(n: int) -> dict:
        base = f"faultput://ckpt{n}"
        log = LineageLog(base)
        for i in range(n):
            fs.calls.clear()
            log.write_checkpoint(f"p{i}", b"blob")
            assert fs.calls["put"] == 1
        fs.fail_write(1)
        with pytest.raises(OSError, match="injected write failure"):
            log.write_checkpoint("torn", b"blob")
        fs.calls.clear()
        assert LineageLog(base).completed_parts() == {f"p{i}" for i in range(n)}
        calls = dict(fs.calls)
        assert LineageLog(base).load_blob("p0") == b"blob"
        return calls

    few, many = resume(30), resume(3000)
    assert few == many == {"cat_file": 1, "find": 1}
