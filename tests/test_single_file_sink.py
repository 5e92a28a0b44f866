"""The two rules every single-file writer shares: how a sink is opened
(``fsio.open_output``) and how the row-group schedule is consumed
(``local.group_sizes``).

A path sink, local or URI, is written atomically and swept of aged
tmps, whichever writer takes it and whether it is a ``str`` or a
``pathlib.Path``; a row source that raises leaves no file and no tmp.
A bad schedule raises the same ``ValueError`` from every writer."""
from __future__ import annotations

import asyncio
import io
import os
import re
import uuid

import pyarrow as pa
import pytest

from fakeray import FakeTasks
from hyparquet_writer_ray import (
    ParquetWriter,
    WriteOptions,
    write_rows,
    write_rows_async,
    write_table,
    write_table_parallel,
)
from hyparquet_writer_ray.state import fsio


def _rows(n: int, fail_at: int | None = None):
    for i in range(n):
        if i == fail_at:
            raise RuntimeError(f"row source failed at row {i}")
        yield {"id": i, "s": None if i % 7 == 3 else f"v{i % 13}"}


def _table(n: int = 1000) -> pa.Table:
    return pa.Table.from_pylist(list(_rows(n)))


def _sync_rows(rows, sink, opts):
    write_rows(rows, sink, opts=opts)


def _async_rows(rows, sink, opts):
    async def agen():
        for row in rows:
            yield row

    asyncio.run(write_rows_async(agen(), sink, opts=opts))


ROW_WRITERS = {"write_rows": _sync_rows, "write_rows_async": _async_rows}


@pytest.mark.parametrize("writer", list(ROW_WRITERS))
def test_failed_row_source_leaves_no_file(tmp_path, writer):
    """A row source that raises after two row groups were written fails
    the call with its own error and leaves neither a file at the final
    name nor an ``.inprogress-*`` tmp."""
    dest = tmp_path / "out.parquet"
    with pytest.raises(RuntimeError, match="failed at row 2200"):
        ROW_WRITERS[writer](_rows(5000, fail_at=2200), str(dest),
                            WriteOptions(row_group_size=(1000,)))
    assert list(tmp_path.iterdir()) == []


def _write(writer: str, sink) -> None:
    opts = WriteOptions(row_group_size=(300, 500))
    if writer == "write_table":
        write_table(_table(), sink, opts)
    elif writer == "write_table_parallel":
        write_table_parallel(_table(), sink, opts)
    else:
        ROW_WRITERS[writer](_rows(1000), sink, opts)


@pytest.mark.parametrize("writer", ["write_table", "write_table_parallel",
                                    "write_rows", "write_rows_async"])
def test_memory_uri_sink_equals_file_object_sink(writer):
    """Every single-file writer takes a ``memory://`` path and writes
    there the bytes it writes to a ``BytesIO``."""
    buf = io.BytesIO()
    _write(writer, buf)
    dest = f"memory://sink-{uuid.uuid4().hex}/out.parquet"
    try:
        _write(writer, dest)
        assert fsio.read_bytes(dest) == buf.getvalue()
        assert fsio.glob(dest + ".inprogress-*") == []
    finally:
        fsio.rm_tree(dest.rsplit("/", 1)[0])


@pytest.fixture
def fake_ray(monkeypatch):
    """Ray reported initialized, ``ray.put`` the identity and slice
    tasks run in this process, so ``write_table_parallel`` takes its
    task path."""
    import ray

    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "put", lambda obj: obj)
    return FakeTasks(monkeypatch)


@pytest.mark.parametrize("writer", ["write_table_parallel", "write_rows",
                                    "write_rows_async"])
def test_path_sink_sweeps_aged_orphans(tmp_path, fake_ray, writer):
    """A path sink sweeps the aged ``<path>.inprogress-*`` orphan of a
    killed earlier write; a fresh tmp (a live writer's) survives, as
    ``write_table`` does (``test_fsio.py``)."""
    dest = tmp_path / "out.parquet"
    aged = tmp_path / "out.parquet.inprogress-1-dead"
    fresh = tmp_path / "out.parquet.inprogress-2-live"
    aged.write_bytes(b"x")
    fresh.write_bytes(b"y")
    past = os.path.getmtime(aged) - 7200
    os.utime(aged, (past, past))
    _write(writer, str(dest))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "out.parquet", "out.parquet.inprogress-2-live"]
    if writer == "write_table_parallel":
        assert len(fake_ray.calls) == 3  # the slice tasks ran


@pytest.mark.parametrize("writer", ["write_table", "write_rows", "write_table_parallel",
                                    "write_parquet_single_file"])
def test_pathlike_sink_equals_str_sink(request, tmp_path, writer):
    """Every single-file writer takes a ``pathlib.Path`` and writes there
    the bytes it writes to the same path given as a ``str``."""
    if writer == "write_parquet_single_file":
        import ray.data

        from hyparquet_writer_ray.pipelines.write import write_parquet_single_file

        request.getfixturevalue("ray_session")

        def write(sink):
            write_parquet_single_file(ray.data.from_arrow(_table()), sink)
    else:
        if writer == "write_table_parallel":
            request.getfixturevalue("fake_ray")

        def write(sink):
            _write(writer, sink)
    write(str(tmp_path / "str.parquet"))
    write(tmp_path / "path.parquet")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["path.parquet", "str.parquet"]
    assert (tmp_path / "path.parquet").read_bytes() == \
        (tmp_path / "str.parquet").read_bytes()


def _parquet_writer(schedule) -> None:
    table = _table(100)
    pw = ParquetWriter(io.BytesIO(), table.schema, WriteOptions(row_group_size=schedule))
    pw.write(table)
    pw.finish()


BAD_SCHEDULE_WRITERS = {
    "write_table": lambda s: write_table(_table(100), io.BytesIO(),
                                         WriteOptions(row_group_size=s)),
    "ParquetWriter": _parquet_writer,
    "write_rows": lambda s: write_rows(_rows(100), io.BytesIO(),
                                       opts=WriteOptions(row_group_size=s)),
}


@pytest.mark.parametrize("schedule", [(), (0,), (5, -1)])
@pytest.mark.parametrize("writer", list(BAD_SCHEDULE_WRITERS))
def test_bad_schedule_raises_the_same_error(writer, schedule):
    """An empty schedule or an entry below 1 is rejected by every
    writer with one message."""
    msg = "row_group_size entries must be >= 1, got " + re.escape(repr(schedule))
    with pytest.raises(ValueError, match=msg):
        BAD_SCHEDULE_WRITERS[writer](schedule)
