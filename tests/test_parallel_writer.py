"""``write_table_parallel`` through the one plain-task runner
(``W._run_tasks``), with Ray stood in for by :class:`fakeray.FakeTasks`
so slice tasks run in this process: a failed slice or a failed sink
write re-raises its own error, leaves no task in flight and no file at
the destination; slices that finish out of order still assemble the
serial writer's bytes with at most ``W._QUEUED_SLICES`` in flight; and
the serial fallback is logged with its reason."""
from __future__ import annotations

import io

import pyarrow as pa
import pytest

import faultfs
from fakeray import FakeTasks
from hyparquet_writer_ray import WriteOptions, write_table_parallel, write_table_to_bytes
from hyparquet_writer_ray.pipelines import write as W
from hyparquet_writer_ray.state import fsio


def _table(n: int = 1000) -> pa.Table:
    return pa.table({"id": pa.array(range(n), pa.int64()),
                     "s": [f"v{i % 13}" for i in range(n)]})


@pytest.fixture
def fake_ray(monkeypatch):
    """:class:`FakeTasks` with Ray reported initialized and ``ray.put``
    the identity, so ``write_table_parallel`` takes its task path."""
    import ray

    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "put", lambda obj: obj)
    return lambda **kw: FakeTasks(monkeypatch, **kw)


@pytest.fixture(params=["local", "faultmv", "faultput"])
def dest(request, tmp_path):
    """A destination path on a local dir and on both fault stores."""
    cls = faultfs.STORES.get(request.param)
    if cls is None:
        yield str(tmp_path / "t.parquet")
        return
    cls.reset()
    yield f"{request.param}://out/t.parquet"
    cls.reset()


def _nothing_at(path: str) -> bool:
    parent = path.rsplit("/", 1)[0]
    return not fsio.exists(path) and not (
        fsio.isdir(parent) and fsio.glob_in(parent, "*"))


def test_failed_slice_cancels_the_slices_in_flight(fake_ray, dest, monkeypatch):
    """A slice task that raises fails the call with its own error; the
    six slices still running are cancelled and no file is left."""
    tasks = fake_ray()
    encode = W._encode_table_slice

    def failing(table, r0, r1, **kw):
        if r0 == 300:
            raise RuntimeError("slice 3 failed")
        return encode(table, r0, r1, **kw)

    monkeypatch.setattr(W, "_encode_table_slice", failing)
    with pytest.raises(RuntimeError, match="slice 3 failed"):
        write_table_parallel(_table(), dest, WriteOptions(row_group_size=(100,)))
    assert (len(tasks.calls), tasks.finished, tasks.cancelled) == (10, 4, 6)
    assert tasks.in_flight == []
    assert _nothing_at(dest)


@pytest.mark.parametrize("proto", ["faultmv", "faultput"])
def test_failed_sink_write_cancels_the_slices_in_flight(fake_ray, proto):
    """A sink write failing mid-assembly (the third row group's) fails
    the call with its own error; every slice still running is cancelled
    and no file is left at the destination."""
    cls = faultfs.STORES[proto]
    cls.reset()
    tasks = fake_ray()
    dest = f"{proto}://out/t.parquet"
    try:
        cls.fail_write(4)  # the magic, then one write per row group
        with pytest.raises(OSError, match="injected write failure"):
            write_table_parallel(_table(), dest, WriteOptions(row_group_size=(100,)))
        assert (len(tasks.calls), tasks.finished, tasks.cancelled) == (10, 3, 7)
        assert tasks.in_flight == []
        assert _nothing_at(dest)
    finally:
        cls.reset()


def test_slices_finished_out_of_order_keep_the_serial_bytes(fake_ray):
    """Slices that finish newest first are still appended in schedule
    order: the bytes equal the serial writer's, and no more than
    ``_QUEUED_SLICES`` slice tasks are ever in flight."""
    tasks = fake_ray(reverse=True)
    t, opts = _table(2000), WriteOptions(row_group_size=(10,))
    buf = io.BytesIO()
    write_table_parallel(t, buf, opts)
    assert buf.getvalue() == write_table_to_bytes(t, opts)
    assert len(tasks.calls) == 200
    assert tasks.peak == W._QUEUED_SLICES


def test_serial_fallback_is_logged(caplog, monkeypatch):
    """The serial fallback logs one DEBUG record naming its reason;
    a write through slice tasks logs none."""
    import ray

    t = _table()
    serial = write_table_to_bytes(t, WriteOptions(row_group_size=(100,)))

    def write(table, **kw) -> bytes:
        buf = io.BytesIO()
        write_table_parallel(table, buf, WriteOptions(**kw))
        return buf.getvalue()

    with caplog.at_level("DEBUG", logger="hyparquet_writer_ray"):
        monkeypatch.setattr(ray, "is_initialized", lambda: False)
        assert write(t, row_group_size=(100,)) == serial
        monkeypatch.setattr(ray, "is_initialized", lambda: True)
        assert write(t, row_group_size=(1000,)) == write_table_to_bytes(
            t, WriteOptions(row_group_size=(1000,)))
        monkeypatch.setattr(ray, "put", lambda obj: obj)
        FakeTasks(monkeypatch)
        assert write(t, row_group_size=(100,)) == serial
    msgs = [r.getMessage() for r in caplog.records
            if r.name == "hyparquet_writer_ray" and r.funcName == "write_table_parallel"]
    assert all(r.levelname == "DEBUG" for r in caplog.records
               if r.funcName == "write_table_parallel")
    assert msgs == [
        "write_table_parallel writes serially: Ray is not initialized",
        "write_table_parallel writes serially: the schedule has fewer than two slices",
    ]
