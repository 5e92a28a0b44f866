"""The four benchmark workloads. Each makes its inputs from the seed,
runs one timed operation through the package's public API, and checks
the output by decoding it with readers that share no code with the
writer (pyarrow, and ``core.reader`` for the FSST column)."""
from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from hyparquet_writer_ray.core.options import ColumnSpec, WriteOptions
from hyparquet_writer_ray.sources.webtable import synthesize_batch

from .host import descendants, wait_ended
from .spans import TRACE_DIR_ENV

SEED_SPAN = 1_000_000  # seeds fold into this many disjoint row ranges


class OutputMismatch(Exception):
    """The decoded output differs from the input."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise OutputMismatch(what)


def _reset(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def start_ray(ray_dir: str, trace_dir: str | None = None) -> None:
    """A fresh local Ray cluster with one CPU, so the encode tasks run one
    at a time whatever the host's core count (``nproc`` reads 1 on the
    host this benchmark was sized on). Its session
    directory lives in ``ray_dir`` unless that path is too long for the
    Unix sockets Ray creates there (107 bytes in all), in which case Ray
    keeps its default."""
    import ray

    kw = dict(address="local", num_cpus=1, include_dashboard=False,
              log_to_driver=False, object_store_memory=256 << 20)
    if len(ray_dir) <= 40:
        kw["_temp_dir"] = ray_dir
    if trace_dir is not None:
        # the hook is imported before this process's sys.path reaches the
        # worker, so the checkout root goes on PYTHONPATH
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        kw["runtime_env"] = {
            "worker_process_setup_hook": "perfbench.spans.install_worker",
            "env_vars": {TRACE_DIR_ENV: trace_dir, "PYTHONPATH": path},
        }
    ray.init(**kw)
    ray.data.DataContext.get_current().enable_progress_bars = False


class Workload:
    uses_ray = False
    setup_reps = 3  # set-ups per end-to-end run; setup_s is their median

    def __init__(self, work: str, seed: int, ray_dir: str = "") -> None:
        self.work = work
        self.seed = seed
        self.ray_dir = ray_dir
        self.raw_bytes = 0  # input Arrow bytes of one timed operation

    def setup(self, trace_dir: str | None = None) -> None:
        """Start what the operation needs, make the inputs, warm up."""

    def teardown(self) -> None:
        pass

    def prepare(self, i: int) -> None:
        """Make sample ``i``'s output location, outside the timed section.
        Outputs are kept until :meth:`check`, which runs after the last
        sample so that decoding leaves no memory behind in a sample."""

    def run(self) -> dict:
        raise NotImplementedError

    def check(self, i: int, result: dict) -> int:
        """Decode sample ``i``'s output, compare it with the input, then
        delete it. Returns its bytes on disk; raises on a mismatch."""
        raise NotImplementedError


class _WebTable(Workload):
    """The deterministic web table as 8 parquet input files of 20k rows,
    encoded by ``read_parquet_fused`` -> ``write_parquet_dataset``."""

    uses_ray = True
    setup_reps = 2  # each starts a Ray cluster: the run-time budget allows two
    FILES = 8
    ROWS_PER_FILE = 20_000
    OPTS = WriteOptions(auto_codec="smart")

    def __init__(self, work: str, seed: int, ray_dir: str = "") -> None:
        super().__init__(work, seed, ray_dir)
        self.inp = os.path.join(work, "input")
        self.out = ""
        self._expected: pa.Table | None = None  # the input, read back for checks
        self.first_row = (seed % SEED_SPAN) * self.FILES * self.ROWS_PER_FILE

    def _make_input(self) -> None:
        _reset(self.inp)
        self.raw_bytes = 0
        for i in range(self.FILES):
            t = synthesize_batch(self.first_row + i * self.ROWS_PER_FILE,
                                 self.ROWS_PER_FILE)
            self.raw_bytes += t.nbytes
            pq.write_table(t, os.path.join(self.inp, f"input-{i:02d}.parquet"))

    def _inputs(self) -> list[str]:
        return sorted(glob.glob(os.path.join(self.inp, "*.parquet")))

    def _write(self, out: str, resume: bool) -> dict:
        from hyparquet_writer_ray.pipelines.write import (
            read_parquet_fused, write_parquet_dataset)

        ds = read_parquet_fused(self.inp)
        return write_parquet_dataset(ds, out, self.OPTS, resume=resume)

    def teardown(self) -> None:
        import ray

        pids = descendants()
        ray.shutdown()
        wait_ended(pids)

    def _parts(self, out: str) -> list[str]:
        return sorted(glob.glob(os.path.join(out, "part-*.parquet")))

    def _out(self, i: int) -> str:
        return os.path.join(self.work, f"out-{i}")

    def prepare(self, i: int) -> None:
        self.out = self._out(i)
        shutil.rmtree(self.out, ignore_errors=True)

    def check(self, i: int, result: dict) -> int:
        """Part order is undefined: place each decoded part by its first
        url, require the parts to tile the input exactly, and compare
        every part with its slice of the input."""
        out = self._out(i)
        if self._expected is None:
            self._expected = pa.concat_tables(pq.read_table(p) for p in self._inputs())
        expected = self._expected
        parts = [pq.read_table(p) for p in self._parts(out)]
        _require(all(t.num_rows for t in parts), "empty part")
        firsts = pa.array([t.column("url")[0].as_py() for t in parts], pa.string())
        starts = pc.index_in(firsts, value_set=expected.column("url")).to_pylist()
        _require(None not in starts, "part starts with a url not in the input")
        pos = 0
        for start, t in sorted(zip(starts, parts), key=lambda st: st[0]):
            _require(start == pos, f"parts do not tile the input at row {pos}")
            _require(t.equals(expected.slice(start, t.num_rows)),
                     f"part at row {start} differs from the input")
            pos += t.num_rows
        _require(pos == expected.num_rows, "output has fewer rows than the input")
        _require(result["rows"] == expected.num_rows, "writer reported a wrong row count")
        size = sum(os.path.getsize(p) for p in self._parts(out))
        shutil.rmtree(out)
        return size


class WebtableParts(_WebTable):
    name = "webtable_parts"

    def setup(self, trace_dir: str | None = None) -> None:
        start_ray(self.ray_dir, trace_dir)
        self._make_input()
        # the first job in a fresh cluster starts the workers and imports
        # the package there
        warm = os.path.join(self.work, "warm")
        shutil.rmtree(warm, ignore_errors=True)
        self._write(warm, resume=False)

    def run(self) -> dict:
        return self._write(self.out, resume=False)


class WebtableResume(_WebTable):
    """Set-up writes the full output once. Each sample restores it and
    deletes every fourth part file (in name order) to simulate a kill;
    the timed section resumes."""

    name = "webtable_resume"

    def __init__(self, work: str, seed: int, ray_dir: str = "") -> None:
        super().__init__(work, seed, ray_dir)
        self.full = os.path.join(work, "full")
        self.kept: dict[int, int] = {}

    def setup(self, trace_dir: str | None = None) -> None:
        start_ray(self.ray_dir, trace_dir)
        self._make_input()
        shutil.rmtree(self.full, ignore_errors=True)
        self._write(self.full, resume=False)

    def prepare(self, i: int) -> None:
        super().prepare(i)
        shutil.copytree(self.full, self.out)
        parts = self._parts(self.out)
        for p in parts[::4]:
            os.remove(p)
        self.kept[i] = len(parts) - len(parts[::4])

    def run(self) -> dict:
        return self._write(self.out, resume=True)

    def check(self, i: int, result: dict) -> int:
        _require(result["skipped_parts"] == self.kept[i],
                 f"resume skipped {result['skipped_parts']} parts, "
                 f"{self.kept[i]} were intact")
        return super().check(i, result)


def _pop_size(path: str) -> int:
    size = os.path.getsize(path)
    os.remove(path)
    return size


class _LocalFile(Workload):
    """One table written to one file by the local ``write_table``."""

    OPTS = WriteOptions()

    def __init__(self, work: str, seed: int, ray_dir: str = "") -> None:
        super().__init__(work, seed, ray_dir)
        self.path = ""
        self.table: pa.Table | None = None

    def _make_input(self) -> pa.Table:
        raise NotImplementedError

    def _out(self, i: int) -> str:
        return os.path.join(self.work, f"out-{i}.parquet")

    def setup(self, trace_dir: str | None = None) -> None:
        _reset(self.work)
        self.table = self._make_input()
        self.raw_bytes = self.table.nbytes
        self.prepare(-1)
        self.run()

    def prepare(self, i: int) -> None:
        self.path = self._out(i)

    def run(self) -> dict:
        from hyparquet_writer_ray.local import write_table

        write_table(self.table, self.path, self.OPTS)
        return {}


class LineitemFile(_LocalFile):
    """A TPC-H-lineitem-shaped table written to one file by the local
    ``write_table`` with default options. No Ray."""

    name = "lineitem_file"
    ROWS = 1_000_000

    def _make_input(self) -> pa.Table:
        rng = np.random.default_rng(self.seed)
        n = self.ROWS
        lines = rng.integers(1, 8, n)  # lines per order; more than enough orders
        orderkey = np.repeat(np.arange(1, n + 1, dtype=np.int64), lines)[:n]
        first = np.concatenate([[0], np.cumsum(lines)])[:n]
        linenumber = (np.arange(n) - np.repeat(first, lines)[:n] + 1).astype(np.int32)
        quantity = rng.integers(1, 51, n).astype(np.float64)
        day_ms = 86_400_000
        ship = 694_224_000_000 + rng.integers(0, 2526, n) * day_ms  # from 1992-01-01
        return pa.table({
            "l_orderkey": orderkey,
            "l_partkey": rng.integers(1, 200_001, n),
            "l_suppkey": rng.integers(1, 10_001, n),
            "l_linenumber": linenumber,
            "l_quantity": quantity,
            "l_extendedprice": np.round(quantity * rng.uniform(900, 2000, n), 2),
            "l_discount": rng.integers(0, 11, n) / 100,
            "l_tax": rng.integers(0, 9, n) / 100,
            "l_returnflag": pa.array(["A", "N", "R"]).take(rng.integers(0, 3, n)),
            "l_linestatus": pa.array(["F", "O"]).take(rng.integers(0, 2, n)),
            "l_shipdate": pa.array(ship, pa.timestamp("ms")),
            "l_commitdate": pa.array(ship + rng.integers(-60, 61, n) * day_ms,
                                     pa.timestamp("ms")),
            "l_receiptdate": pa.array(ship + rng.integers(1, 31, n) * day_ms,
                                      pa.timestamp("ms")),
        })

    def check(self, i: int, result: dict) -> int:
        path = self._out(i)
        _require(pq.read_table(path).equals(self.table),
                 "decoded file differs from the input")
        return _pop_size(path)


class TextFsst(_LocalFile):
    """Web-table ``url`` + ``text`` through the local ``write_table``
    with FSST on ``text``."""

    name = "text_fsst"
    ROWS = 200_000
    OPTS = WriteOptions(column_specs={"text": ColumnSpec(fsst=True)})

    def _make_input(self) -> pa.Table:
        first = (self.seed % SEED_SPAN) * self.ROWS
        return synthesize_batch(first, self.ROWS).select(["url", "text"])

    def check(self, i: int, result: dict) -> int:
        from hyparquet_writer_ray.core.reader import read_byte_array_column

        path = self._out(i)
        urls = pq.read_table(path, columns=["url"]).column("url")
        _require(urls.equals(self.table.column("url")), "url column differs")
        with open(path, "rb") as f:
            text = read_byte_array_column(f.read(), "text")
        want = self.table.column("text").cast(pa.binary()).combine_chunks()
        _require(pa.array(text, pa.binary()).equals(want), "FSST text column differs")
        return _pop_size(path)


WORKLOADS = {w.name: w for w in (WebtableParts, WebtableResume, LineitemFile, TextFsst)}
