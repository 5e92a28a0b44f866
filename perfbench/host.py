"""Host readings taken beside every sample (the two host canaries, the
yardstick that the timings are normalised by, and the peak resident
memory of this process plus its Ray worker processes), and the
bookkeeping that makes sure every process Ray started has ended."""
from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np

PAGE = os.sysconf("SC_PAGE_SIZE")


class Canary:
    """The two single-core readings ``bench.py`` takes: the time to
    allocate 20M int64 (calm about 30 ms; hypervisor page-zeroing
    contention reads seconds) and FSST encode MB/s on 4 MB of web text
    (CPU speed, no allocator in the loop)."""

    def __init__(self) -> None:
        from hyparquet_writer_ray.core import fsst
        from hyparquet_writer_ray.sources.webtable import synthesize_batch

        text = synthesize_batch(0, 4000).column("text").drop_null()
        data = "\n".join(text.to_pylist()).encode()
        while len(data) < 4 << 20:
            data += b"\n" + data
        self._fsst = fsst
        self._data = data
        self._table = fsst.train(data[:65536])
        fsst.compress(data[:65536], self._table)  # builds the C kernel once

    def read(self) -> dict:
        t0 = time.perf_counter()
        np.arange(20_000_000, dtype=np.int64)
        alloc_ms = (time.perf_counter() - t0) * 1000
        t0 = time.perf_counter()
        self._fsst.compress(self._data, self._table)
        enc = len(self._data) / (time.perf_counter() - t0) / 1e6
        return {"alloc_20m_ms": round(alloc_ms, 2), "fsst_enc_mb_s": round(enc, 1)}


class Yardstick:
    """A fixed bundle of single-core work that shares no code with the
    package: zlib level 1 on 3 MB of text, pyarrow's own parquet writer on
    a 100k-row table, a numpy sort of 2M doubles and a pure-Python dict
    loop, about 40 ms each on a calm host. The benchmark times it right
    before and right after every operation and divides the operation's
    wall by it, which cancels the host speed drift that the operation
    and the yardstick share. ``NOMINAL_S`` is its median on the calm
    4-vCPU host the benchmark was sized on; ``wall x NOMINAL_S /
    yardstick`` is the wall at that host's speed."""

    NOMINAL_S = 0.155

    def __init__(self) -> None:
        import pyarrow as pa

        rng = np.random.default_rng(20240611)
        letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", np.uint8)
        vocab = [bytes(rng.choice(letters, rng.integers(2, 12))) for _ in range(3000)]
        words = rng.zipf(1.3, 900_000) % len(vocab)
        self._text = b" ".join(vocab[w] for w in words)[:3 << 20]
        n = 100_000
        self._table = pa.table({
            "k": np.arange(n, dtype=np.int64),
            "v": rng.random(n),
            "s": pa.array([v.decode() for v in vocab]).take(rng.integers(0, 300, n)),
        })
        self._floats = rng.random(2_000_000)
        self.time()  # first-call imports and caches stay out of the readings

    def _run(self) -> None:
        import io
        import zlib

        import pyarrow.parquet as pq

        zlib.compress(self._text, 1)
        pq.write_table(self._table, io.BytesIO())
        np.sort(self._floats)
        d: dict[int, int] = {}
        for i in range(200_000):
            d[i & 1023] = d.get(i & 1023, 0) + i

    def time(self) -> float:
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0


def _proc_table() -> dict[int, tuple[int, bytes]]:
    """pid -> (parent pid, first cmdline word) for every visible process."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                stat = f.read()
            with open(f"/proc/{name}/cmdline", "rb") as f:
                cmd = f.read().split(b"\0", 1)[0]
        except OSError:
            continue
        # the command name in (...) may hold spaces: parse after its ')'
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        out[int(name)] = (ppid, cmd)
    return out


def descendants(prefix: bytes = b"") -> list[int]:
    """This process's descendants whose command starts with ``prefix``."""
    table = _proc_table()
    me = os.getpid()
    found = []
    for pid, (_, cmd) in table.items():
        if not cmd.startswith(prefix):
            continue
        p = pid
        while p > 1 and p in table:
            p = table[p][0]
            if p == me:
                found.append(pid)
                break
    return found


def pin_to_one_cpu(pids: list[int]) -> None:
    """Run every thread of ``pids`` on one CPU, the highest this process
    may use; threads and processes they start later inherit it. Timed
    operations then run as on a one-core host: the benchmark process, the
    yardstick and each Ray process share that core, and no hand-off
    between them can wait for another vCPU that the hypervisor has
    descheduled. Without the pinning, the Ray workloads slowed about 1.5
    times as much as the yardstick whenever the shared host got busy."""
    cpu = {max(os.sched_getaffinity(0))}
    for pid in pids:
        try:
            tids = [int(t) for t in os.listdir(f"/proc/{pid}/task")]
        except OSError:
            continue  # the process has exited
        for tid in tids:
            try:
                os.sched_setaffinity(tid, cpu)
            except OSError:
                pass  # the thread has exited


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2:stat.rindex(b")") + 3] != b"Z"


def wait_ended(pids: list[int], timeout: float = 30.0) -> None:
    """Wait until every pid has ended; SIGKILL what is left at the
    timeout. Ray's workers are reparented when their raylet exits, so
    they are waited for by pid, not as children."""
    for sig in (None, signal.SIGKILL):
        if sig is not None:
            for pid in pids:
                try:
                    os.kill(pid, sig)
                except OSError:
                    pass
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            pids = [p for p in pids if _alive(p)]
            if not pids:
                return
            time.sleep(0.05)


def _rss(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", "rb") as f:
            return int(f.read().split()[1]) * PAGE
    except (OSError, IndexError, ValueError):
        return 0  # the process has exited


class RssSampler:
    """Samples the summed RSS of this process and (with ``ray=True``) its
    Ray workers every ``interval`` seconds on a background thread and
    keeps the peak. The worker set is listed again every 25 samples."""

    def __init__(self, ray: bool, interval: float = 0.01) -> None:
        self.ray = ray
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "RssSampler":
        def pids() -> list[int]:
            return [os.getpid()] + (descendants(b"ray::") if self.ray else [])

        self._stop.clear()
        self.peak = sum(_rss(p) for p in pids())

        def loop() -> None:
            watched, n = pids(), 0
            while not self._stop.wait(self.interval):
                n += 1
                if n % 25 == 0:  # a worker Ray starts mid-sample counts too
                    watched = pids()
                self.peak = max(self.peak, sum(_rss(p) for p in watched))

        self._thread = threading.Thread(target=loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
