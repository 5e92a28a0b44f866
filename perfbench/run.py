#!/usr/bin/env python3
"""Encode benchmark for hyparquet_writer_ray.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all      # every workload, as a table

Run it from the repository root. Workloads, metrics and bounds are
declared in ``BENCHMARK.json``; this script reports exactly the metrics
listed there. One client (this process) runs one operation at a time.

``--trace 0`` sets up ``setup_reps`` times (Ray start, input generation,
warm-up) and reports the median, then times the operation repeatedly for
``--seconds`` and reports the end-to-end metrics. The timed operations
run pinned to one CPU, and every time reported is normalised by the
yardstick in ``perfbench/host.py``, a fixed bundle of work timed beside
each operation, to the speed of the host the benchmark was sized on. ``--trace 1`` times the operation untraced
for half the time, then restarts with span wrappers installed in the
benchmark process and every Ray worker, and reports the per-layer metrics.

Every sample is decoded and compared with its input outside the timed
section. Inputs, outputs and Ray's session files live under ``.pbwork/``;
the last stdout line is the JSON result, the line before it the full
report with every sample and its host canary reading.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".pbwork")
MIN_SAMPLES = 3


def _metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(wl, seconds: float, host, after_run=None) -> list[dict]:
    """Time one call of ``wl.run`` per sample until ``seconds`` have
    passed and at least ``MIN_SAMPLES`` samples exist, then check every
    sample's output. The calls run pinned to one CPU; the yardstick is
    timed right before and right after each call, and ``norm_wall_s`` is
    the call's wall at the yardstick's nominal host speed."""
    from perfbench.host import RssSampler, Yardstick, descendants, pin_to_one_cpu

    canary, yard = host
    allowed = os.sched_getaffinity(0)
    pin_to_one_cpu([os.getpid()] + descendants())
    samples = []
    t_end = time.perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or time.perf_counter() < t_end:
        i = len(samples)
        s = {"host": canary.read(), "result": None, "error": None}
        wl.prepare(i)
        gc.collect()  # no collection left over from the previous sample
        before = yard.time()
        with RssSampler(wl.uses_ray) as rss:
            t0 = time.perf_counter_ns()
            try:
                s["result"] = wl.run()
            except Exception:  # a failed operation is a failed sample
                s["error"] = traceback.format_exc()
            t1 = time.perf_counter_ns()
        ref = (before + yard.time()) / 2
        wall = (t1 - t0) / 1e9
        s.update(window=[t0, t1], wall_s=wall, yardstick_s=ref,
                 norm_wall_s=wall * Yardstick.NOMINAL_S / ref,
                 peak_rss_mb=rss.peak / 1e6)
        if after_run is not None:
            s.update(after_run())
        samples.append(s)
    os.sched_setaffinity(0, allowed)  # the next set-up runs unpinned
    for i, s in enumerate(samples):
        if s["error"] is None:
            try:
                s["out_bytes"] = wl.check(i, s["result"])
            except Exception:  # includes OutputMismatch
                s["error"] = traceback.format_exc()
    return samples


def _ok(samples: list[dict]) -> list[dict]:
    """The samples whose output checked out; all of them when none did,
    so that a broken program still gets a result reading correct: false."""
    return [s for s in samples if s["error"] is None] or samples


def _median(xs) -> float:
    return statistics.median(list(xs))


def end_to_end(wl, args, host) -> tuple[dict, list[dict], dict]:
    """The end-to-end metrics. ``setup_s`` is the median set-up wall,
    normalised by the median of every yardstick reading of the run."""
    from perfbench.host import Yardstick

    setups = []
    try:
        for _ in range(wl.setup_reps):
            if setups:
                wl.teardown()
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        samples = measure(wl, args.seconds, host)
    finally:
        wl.teardown()
    ok = _ok(samples)
    wall = _median(s["norm_wall_s"] for s in ok)
    yard = _median(s["yardstick_s"] for s in samples)
    metrics = {
        "raw_mb_s": wl.raw_bytes / wall / 1e6,
        "wall_s": wall,
        "out_bytes_per_raw_byte": ok[-1].get("out_bytes", 0) / wl.raw_bytes,
        "peak_rss_mb": _median(s["peak_rss_mb"] for s in ok),
        "setup_s": _median(setups) * Yardstick.NOMINAL_S / yard,
    }
    extra = {"measured_setup_s": setups, "measured_wall_s": _median(s["wall_s"] for s in ok),
             "yardstick_s": yard}
    return metrics, samples, extra


def _ray_stats(ds) -> dict:
    """Task and UDF seconds of every operator that produced ``ds``."""
    read = udf = 0.0
    tasks = 0
    todo = [ds._get_stats_summary()]
    while todo:
        summ = todo.pop()
        todo.extend(summ.parents)
        for op in summ.operators_stats:
            wall = (op.wall_time or {}).get("sum", 0.0)
            u = (op.udf_time or {}).get("sum", 0.0)
            udf += u
            read += wall - u
            tasks += (op.task_rows or {}).get("count", 0)
    return {"read_s": read, "map_s": udf, "tasks": tasks}


def per_layer(wl, args, host) -> tuple[dict, list[dict], dict]:
    from perfbench import spans

    half = args.seconds / 2
    try:
        wl.setup()
        untraced = measure(wl, half, host)
    finally:
        wl.teardown()

    trace_dir = os.path.join(WORK, "trace-" + wl.name)
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    after_run = None
    if wl.uses_ray:
        import hyparquet_writer_ray.pipelines.write as write

        drained = []
        drain = write._drain_manifests

        def capture(manifest_ds, *a, **kw):
            drained.append(manifest_ds)
            return drain(manifest_ds, *a, **kw)

        def after_run():
            return {"ray_data": _ray_stats(drained[-1])} if drained else {}

    rec = spans.Recorder()
    try:
        wl.setup(trace_dir=trace_dir if wl.uses_ray else None)
        spans.install(rec)
        if wl.uses_ray:
            write._drain_manifests = capture
        traced = measure(wl, half, host, after_run=after_run)
    finally:
        spans.uninstall()
        if wl.uses_ray:
            write._drain_manifests = drain
        wl.teardown()
    rec.flush(os.path.join(trace_dir, "spans-main.jsonl"))

    by_proc = spans.load(trace_dir)
    layers = [_layer_metrics(s, by_proc, wl.uses_ray) for s in _ok(traced)]
    first_counts = layers[0]["counts"]
    metrics = {k: _median(l["times"][k] for l in layers) for k in layers[0]["times"]}
    metrics.update(first_counts)
    u_wall = _median(s["norm_wall_s"] for s in _ok(untraced))
    t_wall = _median(s["norm_wall_s"] for s in _ok(traced))
    metrics.update({
        "trace.untraced_wall_s": u_wall,
        "trace.traced_wall_s": t_wall,
        "trace.overhead_s": t_wall - u_wall,
        "trace.counts_repeat": float(all(l["counts"] == first_counts for l in layers)),
        "host.alloc_20m_ms": _median(s["host"]["alloc_20m_ms"] for s in untraced + traced),
        "host.fsst_enc_mb_s": _median(s["host"]["fsst_enc_mb_s"] for s in untraced + traced),
        "host.yardstick_s": _median(s["yardstick_s"] for s in untraced + traced),
    })
    for s, l in zip(_ok(traced), layers):
        s["layers"] = l
    return metrics, untraced + traced, {"untraced_samples": len(untraced)}


def _layer_metrics(sample: dict, by_proc: dict, uses_ray: bool) -> dict:
    """Per-layer times (self seconds) and counts for one traced sample."""
    from perfbench import spans

    self_s, counts, per_proc = spans.layer_totals(by_proc, *sample["window"])

    def t(name):
        return self_s.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    chunk = "core.chunk.encode_chunk."
    times = {
        "pipelines.write.part_writer_self_s": t("pipelines.write.part_writer"),
        "stages.encode.content_part_id_s": t("stages.encode.content_part_id"),
        "stages.encode.split_row_groups_s": t("stages.encode.split_row_groups"),
        "core.schema.normalize_table_s": t("core.schema.normalize_table"),
        "core.rowgroup.encode_row_group_s": t("core.rowgroup.encode_row_group"),
        "core.compress.compress_s": t("core.compress.compress"),
        "core.delta.delta_s": t("core.delta.delta"),
        "core.rle.encode_rle_hybrid_s": t("core.rle.encode_rle_hybrid"),
        "core.statistics.compute_statistics_s": t("core.statistics.compute_statistics"),
        "core.fsst.train_s": t("core.fsst.train"),
        "core.fsst.compress_s": t("core.fsst.compress"),
        "core.assemble.append_group_s": t("core.assemble.append_group"),
        "core.assemble.finish_s": t("core.assemble.finish"),
        "state.lineage.write_part_record_s": t("state.lineage.write_part_record"),
        "state.lineage.completed_parts_s": t("state.lineage.completed_parts"),
    }
    for name, v in self_s.items():
        if name.startswith(chunk):
            times["core.chunk.encode_chunk_s." + name[len(chunk):]] = v
    trials = sum(v for k, v in counts.items() if k.startswith(chunk) and k.endswith(".dict_trials"))
    accepted = sum(v for k, v in counts.items() if k.startswith(chunk) and k.endswith(".dict_accepted"))
    result = sample["result"] or {}
    parts = result.get("parts", 0)
    counts_out = {
        "pipelines.write.parts": parts,
        "pipelines.write.skipped_parts": result.get("skipped_parts", 0),
        "pipelines.write.skip_ratio": result.get("skipped_parts", 0) / parts if parts else 0.0,
        "stages.encode.hashed_mb": c("stages.encode.content_part_id.bytes") / 1e6,
        "stages.encode.row_groups": c("stages.encode.content_part_id.calls"),
        "core.chunk.pages": sum(v for k, v in counts.items()
                                if k.startswith(chunk) and k.endswith(".pages")),
        "core.chunk.dict_accepted_ratio": accepted / trials if trials else 0.0,
        "core.compress.in_mb": c("core.compress.compress.in") / 1e6,
        "core.compress.out_mb": c("core.compress.compress.out") / 1e6,
        "core.rle.calls": c("core.rle.encode_rle_hybrid.calls"),
        "core.statistics.calls": c("core.statistics.compute_statistics.calls"),
        "core.fsst.in_mb": c("core.fsst.compress.in") / 1e6,
        "core.fsst.out_mb": c("core.fsst.compress.out") / 1e6,
        "state.fsio.exists_calls": c("state.fsio.exists.calls"),
    }
    if uses_ray:
        rd = sample.get("ray_data", {"read_s": 0.0, "map_s": 0.0, "tasks": 0})
        worker_self = sum(v for p, v in per_proc.items() if p != "spans-main.jsonl")
        task_s = rd["read_s"] + rd["map_s"]
        times.update({
            "ray_data.read_s": rd["read_s"],
            "ray_data.map_s": rd["map_s"],
            "ray_data.idle_s": sample["wall_s"] - task_s,
            "trace.coverage": worker_self / rd["map_s"] if rd["map_s"] else 0.0,
        })
        counts_out["ray_data.tasks"] = rd["tasks"]
    else:
        times.update({"ray_data.read_s": 0.0, "ray_data.map_s": 0.0,
                      "ray_data.idle_s": 0.0,
                      "trace.coverage": sum(self_s.values()) / sample["wall_s"]})
        counts_out["ray_data.tasks"] = 0
    return {"times": times, "counts": counts_out}


def _emit(spec: dict, trace: bool, metrics: dict) -> dict:
    """The metrics BENCHMARK.json declares for this mode, with units.
    A per-column chunk metric of a column this workload lacks reads 0."""
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        v = metrics.get(m["name"])
        if v is None:
            if not m["name"].startswith("core.chunk.encode_chunk_s."):
                raise KeyError(f"benchmark did not produce metric {m['name']}")
            v = 0.0
        out[m["name"]] = {"value": v, "unit": m["unit"]}
    return out


def run_one(args) -> None:
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    # the package builds its FSST kernel under the temp dir; keep it here
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    if sys.path and os.path.abspath(sys.path[0]) == os.path.dirname(os.path.abspath(__file__)):
        sys.path.pop(0)
    sys.path.insert(0, ROOT)
    import hyparquet_writer_ray  # noqa: F401  (fails here without the package)

    from perfbench.host import Canary, Yardstick
    from perfbench.workloads import WORKLOADS

    spec = _metric_specs()
    work = os.path.join(WORK, args.workload)
    ray_dir = os.path.join(WORK, "ray")
    shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(ray_dir, ignore_errors=True)
    wl = WORKLOADS[args.workload](work, args.seed, ray_dir)
    host = (Canary(), Yardstick())
    try:
        metrics, samples, extra = (per_layer if args.trace else end_to_end)(wl, args, host)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_dir, ignore_errors=True)
    failed = sum(s["error"] is not None for s in samples)
    if failed:
        print(next(s["error"] for s in samples if s["error"]), file=sys.stderr)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "raw_bytes": wl.raw_bytes, "samples": len(samples),
        "failed_ops_ratio": failed / len(samples), **extra,
        "per_sample": [{k: v for k, v in s.items() if k != "window"} for s in samples],
    }
    with open(os.path.join(WORK, f"report-{args.workload}-trace{args.trace}.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": _emit(spec, bool(args.trace), metrics),
    }))


def run_all(args) -> None:
    """Every workload in its own process; prints one table."""
    names = [w["name"] for w in _metric_specs()["workloads"]]
    print(f"{'workload':16} {'metric':24} {'value':>14}  unit")
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:16} FAILED (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            continue
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows += [("failed_ops_ratio", report["failed_ops_ratio"], "ratio"),
                 ("samples", report["samples"], "count")]
        for k, v, unit in rows:
            print(f"{name:16} {k:24} {v:14.6g}  {unit}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
