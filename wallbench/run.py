"""Wall-clock benchmark of the threaded CRFS mount and the simulator.

Run from the repository root::

    python3 wallbench/run.py --workload blcr_dump --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: each workload's
goodput over the same work done natively at the same moment
(``vs_native``), set-up time and peak memory; absolute goodput and
latencies are printed as advisory.  ``--trace 1`` runs a window paired
with native work, an untraced and a traced window (spans around every
layer's public entry points), and reports the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable table and the machine fingerprint.  Results and spans are
also written under ``.wallbench/``.  The exit code is 0 only when every
output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from typing import Any

#: (name, unit, better) of every end-to-end metric.  ``vs_native`` is
#: the workload's goodput over the same work done natively at the same
#: moment, which cancels the machine's speed drift; the absolute
#: figures in ADVISORY drift with the machine (±15% over tens of
#: seconds on the 2-core box this was built on), so they are printed,
#: and kept in the result file, but not gated.
END_TO_END = [
    ("vs_native", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]
ADVISORY = [
    ("goodput_mib_s", "MiB/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("job_p50_ms", "ms"),
]

#: (name, unit, better) of every per-layer metric.  "/op" normalizes by the
#: workload's unit operations in the traced window; 0 means the
#: workload does not exercise that layer.
PER_LAYER = [
    ("mount.write_self_us_p50", "us", "lower"),
    ("pipeline.emit_calls_per_write", "count", "lower"),
    ("pipeline.emit_us_per_write", "us", "lower"),
    ("pool.acquire_calls_per_op", "count/op", "lower"),
    ("pool.acquire_wait_us_per_op", "us/op", "lower"),
    ("pool.acquire_wait_p99_us", "us", "lower"),
    ("queue.put_wait_us_per_op", "us/op", "lower"),
    ("queue.get_idle_frac", "fraction", "lower"),
    ("queue.max_depth", "count", "lower"),
    ("iopool.busy_frac", "fraction", "higher"),
    ("backend.pwrite_calls_per_op", "count/op", "lower"),
    ("backend.pwrite_bytes_per_call", "B", "higher"),
    ("backend.pwrite_us_p50", "us", "lower"),
    ("drain.close_p50_ms", "ms", "lower"),
    ("mem.copy_ratio", "ratio", "lower"),
    ("backend.fsync_calls_per_op", "count/op", "lower"),
    ("backend.fsync_ms_per_op", "ms/op", "lower"),
    ("delta.extents_ms_p50", "ms", "lower"),
    ("delta.fsync_drain_ms_p50", "ms", "lower"),
    ("delta.manifest_commit_ms_p50", "ms", "lower"),
    ("delta.manifest_load_ms_p50", "ms", "lower"),
    ("delta.reassembly_reads", "count/restore", "lower"),
    ("delta.stored_bytes_per_user_byte", "ratio", "lower"),
    ("readcache.read_us_p50", "us", "lower"),
    ("readcache.read_us_p99", "us", "lower"),
    ("readcache.hit_ratio", "ratio", "higher"),
    ("readcache.prefetch_useful_ratio", "ratio", "higher"),
    ("readcache.demand_fetch_us_per_op", "us/op", "lower"),
    ("backend.pread_into_calls_per_op", "count/op", "lower"),
    ("backend.pread_into_us_p50", "us", "lower"),
    ("sim.events", "count/run", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("floor.native_write_mib_s", "MiB/s", "higher"),
    ("ratio.dump_vs_native", "ratio", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
]

#: What each end-to-end and advisory metric means on each workload.
MEANING = {
    "blcr_dump": {
        "vs_native": "vs os.pwrite of the same write stream (ratio.dump_vs_native)",
        "goodput_mib_s": "ckpt_goodput_mib_s: image bytes / first write..last close",
        "op_p50_us": "write_p50_us: one write()",
        "op_p99_us": "write_p99_us",
        "job_p50_ms": "one rank's image dump, open..close",
    },
    "llm_delta": {
        "vs_native": "vs os.pwrite of the same extents",
        "goodput_mib_s": "logical checkpoint bytes / delta_checkpoint stall",
        "op_p50_us": "delta_commit_p50: one delta_checkpoint",
        "op_p99_us": "delta_commit_p99",
        "job_p50_ms": "delta_restore_ms: one chain restore",
    },
    "sim_testbed": {
        "vs_native": "vs the same job simulated without CRFS, concurrently",
        "goodput_mib_s": "simulated checkpoint bytes / CPU second",
        "op_p50_us": "sim_wall_s as CPU time: one CheckpointCoordinator run",
        "op_p99_us": "the slowest run (a window holds only a few)",
        "job_p50_ms": "sim_wall_s as CPU time",
    },
}

OUT_DIR = ".wallbench"
#: Untraced windows per run; set-up is repeated per window and its
#: median reported.  The simulator's set-up is one reference run.
ROUNDS = 3


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(path: str) -> dict[str, Any]:
    """nproc, Python version and the filesystem holding ``path``."""
    real = os.path.realpath(path)
    fstype, best = "unknown", ""
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                point = fields[1]
                inside = real == point or real.startswith(point.rstrip("/") + "/")
                if inside and len(point) >= len(best):
                    best, fstype = point, fields[2]
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "fs": fstype}


# -- the two kinds of run ------------------------------------------------------


def measure(loads: Any, name: str, seed: int, seconds: float, scale: Any,
            workdir: str) -> tuple[Any, dict[str, float], dict[str, float]]:
    """End-to-end run: ROUNDS x (set-up + warm-up, measured window)."""
    tally = loads.Tally()
    setups = []
    rounds = 1 if name == "sim_testbed" else ROUNDS
    for _ in range(rounds):
        t0 = time.perf_counter()
        wl = loads.WORKLOADS[name](seed, scale, workdir)
        try:
            tally.merge(set_up(wl, loads))
            setups.append(time.perf_counter() - t0)
            tally.merge(wl.run(time.perf_counter() + seconds / rounds, paired=True))
        finally:
            wl.close()
    metrics = {
        "vs_native": median(tally.vs_native),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss_mib(),
    }
    advisory = {
        "goodput_mib_s": median(tally.rates),
        "op_p50_us": pct(tally.ops, 50) * 1e6,
        "op_p99_us": pct(tally.ops, 99) * 1e6,
        "job_p50_ms": pct(tally.jobs, 50) * 1e3,
    }
    return tally, metrics, advisory


def set_up(wl: Any, loads: Any) -> Any:
    """Build inputs, stage, mount and warm up; returns the warm-up's
    tally (its checks count, its timings do not)."""
    warm = loads.Tally()
    wl.setup()
    wl.warm_up(warm)
    return loads.Tally(attempted=warm.attempted, failed=warm.failed, errors=warm.errors)


def traced(loads: Any, tracing: Any, name: str, seed: int, seconds: float,
           scale: Any, workdir: str) -> tuple[Any, dict[str, float], Any]:
    """Per-layer run: an untraced window paired with native work (the
    floors), an untraced and a traced window (the tracing overhead)."""
    tally = loads.Tally()
    wl = loads.WORKLOADS[name](seed, scale, workdir)
    tracer = tracing.Tracer()
    try:
        tally.merge(set_up(wl, loads))
        paired = wl.run(time.perf_counter() + seconds / 3, paired=True)
        plain = wl.run(time.perf_counter() + seconds / 3)
        wl.unmount()
        tracer.instrument_classes()
        try:
            t_mount = time.perf_counter()
            wl.mount(tracer)
            spanned = wl.run(time.perf_counter() + seconds / 3, tracer)
            stats = wl.fs.stats() if getattr(wl, "fs", None) is not None else {}
            backend = getattr(wl, "backend", None)
            wl.unmount()
            window = time.perf_counter() - t_mount
        finally:
            tracer.uninstall()
    finally:
        wl.close()
    for part in (paired, plain, spanned):
        tally.merge(part)
    metrics = layer_metrics(
        tracer, backend, stats, spanned, plain, window,
        io_threads=getattr(wl, "config", None) and wl.config.io_threads,
    )
    if name == "blcr_dump":
        metrics["floor.native_write_mib_s"] = median(paired.floor)
        metrics["ratio.dump_vs_native"] = median(paired.vs_native)
    return tally, metrics, tracer


def layer_metrics(tracer: Any, backend: Any, stats: dict, spanned: Any, plain: Any,
                  window: float, io_threads: int | None) -> dict[str, float]:
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    by_name: dict[str, list[tuple]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for span in tracer.spans:
        by_name[span[1]].append(span)
        if span[4]:
            child_time[span[4]] += span[3] - span[2]

    def durs(*names: str) -> list[float]:
        return [s[3] - s[2] for n in names for s in by_name[n]]

    ops = max(1, len(spanned.ops))

    writes = by_name["op.write"] + by_name["file.pwrite"]
    write_ids = {s[0] for s in writes}
    if writes:
        m["mount.write_self_us_p50"] = pct(
            [s[3] - s[2] - child_time[s[0]] for s in writes], 50) * 1e6
        emits = [s[3] - s[2] for s in by_name["kernel.emit"] if s[4] in write_ids]
        m["pipeline.emit_calls_per_write"] = len(emits) / len(writes)
        m["pipeline.emit_us_per_write"] = sum(emits) / len(writes) * 1e6

    acquires = durs("pool.acquire")
    m["pool.acquire_calls_per_op"] = len(acquires) / ops
    m["pool.acquire_wait_us_per_op"] = sum(acquires) / ops * 1e6
    m["pool.acquire_wait_p99_us"] = pct(acquires, 99) * 1e6
    m["queue.put_wait_us_per_op"] = sum(durs("queue.put")) / ops * 1e6
    gets = by_name["queue.get"] + by_name["queue.get_batch"]
    if io_threads and gets:
        capacity = io_threads * window
        m["queue.get_idle_frac"] = sum(s[3] - s[2] for s in gets) / capacity
        workers = {s[6] for s in gets}
        busy = sum(s[3] - s[2] for n, spans in by_name.items() if n.startswith("backend.")
                   for s in spans if s[6] in workers)
        m["iopool.busy_frac"] = busy / capacity
    pwrites = durs("backend.pwrite", "backend.pwritev")
    m["backend.pwrite_calls_per_op"] = len(pwrites) / ops
    if pwrites:
        m["backend.pwrite_bytes_per_call"] = statistics.fmean(backend.write_sizes)
        m["backend.pwrite_us_p50"] = pct(pwrites, 50) * 1e6
    m["drain.close_p50_ms"] = pct(durs("file.close"), 50) * 1e3
    fsyncs = durs("backend.fsync")
    m["backend.fsync_calls_per_op"] = len(fsyncs) / ops
    m["backend.fsync_ms_per_op"] = sum(fsyncs) / ops * 1e3

    commits = {s[0] for s in by_name["op.delta_checkpoint"]}
    if commits:
        extents: dict[int, float] = defaultdict(float)
        for s in by_name["file.pwrite"]:
            if s[5] in commits:
                extents[s[5]] += s[3] - s[2]
        m["delta.extents_ms_p50"] = pct(list(extents.values()), 50) * 1e3
        m["delta.fsync_drain_ms_p50"] = pct(
            [s[3] - s[2] for s in by_name["file.fsync"] if s[5] in commits], 50) * 1e3
    m["delta.manifest_commit_ms_p50"] = pct(durs("delta.manifest_commit"), 50) * 1e3
    m["delta.manifest_load_ms_p50"] = pct(durs("delta.manifest_load"), 50) * 1e3

    reads = by_name["readcache.read"]
    m["readcache.read_us_p50"] = pct(durs("readcache.read"), 50) * 1e6
    m["readcache.read_us_p99"] = pct(durs("readcache.read"), 99) * 1e6
    read_ids = {s[0] for s in reads}
    m["readcache.demand_fetch_us_per_op"] = sum(
        s[3] - s[2] for n in ("backend.pread_into", "backend.pread")
        for s in by_name[n] if s[4] in read_ids) / ops * 1e6
    pread_into = durs("backend.pread_into")
    m["backend.pread_into_calls_per_op"] = len(pread_into) / ops
    m["backend.pread_into_us_p50"] = pct(pread_into, 50) * 1e6

    if stats:
        if stats["bytes_in"]:
            m["mem.copy_ratio"] = stats["mem"]["bytes_copied"] / stats["bytes_in"]
        m["queue.max_depth"] = stats["queue"]["max_depth"]
        delta = stats["delta"]
        if delta["restores"]:
            m["delta.reassembly_reads"] = delta["reassembly_reads"] / delta["restores"]
        if delta["logical_bytes"]:
            m["delta.stored_bytes_per_user_byte"] = (
                delta["bytes_written"] + delta["manifest_bytes"]) / delta["logical_bytes"]
        read = stats["read"]
        if read["hits"] + read["misses"]:
            m["readcache.hit_ratio"] = read["hits"] / (read["hits"] + read["misses"])
        issued = read["prefetched"] + read["prefetch_dropped"]
        if issued:
            m["readcache.prefetch_useful_ratio"] = (
                read["prefetched"] - read["prefetch_wasted"]) / issued

    if tracer.sim_events and spanned.jobs:
        per_run = tracer.sim_events / len(spanned.jobs)
        m["sim.events"] = per_run
        m["sim.events_per_s"] = per_run / statistics.median(plain.jobs)
    if plain.rates and spanned.rates:
        base = statistics.median(plain.rates)
        m["trace.overhead_frac"] = (base - statistics.median(spanned.rates)) / base
    return m


# -- entry point -----------------------------------------------------------------


class MissingProgram(RuntimeError):
    """The working directory holds no program to measure."""


def load_modules() -> tuple[Any, Any]:
    """Import the program from ``src/`` of the working directory (the
    repository checkout) and the benchmark's own modules."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise MissingProgram(
            f"no src/repro under {os.getcwd()}: run from the repository root")
    if src not in sys.path:
        sys.path.insert(0, src)
    here = os.path.dirname(os.path.abspath(__file__))
    if here not in sys.path:
        sys.path.insert(0, here)
    import loads
    import tracing

    return loads, tracing


def run(name: str, seed: int, seconds: float, trace: bool, scale: Any = None) -> dict[str, Any]:
    """One benchmark run; returns the result object (printed last)."""
    loads, tracing = load_modules()
    scale = scale or loads.FULL
    workdir = os.path.join(OUT_DIR, "work")
    os.makedirs(workdir, exist_ok=True)
    started = time.perf_counter()
    advisory: dict[str, float] = {}
    if trace:
        tally, metrics, tracer = traced(loads, tracing, name, seed, seconds, scale, workdir)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        tally, metrics, advisory = measure(loads, name, seed, seconds, scale, workdir)
        tracer = None
        units = {n: u for n, u, _ in END_TO_END}
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "elapsed_s": time.perf_counter() - started,
        "fingerprint": fingerprint(workdir),
        "samples": {"ops": len(tally.ops), "jobs": len(tally.jobs), "epochs": len(tally.rates)},
        "advisory": {k: {"value": advisory[k], "unit": u} for k, u in ADVISORY if k in advisory},
        "errors": tally.errors,
    }
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as out:
        json.dump({**info, **result}, out, indent=1)
    if tracer is not None:
        tracer.dump(stem + ".spans.jsonl")
    report(info, result)
    return result


def report(info: dict[str, Any], result: dict[str, Any]) -> None:
    fp = info["fingerprint"]
    print(f"wallbench {info['workload']} seed={info['seed']} trace={info['trace']} "
          f"nproc={fp['nproc']} python={fp['python']} fs={fp['fs']} "
          f"samples={info['samples']}")
    meaning = MEANING[info["workload"]]
    for key, metric in result["metrics"].items():
        print(f"  {key:36s} {metric['value']:14.4f} {metric['unit']:13s} {meaning.get(key, '')}")
    for key, metric in info["advisory"].items():
        print(f"  {key:36s} {metric['value']:14.4f} {metric['unit']:13s} "
              f"(advisory) {meaning[key]}")
    error_rate = result["failed"] / max(1, result["attempted"])
    print(f"  error_rate {error_rate:.6f} ({result['failed']} of {result['attempted']} ops)")
    for err in info["errors"]:
        print(f"  FAILED: {err}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(MEANING))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"wallbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
