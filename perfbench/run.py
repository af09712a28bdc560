"""Repository benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload sim-fluid-32x10k --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end metrics.
``--trace 1`` first times half the work untraced, then the other half with
layer spans recorded, and prints the per-layer metrics.  Timed operations
run in blocks between host-speed probes and are scaled to the reference
host's speed (``perfbench/hostspeed.py``).  Each metric goes to standard
output as ``name value unit``; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The process exits
1 when a correctness check failed or an event was lost, and 2 when the
program under test is missing.  The kernel backend is requested the
repository's usual way, through ``REPRO_KERNEL_BACKEND`` (default
``numpy``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

#: Set-ups per run; ``setup_s`` is their median and the last one is measured.
SETUP_REPEATS = 3

#: Kernels whose spans become ``core.kernels.<kernel>.{calls,ms}``.
MS_KERNELS = ("rank_day", "promotion_merge", "day_tail")
#: Kernels whose spans become ``core.kernels.<kernel>.{calls,busy_s}``.
BUSY_KERNELS = ("feedback_flush", "lane_repair")
ROUTES = ("full", "run_merge", "windowed", "copy")


def quantile(samples, q: float) -> float:
    """Linear-interpolated quantile of ``samples``."""
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def resolve_backend():
    """Requested vs resolved kernel backend; a fallback is flagged."""
    from repro.core.kernels import ENV_VAR, get_backend

    requested = os.environ.get(ENV_VAR, "").strip().lower() or "numpy"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        resolved = get_backend().name
    return requested, resolved


def fingerprint(args, workload) -> dict:
    import numpy

    requested, resolved = resolve_backend()
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend_requested": requested,
        "backend": resolved,
        "backend_mismatch": requested != resolved,
        "serve_rate_qps": getattr(workload, "rate", None),
    }
    if stamp["backend_mismatch"]:
        print(
            "warning: backend %r was requested but %r ran; figures are %r figures"
            % (requested, resolved, resolved),
            file=sys.stderr,
        )
    return stamp


def layer_metrics(tracer, plain, traced, routes, workload) -> dict:
    """Per-layer values of one traced run (name -> value)."""
    spans = tracer.summary()

    def span(name):
        return spans.get(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})

    metrics = {}
    for kernel in MS_KERNELS:
        row = span("core.kernels." + kernel)
        metrics["core.kernels.%s.calls" % kernel] = row["calls"]
        metrics["core.kernels.%s.ms" % kernel] = row["seconds"] * 1e3
    for kernel in BUSY_KERNELS:
        row = span("core.kernels." + kernel)
        metrics["core.kernels.%s.calls" % kernel] = row["calls"]
        metrics["core.kernels.%s.busy_s" % kernel] = row["seconds"]
    metrics["core.rankers.rank_batch.self_ms"] = (
        span("core.rankers.rank_batch")["self_seconds"] * 1e3
    )
    metrics["community.lifecycle.step_batch.ms"] = (
        span("community.lifecycle.step_batch")["seconds"] * 1e3
    )
    metrics["simulation.batch.step.self_ms"] = (
        span("simulation.batch.step")["self_seconds"] * 1e3
    )
    metrics["serving.router.serve.busy_s"] = span("serving.router.serve")["seconds"]
    for name in ("hits", "misses", "stale_evictions"):
        key = "serving.cache." + name
        metrics[key] = traced.counters.get(key, 0.0)
    lookups = metrics["serving.cache.hits"] + metrics["serving.cache.misses"]
    metrics["serving.cache.hit_ratio"] = (
        metrics["serving.cache.hits"] / lookups if lookups else 0.0
    )
    for name in ("serving.engine.top_k", "serving.router.flush_feedback"):
        metrics[name + ".calls"] = span(name)["calls"]
        metrics[name + ".busy_s"] = span(name)["seconds"]
    for key in (
        "serving.engine.full_sorts",
        "serving.engine.repairs",
        "serving.router.flush.committed",
        "serving.router.flush.conflicts",
        "serving.router.flush.retries",
        "serving.router.flush.dead_letter_events",
    ):
        metrics[key] = traced.counters.get(key, 0.0)
    metrics["serving.sweep.run.self_s"] = span("serving.sweep.run")["self_seconds"]
    for route in ROUTES:
        metrics["core.kernels.rank_route." + route] = routes[route]
    # The load generator is judged on the untraced half, whose latencies
    # the end-to-end figures come from.  Late means sent more than one
    # nominal inter-arrival gap after the due time.
    lags = plain.lags
    if lags:
        gap = 1.0 / workload.rate
        metrics["loadgen.late_fraction"] = sum(1 for lag in lags if lag > gap) / len(lags)
        metrics["loadgen.late_ms_max"] = max(lags) * 1e3
        metrics["loadgen.due_p99_ms"] = quantile(plain.latencies, 0.99) * 1e3
    else:
        metrics["loadgen.late_fraction"] = 0.0
        metrics["loadgen.late_ms_max"] = 0.0
        metrics["loadgen.due_p99_ms"] = 0.0
    metrics["trace.unattributed_share"] = tracer.unattributed_share()
    metrics["trace.overhead_ratio"] = sum(traced.durations) / sum(plain.durations)
    return metrics


def timed(workload, state, ops, host):
    """``ops`` operations in blocks, each block scaled by the probes around it.

    A block is paced by the probe before it and its times are scaled by
    the mean of the probes before and after it.  Returns the merged,
    scaled measurement and the raw seconds the operations took.
    """
    merged = None
    raw_seconds = 0.0
    before = host.probe()
    for first in range(0, ops, workload.block):
        pace = host.factor(before, before)
        part = workload.measure(state, min(workload.block, ops - first), pace)
        after = host.probe()
        factor = host.factor(before, after)
        before = after
        raw_seconds += sum(part.durations)
        part.durations = [value * factor for value in part.durations]
        part.latencies = [value * factor for value in part.latencies]
        merged = part if merged is None else merged.extend(part)
    return merged, raw_seconds


def run_one(args) -> int:
    from repro.core.kernels import ROUTE_STATS
    from perfbench.hostspeed import HostSpeed
    from perfbench.tracing import Tracer, kernel_spans
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    stamp = fingerprint(args, workload)
    ops = workload.ops_for(args.seconds)
    host = HostSpeed()
    clock = time.perf_counter

    setups = []
    raw_setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        before = host.probe()
        started = clock()
        state = workload.setup(args.seed, ops)
        raw_setups.append(clock() - started)
        setups.append(raw_setups[-1] * host.factor(before, host.probe()))
    # Set-up objects live for the whole run; keep the collector from
    # rescanning them inside the timed region.
    gc.collect()
    gc.freeze()

    tracer = None
    if args.trace:
        half = max(1, ops // 2)
        plain, _ = timed(workload, state, half, host)
        tracer = Tracer()
        workload.instrument(state, tracer)
        routes_before = ROUTE_STATS.as_dict()
        with kernel_spans(tracer):
            measured, raw_seconds = timed(workload, state, half, host)
        routes_after = ROUTE_STATS.as_dict()
        routes = {
            route: routes_after["rank_route_" + route] - routes_before["rank_route_" + route]
            for route in ROUTES
        }
    else:
        measured, raw_seconds = timed(workload, state, ops, host)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = workload.check(state)
    if tracer is not None:
        checks.append(("no span has negative self time", tracer.negative_self_spans() == 0))
    failed_checks = [name for name, ok in checks if not ok]
    operations = len(measured.durations) + (len(plain.durations) if args.trace else 0)
    lost = measured.lost + (plain.lost if args.trace else 0)
    attempted = operations + len(checks)
    failed = len(failed_checks) + lost

    if args.trace:
        values = layer_metrics(tracer, plain, measured, routes, workload)
        values["error_rate"] = failed / attempted
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / ("spans-%s.json" % args.workload))
    else:
        values = {
            "throughput_per_s": measured.work / sum(measured.durations),
            "latency_p50_ms": statistics.median(measured.latencies) * 1e3,
            "latency_tail_ms": quantile(measured.durations, measured.tail) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
    stamp["host_scale"] = sum(measured.durations) / raw_seconds
    stamp["raw_throughput_per_s"] = measured.work / raw_seconds
    stamp["raw_setup_s"] = statistics.median(raw_setups)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    }
    if set(units) != set(values):
        raise RuntimeError(
            "BENCHMARK.json and the benchmark disagree on metrics: %s"
            % sorted(set(units) ^ set(values))
        )

    print("fingerprint " + json.dumps(stamp, sort_keys=True))
    if not args.trace:
        print(
            "samples %d timed operations; latency_tail_ms is p%g of service time"
            % (len(measured.latencies), measured.tail * 100)
        )
    for name in failed_checks:
        print("FAILED check: %s" % name)
    if lost:
        print("FAILED: %d feedback events lost" % lost)
    for name in units:
        print("%-44s %.6g %s" % (name, values[name], units[name]))
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        print("== %s" % name, flush=True)
        completed = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            check=False,
        )
        status = max(status, completed.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("error: the program under test (src/repro) is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            "unknown workload %r; expected one of %s or all"
            % (args.workload, sorted(WORKLOADS))
        )
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
