"""Command-line interface: regenerate any figure's data from the terminal.

Examples::

    python -m repro list
    python -m repro figure5 --scale fast --seed 3
    python -m repro figure7a --scale paper
    python -m repro serve-bench --pages 200000 --queries 5000 --shards 8
    python -m repro pool-bench --tenants 8 --clients 4 --workers 4
    python -m repro chaos-bench --pages 200000 --queries 2000 --fault-plan plan.json
    python -m repro sim-bench --replicates 32 --mode fluid
    python -m repro sweep-bench --grid-k 10,20 --grid-r 0.0,0.1 --grid-shards 1,2
    python -m repro sweep-fig --grid-r 0.0,0.1,0.2,0.3 --telemetry-window 256
    repro figure1

Each experiment prints the same rows/series the corresponding paper figure
reports, as an ASCII table, plus shape-check notes.  ``serve-bench`` runs
the online serving engine under a streaming query workload and reports
throughput, latency and cache effectiveness against the full-re-rank
baseline.  ``pool-bench`` runs the multi-tenant process-per-shard pool:
``--tenants`` communities behind ``--workers`` worker processes, with
``--clients`` extra OCC writer processes racing feedback commits against
the shared-memory shards.  ``sim-bench`` measures offline simulation
throughput (simulated page-days per second) for the vectorized batch
engine against the looped sequential simulator, including the bit-parity
check between the two.  ``sweep-bench`` replays one recorded query stream
against a whole grid of serving configurations (page length,
randomization, cache staleness budget, shard count) through the lockstep
sweep engine and reports its replayed-query throughput against running
the variants one at a time, including the per-variant bit-parity check.
``sweep-fig`` runs one such sweep and renders the QPC / cache-hit-rate /
staleness trade-off curves (plus, with ``--telemetry-window``, the
windowed metric series) as ASCII figures.  ``chaos-bench`` replays a
recorded query trace with the robustness layer armed under a scripted
fault plan (shard crashes and stalls, OCC write conflicts, batch drops,
cache poisoning) and reports recovery time, dead-letter counts, the
degraded-serve fraction, and the bit-identity of every crash recovery
against the fault-free reference replay.  All the benchmarks accept
``--telemetry-window`` / ``--telemetry-out`` to stream windowed telemetry
rows as JSON lines.

Each command accepts only the flags its driver reads
(``python -m repro <command> --help`` lists them); any other flag is a
usage error with exit code 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.defaults import VALID_SCALES
from repro.experiments.registry import get_experiment, list_experiments
from repro.simulation.config import VALID_MODES


def _cache_size(text: str) -> int:
    """``--cache-size`` values: result pages per shard, 0 disables caching."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            "must be >= 0 (0 disables caching), got %d" % value
        )
    return value


def _add_bench_flags(parser: argparse.ArgumentParser) -> None:
    """Flags every benchmark takes: seed, kernel backend and telemetry."""
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument(
        "--backend",
        choices=("numpy", "numba"),
        default=None,
        help="kernel backend (default: the REPRO_KERNEL_BACKEND environment "
        "variable, else numpy; requesting numba without the package "
        "installed warns once and falls back to numpy)",
    )
    parser.add_argument(
        "--telemetry-window", type=int, default=None,
        help="enable streaming telemetry with this sliding-window size "
        "(events for the serving benchmarks, days for sim-bench); default off",
    )
    parser.add_argument(
        "--telemetry-out", default=None,
        help="write windowed telemetry rows to this JSON-lines file "
        "(implies telemetry on, with the default window if "
        "--telemetry-window is not given)",
    )


def _add_workload_flags(
    parser: argparse.ArgumentParser, *, pages: int, queries: int
) -> None:
    """Community size, stream length, cache size and click rate."""
    parser.add_argument(
        "--pages", type=int, default=pages,
        help="pages per community (default %(default)s)",
    )
    parser.add_argument(
        "--queries", type=int, default=queries,
        help="queries to stream (default %(default)s)",
    )
    parser.add_argument(
        "--cache-size", type=_cache_size, default=64,
        help="result pages cached per shard; 0 disables caching",
    )
    parser.add_argument(
        "--feedback-rate", type=float, default=0.2,
        help="probability a served query feeds one visit back",
    )


def _add_shard_flags(parser: argparse.ArgumentParser) -> None:
    """Shard count and the cache's staleness budget."""
    parser.add_argument(
        "--shards", type=int, default=4, help="number of community shards"
    )
    parser.add_argument(
        "--staleness-budget", type=int, default=4,
        help="state versions a cached page may lag before invalidation",
    )


def _add_retry_flags(parser: argparse.ArgumentParser) -> None:
    """The OCC retry policy of the feedback write path."""
    parser.add_argument(
        "--max-attempts", type=int, default=4,
        help="OCC commit attempts per feedback batch before dead-lettering",
    )
    parser.add_argument(
        "--backoff-base", type=float, default=1e-4,
        help="base retry backoff in seconds (scheduled, not slept; "
        "doubling per retry up to the policy cap)",
    )


def serving_config_from_args(args: argparse.Namespace, **fields):
    """Fold the workload and shard flags into one frozen ``ServingConfig``.

    ``fields`` sets the command-specific config fields (pool shape, mode,
    retry policy).
    """
    from repro.serving.config import ServingConfig

    return ServingConfig(
        n_pages=args.pages,
        n_shards=args.shards,
        cache_capacity=args.cache_size or None,
        staleness_budget=args.staleness_budget,
        feedback_rate=args.feedback_rate,
        seed=args.seed,
        **fields,
    )


def _apply_backend(args: argparse.Namespace) -> None:
    """Pin the kernel backend requested by ``--backend`` for this process.

    The name is exported through ``REPRO_KERNEL_BACKEND`` as well so
    process-pool workers (replicate/variant sharding) resolve the same
    backend as the parent.
    """
    if args.backend is None:
        return
    import os

    from repro.core.kernels import ENV_VAR, set_backend

    os.environ[ENV_VAR] = args.backend
    set_backend(args.backend)


def _print_report(title: str, report) -> None:
    """Print a benchmark report as a sorted metric/value table."""
    from repro.utils.tables import Table

    table = Table(["metric", "value"], title=title)
    for key in sorted(report):
        table.add_row(key, report[key])
    print(table.render())


def _variant_grid(args: argparse.Namespace):
    """The sweep variants named by the ``--grid-*`` and ``--cache-size`` flags."""
    from repro.serving.sweep import parse_grid_values, variant_grid

    return variant_grid(
        ks=parse_grid_values(args.grid_k, int, name="--grid-k", minimum=1),
        rs=parse_grid_values(
            args.grid_r, float, name="--grid-r", minimum=0.0, maximum=1.0
        ),
        staleness_budgets=parse_grid_values(
            args.grid_stale, int, name="--grid-stale", minimum=0
        ),
        shard_counts=parse_grid_values(
            args.grid_shards, int, name="--grid-shards", minimum=1
        ),
        cache_capacity=args.cache_size or None,
    )


def run_figure(args: argparse.Namespace) -> None:
    """Run one paper-figure driver and print its rendered result."""
    result = get_experiment(args.command)(scale=args.scale, seed=args.seed)
    print(result.render())


def run_serve_bench(args: argparse.Namespace) -> None:
    """Run the serving benchmark and print its metrics table."""
    from repro.serving.bench import run_serving_benchmark

    _apply_backend(args)
    report = run_serving_benchmark(
        n_pages=args.pages,
        n_queries=args.queries,
        k=args.k,
        n_shards=args.shards,
        cache_capacity=args.cache_size or None,
        staleness_budget=args.staleness_budget,
        feedback_rate=args.feedback_rate,
        seed=args.seed,
        telemetry_window=args.telemetry_window,
        telemetry_out=args.telemetry_out,
    )
    _print_report(
        "serve-bench — online serving vs full re-rank (n=%d, k=%d, shards=%d)"
        % (args.pages, args.k, args.shards),
        report,
    )


def run_pool_bench(args: argparse.Namespace) -> None:
    """Run the multi-tenant process-per-shard pool benchmark."""
    from repro.serving.pool import run_pool_benchmark

    _apply_backend(args)
    config = serving_config_from_args(
        args,
        tenants=args.tenants,
        workers=args.workers,
        clients=args.clients,
        inbox_capacity=args.inbox_capacity,
        max_attempts=args.max_attempts,
        backoff_base=args.backoff_base,
    )
    recorder = None
    if args.telemetry_window is not None or args.telemetry_out is not None:
        from repro.telemetry import DEFAULT_WINDOW, TelemetryRecorder

        recorder = TelemetryRecorder(
            n_shards=config.n_shards,
            window=args.telemetry_window or DEFAULT_WINDOW,
            out=args.telemetry_out,
            label="pool",
        )
    try:
        report = run_pool_benchmark(config, n_queries=args.queries, telemetry=recorder)
    finally:
        if recorder is not None:
            recorder.close()
    _print_report(
        "pool-bench — multi-tenant pool "
        "(tenants=%d, workers=%d, clients=%d, n=%d x %d shards)"
        % (
            config.tenants,
            config.workers,
            config.clients,
            config.n_pages,
            config.n_shards,
        ),
        report,
    )


def run_chaos_bench(args: argparse.Namespace) -> None:
    """Replay a trace under a fault plan and print the recovery metrics."""
    from repro.robustness.chaos import pinned_fault_plan, run_chaos_benchmark
    from repro.robustness.faults import FaultPlan

    _apply_backend(args)
    config = serving_config_from_args(
        args,
        mode=args.mode,
        max_attempts=args.max_attempts,
        backoff_base=args.backoff_base,
    )
    if args.fault_plan is not None:
        plan = FaultPlan.load(args.fault_plan)
    else:
        plan = pinned_fault_plan(args.queries, config.n_shards, flush_every=args.flush)
    if args.save_fault_plan is not None:
        plan.save(args.save_fault_plan)
    report = run_chaos_benchmark(
        n_pages=config.n_pages,
        n_queries=args.queries,
        k=args.k,
        n_shards=config.n_shards,
        cache_capacity=config.cache_capacity,
        staleness_budget=config.staleness_budget,
        feedback_rate=config.feedback_rate,
        flush_every=args.flush,
        mode=config.mode,
        plan=plan,
        retry=config.retry_policy(),
        seed=config.seed,
        telemetry_window=args.telemetry_window,
        telemetry_out=args.telemetry_out,
    )
    _print_report(
        "chaos-bench — trace replay under faults (n=%d, q=%d, shards=%d, %s)"
        % (config.n_pages, args.queries, config.n_shards, config.mode),
        report,
    )


def run_sim_bench(args: argparse.Namespace) -> None:
    """Run the batch-engine throughput benchmark and print its metrics."""
    from repro.community.config import DEFAULT_COMMUNITY
    from repro.core.policy import RankPromotionPolicy
    from repro.simulation.bench import run_simulation_benchmark

    community = DEFAULT_COMMUNITY
    if args.pages is not None:
        community = community.scaled(args.pages)
    policy = RankPromotionPolicy(
        args.policy, 1, 0.0 if args.policy == "none" else 0.1
    )
    _apply_backend(args)
    report = run_simulation_benchmark(
        community=community,
        policy=policy,
        replicates=args.replicates,
        baseline_replicates=args.baseline_replicates,
        warmup_days=args.warmup,
        measure_days=args.measure,
        mode=args.mode,
        seed=args.seed,
        n_workers=args.workers,
        telemetry_window=args.telemetry_window,
        telemetry_out=args.telemetry_out,
    )
    _print_report(
        "sim-bench — batch engine vs looped simulator (n=%d, R=%d, %s)"
        % (community.n_pages, args.replicates, args.mode),
        report,
    )


def run_sweep_bench(args: argparse.Namespace) -> None:
    """Run the batched serving-replay sweep benchmark and print its metrics."""
    from repro.serving.sweep import run_sweep_benchmark

    variants = _variant_grid(args)
    _apply_backend(args)
    report = run_sweep_benchmark(
        n_pages=args.pages,
        n_queries=args.queries,
        variants=variants,
        seed=args.seed,
        feedback_rate=args.feedback_rate,
        flush_every=args.flush,
        day_every=args.day_every,
        n_workers=args.workers,
        telemetry_window=args.telemetry_window,
        telemetry_out=args.telemetry_out,
    )
    _print_report(
        "sweep-bench — lockstep sweep vs %d independent replays "
        "(n=%d, %d queries)" % (len(variants), args.pages, args.queries),
        report,
    )


def run_sweep_fig(args: argparse.Namespace) -> None:
    """Render the serving trade-off figures from one lockstep sweep run."""
    from repro.community.config import DEFAULT_COMMUNITY
    from repro.serving.figures import (
        sweep_tradeoff_figures,
        telemetry_series_figure,
    )
    from repro.serving.sweep import run_sweep
    from repro.serving.workload import (
        StreamingWorkload,
        WorkloadConfig,
        record_trace,
    )
    from repro.utils.rng import derive_seed

    variants = _variant_grid(args)
    _apply_backend(args)
    community = DEFAULT_COMMUNITY.scaled(args.pages)
    workload = StreamingWorkload(
        WorkloadConfig(
            n_distinct_queries=256,
            k=max(variant.k for variant in variants),
            feedback_rate=args.feedback_rate,
            flush_every=args.flush,
        ),
        seed=derive_seed(args.seed, "sweep-stream"),
    )
    trace = record_trace(workload, args.queries, day_every=args.day_every)

    recorder = None
    if args.telemetry_window is not None or args.telemetry_out is not None:
        from repro.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder(
            window=args.telemetry_window or trace.flush_every,
            out=args.telemetry_out,
            label="sweep-fig",
        )
        recorder.install_kernel_spans()
    try:
        result = run_sweep(
            community,
            variants,
            trace,
            seed=args.seed,
            n_workers=args.workers,
            warm_awareness=True,
            telemetry=recorder,
        )
    finally:
        if recorder is not None:
            recorder.close()

    figures = sweep_tradeoff_figures(result)
    if recorder is not None:
        series = telemetry_series_figure(recorder.rows, kind="sweep")
        if series is not None:
            figures.append(series)
    for figure in figures:
        print(figure.render())
        print()
    print(
        "swept %d variants over %d recorded queries (%.2fs)"
        % (len(variants), args.queries, result.elapsed_seconds)
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser: one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the evaluation of 'Shuffling a Stacked Deck: The Case for "
            "Partially Randomized Ranking of Search Engine Results' (VLDB 2005)."
        ),
    )
    commands = parser.add_subparsers(
        dest="command", metavar="command", required=True
    )
    commands.add_parser("list", help="list the figure experiments")

    for name in list_experiments():
        figure = commands.add_parser(name, help="regenerate %s's data" % name)
        figure.add_argument(
            "--scale",
            choices=list(VALID_SCALES),
            default="fast",
            help="experiment scale: 'paper' uses the paper's default community, "
            "'fast' a proportionally scaled-down one, 'smoke' a tiny sanity run",
        )
        figure.add_argument("--seed", type=int, default=0, help="root random seed")
        figure.set_defaults(run=run_figure)

    serve = commands.add_parser(
        "serve-bench", help="online serving engine vs full re-rank"
    )
    _add_workload_flags(serve, pages=20_000, queries=2_000)
    serve.add_argument("--k", type=int, default=20, help="result-page length")
    _add_shard_flags(serve)
    _add_bench_flags(serve)
    serve.set_defaults(run=run_serve_bench)

    pool = commands.add_parser(
        "pool-bench", help="multi-tenant process-per-shard serving pool"
    )
    _add_workload_flags(pool, pages=20_000, queries=2_000)
    _add_shard_flags(pool)
    pool.add_argument(
        "--tenants", type=int, default=1,
        help="tenant communities hosted behind the serving front door",
    )
    pool.add_argument(
        "--workers", type=int, default=2,
        help="worker processes hosting the tenant shards",
    )
    pool.add_argument(
        "--clients", type=int, default=0,
        help="concurrent OCC writer processes racing feedback commits "
        "against the pool's shared-memory shards",
    )
    pool.add_argument(
        "--inbox-capacity", type=int, default=8,
        help="bounded work-queue depth per pool worker; a full inbox "
        "counts a backpressure event and blocks the submitter",
    )
    _add_retry_flags(pool)
    _add_bench_flags(pool)
    pool.set_defaults(run=run_pool_bench)

    chaos = commands.add_parser(
        "chaos-bench", help="trace replay under a scripted fault plan"
    )
    _add_workload_flags(chaos, pages=20_000, queries=2_000)
    chaos.add_argument("--k", type=int, default=20, help="result-page length")
    _add_shard_flags(chaos)
    chaos.add_argument(
        "--flush", type=int, default=64,
        help="queries between feedback batch flushes in the trace",
    )
    chaos.add_argument(
        "--mode", choices=VALID_MODES, default="fluid", help="popularity update mode"
    )
    chaos.add_argument(
        "--fault-plan", default=None,
        help="JSON fault-plan file to replay under (default: the pinned "
        "reference plan — one crash, a conflict burst, a stall, a cache "
        "poisoning)",
    )
    chaos.add_argument(
        "--save-fault-plan", default=None,
        help="write the fault plan actually used to this JSON file "
        "(pin-and-replay workflow)",
    )
    _add_retry_flags(chaos)
    _add_bench_flags(chaos)
    chaos.set_defaults(run=run_chaos_bench)

    sim = commands.add_parser(
        "sim-bench", help="batch simulation engine vs the looped simulator"
    )
    sim.add_argument(
        "--pages", type=int, default=None,
        help="community size; defaults to the paper's default community",
    )
    sim.add_argument(
        "--replicates", type=int, default=32,
        help="replicate runs advanced in lockstep by the batch engine",
    )
    sim.add_argument(
        "--baseline-replicates", type=int, default=None,
        help="replicates timed through the sequential loop (default min(R, 8))",
    )
    sim.add_argument("--warmup", type=int, default=15, help="warm-up days per run")
    sim.add_argument(
        "--measure", type=int, default=25, help="measurement days per run"
    )
    sim.add_argument(
        "--mode", choices=VALID_MODES, default="fluid", help="simulation update mode"
    )
    sim.add_argument(
        "--policy", choices=("selective", "uniform", "none"), default="selective",
        help="rank promotion policy to simulate",
    )
    sim.add_argument(
        "--workers", type=int, default=None,
        help="replicate sharding width (default: auto-size from os.cpu_count())",
    )
    _add_bench_flags(sim)
    sim.set_defaults(run=run_sim_bench)

    for name, run, summary in (
        ("sweep-bench", run_sweep_bench, "lockstep sweep vs independent replays"),
        ("sweep-fig", run_sweep_fig, "serving trade-off figures from one sweep"),
    ):
        sweep = commands.add_parser(name, help=summary)
        _add_workload_flags(sweep, pages=2_000, queries=2_400)
        sweep.add_argument(
            "--grid-k", default="10,20",
            help="comma-separated result-page lengths, e.g. '10,20'",
        )
        sweep.add_argument(
            "--grid-r", default="0.0,0.1,0.2,0.3",
            help="comma-separated randomization degrees, e.g. '0.0,0.1'",
        )
        sweep.add_argument(
            "--grid-stale", default="0,4",
            help="comma-separated cache staleness budgets (versions of lag)",
        )
        sweep.add_argument(
            "--grid-shards", default="1,2",
            help="comma-separated shard counts per variant",
        )
        sweep.add_argument(
            "--flush", type=int, default=64,
            help="queries between feedback batch flushes in the recorded trace",
        )
        sweep.add_argument(
            "--day-every", type=int, default=None,
            help="queries between lifecycle days in the trace (default: none)",
        )
        sweep.add_argument(
            "--workers", type=int, default=None,
            help="variant sharding width (default: auto-size from os.cpu_count())",
        )
        _add_bench_flags(sweep)
        sweep.set_defaults(run=run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code (2 for usage errors)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit_:
        return exit_.code
    if args.command == "list":
        print("\n".join(list_experiments()))
        return 0
    started = time.time()
    args.run(args)
    print()
    print("completed %s in %.1fs" % (args.command, time.time() - started))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
