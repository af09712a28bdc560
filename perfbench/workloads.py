"""The benchmark's four workloads: set-up, timed operations and checks.

Every workload follows one shape:

``setup(seed, ops)``
    Builds the program state and generates every input from ``seed``;
    ``ops`` is the number of timed operations the run will make.
``instrument(state, tracer)``
    Patches the layer objects of ``state`` to record spans (traced runs).
``measure(state, ops, pace)``
    Makes ``ops`` timed operations and returns a :class:`Measurement`;
    once instrumented, each operation is a ``bench.op`` root span.
    ``pace`` is the host's speed relative to the reference host; only the
    open loop uses it, to send at its fixed rate in reference time.
``check(state)``
    Correctness checks, run after (never inside) the timed region.

Run length is fixed work: ``ops_for(seconds)`` sizes the run to take about
``seconds`` on a 2-core x86-64 container, so two commits always time the
same operations on the same inputs.  ``block`` is how many operations run
between two host-speed probes (see ``perfbench/hostspeed.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.community.config import DEFAULT_COMMUNITY
from repro.core.policy import RECOMMENDED_POLICY
from repro.robustness.occ import FlushReport
from repro.serving.bench import seed_steady_state_awareness
from repro.serving.config import ServingConfig, build_router
from repro.serving.sweep import (
    ServingSweep,
    build_variant_router,
    variant_grid,
    variant_seed,
)
from repro.serving.workload import StreamingWorkload, WorkloadConfig, record_trace
from repro.simulation.batch import BatchSimulator
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator
from repro.simulation.replay import replay_trace
from repro.utils.rng import derive_seed, spawn_rngs
from repro.visits.attention import PowerLawAttention

from perfbench.tracing import OP_SPAN, Tracer

Checks = List[Tuple[str, bool]]


@dataclass
class Measurement:
    """What one measured phase produced."""

    #: Seconds each timed operation took (the service time).
    durations: List[float]
    #: Units of work done (page-days, queries, variant-queries).
    work: float
    #: Per-operation latency samples; the service time unless the loop is
    #: open, where latency runs from each operation's due time.
    latencies: List[float]
    #: Quantile of the service times reported as the tail latency.
    tail: float
    #: Per-layer counters accumulated over the phase.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Events the program lost (dead-lettered or dropped feedback).
    lost: int = 0
    #: Open loop only: how late each operation started after its due time.
    lags: List[float] = field(default_factory=list)

    def extend(self, other: "Measurement") -> "Measurement":
        """Fold a later block of the same phase into this one."""
        self.durations += other.durations
        self.latencies += other.latencies
        self.lags += other.lags
        self.work += other.work
        self.lost += other.lost
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + value
        return self


# ----------------------------------------------------------- batch simulator


@dataclass
class _SimState:
    sim: BatchSimulator
    seed: int
    last_visits: Optional[np.ndarray] = None
    tracer: Optional[Tracer] = None


class SimWorkload:
    """Warm ``BatchSimulator`` day steps: R=32 replicates of 10k pages."""

    replicates = 32
    warm_days = 60
    block = 1

    def __init__(self, name: str, mode: str, days_per_second: float):
        self.name = name
        self.mode = mode
        self.days_per_second = days_per_second

    def ops_for(self, seconds: float) -> int:
        return max(20, round(seconds * self.days_per_second))

    def setup(self, seed: int, ops: int) -> _SimState:
        sim = BatchSimulator(
            DEFAULT_COMMUNITY,
            RECOMMENDED_POLICY.build_ranker(),
            SimulationConfig(mode=self.mode),
            rngs=spawn_rngs(seed, self.replicates),
        )
        for _ in range(self.warm_days):
            sim.step(compute_all_visits=False)
        return _SimState(sim, seed)

    def instrument(self, state: _SimState, tracer: Tracer) -> None:
        sim = state.sim
        tracer.patch(sim, "step", "simulation.batch.step")
        tracer.patch(sim.ranker, "rank_batch", "core.rankers.rank_batch")
        tracer.patch(sim.lifecycle, "step_batch", "community.lifecycle.step_batch")
        state.tracer = tracer

    def measure(self, state: _SimState, ops: int, pace: float = 1.0) -> Measurement:
        sim = state.sim
        tracer = state.tracer
        clock = time.perf_counter
        durations = []
        for _ in range(ops):
            span = tracer.begin(OP_SPAN) if tracer is not None else -1
            started = clock()
            visits = sim.step(compute_all_visits=True)
            durations.append(clock() - started)
            if tracer is not None:
                tracer.end(span)
        state.last_visits = visits
        return Measurement(
            durations=durations,
            work=float(self.replicates * sim.pool.n * ops),
            latencies=durations,
            tail=0.9,
        )

    def check(self, state: _SimState) -> Checks:
        """Replicate 0 against the sequential ``Simulator`` oracle.

        ``spawn_rngs`` hands replicate 0 the same child stream for any
        replicate count, so the oracle fed ``spawn_rngs(seed, 1)[0]`` over
        the same days must agree bit for bit.
        """
        sim = state.sim
        oracle = Simulator(
            DEFAULT_COMMUNITY,
            RECOMMENDED_POLICY.build_ranker(),
            SimulationConfig(mode=self.mode).with_seed(spawn_rngs(state.seed, 1)[0]),
        )
        for _ in range(sim.day):
            visits = oracle.step()
        pool = sim.pool
        return [
            ("replicate 0 awareness", np.array_equal(oracle.pool.aware_count, pool.aware_count[0])),
            ("replicate 0 quality", np.array_equal(oracle.pool.quality, pool.quality[0])),
            ("replicate 0 page ids", np.array_equal(oracle.pool.page_ids, pool.page_ids[0])),
            ("replicate 0 birth days", np.array_equal(oracle.pool.created_at, pool.created_at[0])),
            ("replicate 0 last-day visits", np.array_equal(visits, state.last_visits[0])),
        ]


# ------------------------------------------------------------------ serving


def _engine_counters(routers) -> Dict[str, float]:
    engines = [engine for router in routers for engine in router.engines]
    return {
        "serving.engine.full_sorts": float(sum(e.full_sorts for e in engines)),
        "serving.engine.repairs": float(sum(e.repairs for e in engines)),
    }


def _cache_counters(routers) -> Dict[str, float]:
    hits = misses = stale = 0
    for router in routers:
        stats = router.cache_stats()
        hits += stats.hits
        misses += stats.misses
        stale += stats.stale_evictions
    return {
        "serving.cache.hits": float(hits),
        "serving.cache.misses": float(misses),
        "serving.cache.stale_evictions": float(stale),
    }


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before[key] for key, value in after.items()}


@dataclass
class _ServeState:
    router: object
    query_ids: List[int]
    click_ranks: List[int]
    served: int = 0
    submitted: int = 0
    flushes: FlushReport = field(default_factory=FlushReport)
    pages: List[np.ndarray] = field(default_factory=list)
    tracer: Optional[Tracer] = None


class ServeWorkload:
    """Open-loop Zipf query stream against the sharded serving router."""

    name = "serve-zipf-200k"
    config = ServingConfig(
        n_pages=200_000, n_shards=4, cache_capacity=64, staleness_budget=4
    )
    k = 20
    feedback_rate = 0.2
    flush_every = 64
    n_distinct_queries = 4096
    #: Fixed arrival rate of the open loop, queries per reference-host
    #: second: about a quarter of the scaled capacity, which keeps the
    #: median query out of the queues that form behind miss bursts.
    rate = 20_000
    block = 8_000
    warm_queries = 10 * flush_every

    def ops_for(self, seconds: float) -> int:
        return max(1000, round(seconds * self.rate))

    def setup(self, seed: int, ops: int) -> _ServeState:
        router = build_router(self.config.replace(seed=seed))
        seed_steady_state_awareness(router, rng=derive_seed(seed, "serve-awareness"))
        # The first query of a shard pays its full sort; do it here.
        for engine in router.engines:
            engine.top_k(self.k)
        workload = StreamingWorkload(
            WorkloadConfig(
                n_distinct_queries=self.n_distinct_queries,
                zipf_exponent=1.1,
                k=self.k,
                feedback_rate=self.feedback_rate,
                flush_every=self.flush_every,
            ),
            seed=derive_seed(seed, "serve-stream"),
        )
        trace = record_trace(workload, self.warm_queries + ops)
        click_cdf = np.cumsum(PowerLawAttention().visit_shares(self.k))
        ranks = np.minimum(
            np.searchsorted(click_cdf, trace.position_u, side="right"), self.k - 1
        )
        # -1 marks a query without a click.
        ranks[trace.coin_u >= self.feedback_rate] = -1
        state = _ServeState(router, trace.query_ids.tolist(), ranks.tolist())
        # A few staleness cycles, so first-use allocations on the miss and
        # flush paths land here rather than in the timed region.
        self.measure(state, self.warm_queries)
        return state

    def instrument(self, state: _ServeState, tracer: Tracer) -> None:
        router = state.router
        tracer.patch(router, "serve", "serving.router.serve")
        tracer.patch(router, "flush_feedback", "serving.router.flush_feedback")
        for engine in router.engines:
            tracer.patch(engine, "top_k", "serving.engine.top_k")
        state.tracer = tracer

    def measure(self, state: _ServeState, ops: int, pace: float = 1.0) -> Measurement:
        """Send ``ops`` queries at :attr:`rate`, each timed from its due time.

        On a host running at ``pace`` times the reference speed the queries
        are sent ``pace`` times as fast, so the load relative to what the
        host can serve stays that of :attr:`rate` on the reference host.
        """
        router = state.router
        tracer = state.tracer
        before = {**_cache_counters([router]), **_engine_counters([router])}
        flushes = FlushReport()
        serve, submit, flush = router.serve, router.submit_feedback, router.flush_feedback
        k, flush_every = self.k, self.flush_every
        pages = state.pages
        first = state.served
        query_ids = state.query_ids[first:first + ops]
        click_ranks = state.click_ranks[first:first + ops]
        served = first
        submitted = 0
        interval = 1.0 / (self.rate * pace)
        clock = time.perf_counter
        service, latency, lag = [], [], []
        origin = clock() + 1e-3
        for index, query_id in enumerate(query_ids):
            due = origin + index * interval
            now = clock()
            while now < due:
                now = clock()
            span = tracer.begin(OP_SPAN) if tracer is not None else -1
            page = serve(query_id, k)
            rank = click_ranks[index]
            if rank >= 0:
                submit(query_id, int(page[rank]))
                submitted += 1
            served += 1
            if served % flush_every == 0:
                flushes.merge(flush())
            done = clock()
            if tracer is not None:
                tracer.end(span)
            service.append(done - now)
            latency.append(done - due)
            lag.append(now - due)
            pages.append(page)
        state.served = served
        state.submitted += submitted
        state.flushes.merge(flushes)
        after = {**_cache_counters([router]), **_engine_counters([router])}
        counters = _delta(after, before)
        counters.update(
            {
                "serving.router.flush.committed": float(flushes.committed),
                "serving.router.flush.conflicts": float(flushes.conflicts),
                "serving.router.flush.retries": float(flushes.retries),
                "serving.router.flush.dead_letter_events": float(flushes.dead_letter_events),
            }
        )
        return Measurement(
            durations=service,
            work=float(len(query_ids)),
            latencies=latency,
            tail=0.99,
            counters=counters,
            lost=flushes.dead_letter_events + flushes.dropped_events,
            lags=lag,
        )

    def check(self, state: _ServeState) -> Checks:
        router = state.router
        state.flushes.merge(router.flush_feedback())
        pages_ok = True
        seen = set()
        for query_id, page in zip(state.query_ids[:state.served], state.pages, strict=True):
            if id(page) in seen:
                continue
            seen.add(id(page))
            n = router.engines[router.shard_for(query_id)].state.n
            pages_ok &= (
                page.shape == (self.k,)
                and np.unique(page).size == self.k
                and 0 <= int(page.min())
                and int(page.max()) < n
            )
        cache = router.cache_stats()
        flushes = state.flushes
        accounted = flushes.committed + flushes.dead_letter_events + flushes.dropped_events
        return [
            ("every page has k distinct in-range ids", bool(pages_ok)),
            ("cache hits + misses == queries", cache.hits + cache.misses == state.served),
            (
                "buffered feedback == committed + dead-letter + dropped",
                router.feedback_buffered == state.submitted == accounted,
            ),
        ]


# -------------------------------------------------------------------- sweep


@dataclass
class _SweepState:
    seed: int
    community: object
    variants: list
    trace: object
    sweep: ServingSweep
    results: Optional[list] = None
    replays_identical: bool = True
    tracer: Optional[Tracer] = None


class SweepWorkload:
    """Lockstep ``ServingSweep`` replay of one recorded trace, 32 variants."""

    name = "sweep-32x20k"
    n_pages = 20_000
    n_queries = 12_000
    replays_per_second = 1.0
    block = 1

    def ops_for(self, seconds: float) -> int:
        return max(2, round(seconds * self.replays_per_second))

    def _sweep(self, state: _SweepState) -> ServingSweep:
        return ServingSweep(
            state.community, state.variants, seed=state.seed, warm_awareness=True
        )

    def setup(self, seed: int, ops: int) -> _SweepState:
        variants = variant_grid()
        workload = StreamingWorkload(
            WorkloadConfig(
                n_distinct_queries=256,
                zipf_exponent=1.1,
                k=max(variant.k for variant in variants),
                feedback_rate=0.2,
                flush_every=64,
            ),
            seed=derive_seed(seed, "sweep-stream"),
        )
        state = _SweepState(
            seed=seed,
            community=DEFAULT_COMMUNITY.scaled(self.n_pages),
            variants=variants,
            trace=record_trace(workload, self.n_queries),
            sweep=None,
        )
        state.sweep = self._sweep(state)
        return state

    def instrument(self, state: _SweepState, tracer: Tracer) -> None:
        state.tracer = tracer  # each replay's fresh sweep is patched in measure

    def measure(self, state: _SweepState, ops: int, pace: float = 1.0) -> Measurement:
        tracer = state.tracer
        clock = time.perf_counter
        durations = []
        counters: Dict[str, float] = {}
        for _ in range(ops):
            # Each replay starts from a freshly built sweep, outside the timing.
            sweep = state.sweep if state.sweep is not None else self._sweep(state)
            state.sweep = None
            if tracer is not None:
                tracer.patch(sweep, "run", "serving.sweep.run")
            span = tracer.begin(OP_SPAN) if tracer is not None else -1
            started = clock()
            results = sweep.run(state.trace)
            durations.append(clock() - started)
            if tracer is not None:
                tracer.end(span)
            for key, value in {
                **_cache_counters(sweep.routers), **_engine_counters(sweep.routers)
            }.items():
                counters[key] = counters.get(key, 0.0) + value
            if state.results is None:
                state.results = results
            else:
                state.replays_identical &= all(
                    ours.matches(theirs)
                    for ours, theirs in zip(results, state.results, strict=True)
                )
        return Measurement(
            durations=durations,
            work=float(len(state.variants) * state.trace.n_queries * ops),
            latencies=durations,
            # A run makes about fifteen replays, too few for a p90.
            tail=0.75,
            counters=counters,
        )

    def check(self, state: _SweepState) -> Checks:
        """Every variant against its standalone ``replay_trace``.

        Half the variants have staleness budget 0 and half are sharded, so
        this covers both; all 32 standalone replays take about 3 s.
        """
        checks = [("every replay bit-identical", state.replays_identical)]
        for index, variant in enumerate(state.variants):
            router = build_variant_router(
                state.community,
                variant,
                variant_seed(state.seed, index),
                warm_awareness=True,
            )
            standalone = replay_trace(router, state.trace, variant.k)
            checks.append(
                (
                    "%s matches replay_trace" % variant.label(),
                    state.results[index].matches(standalone),
                )
            )
        return checks


WORKLOADS = {
    workload.name: workload
    for workload in (
        SimWorkload("sim-fluid-32x10k", "fluid", days_per_second=25),
        SimWorkload("sim-stochastic-32x10k", "stochastic", days_per_second=10),
        ServeWorkload(),
        SweepWorkload(),
    )
}
