"""Benchmark: multi-tenant serving pool — aggregate-QPS scaling and OCC races.

Hosts several tenant communities behind a process-per-shard
:class:`~repro.serving.pool.ServingPool` whose popularity arrays live in
shared memory, with extra client processes racing real feedback commits
through the OCC path against the workers.  Three gates, all
machine-independent: ``pool_scaling_ratio`` (pool speedup over one worker,
normalized by ``min(workers, cpu_count)``) is floored in
``benchmarks/baselines/bench-floor.json``; ``pool_zero_lost`` asserts every
feedback event sent by any process is accounted committed or parked with
the shared headers agreeing; ``pool_organic_conflict`` asserts the run saw
a genuine inter-process commit race (no fault injection involved).
"""

import pytest

from repro.serving.config import ServingConfig
from repro.serving.pool import run_pool_benchmark
from repro.serving.state import shared_memory_available

from conftest import POOL_INFO_KEYS, run_report_once

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable on this platform",
)


def test_bench_pool_scaling(benchmark, bench_seed):
    report = run_report_once(
        benchmark,
        run_pool_benchmark,
        POOL_INFO_KEYS,
        config=ServingConfig(
            n_pages=2_000,
            n_shards=2,
            tenants=2,
            workers=2,
            clients=2,
            seed=bench_seed,
        ),
        n_queries=2_000,
        batches_per_tenant=4,
        client_rounds=6,
        client_batch=16,
    )
    # Zero lost visits: worker + client accounting closes, and the shared
    # headers agree with the writers' own commit counts.
    assert report["pool_zero_lost"] == 1.0
    assert report["lost_events"] == 0.0
    # At least one organic OCC conflict from a real inter-process race.
    assert report["pool_organic_conflict"] == 1.0
    assert report["organic_conflicts"] >= 1
    # Bounded inboxes engage backpressure under the saturation burst.
    assert report["pool_backpressure_engaged"] == 1.0
    # Every tenant's queries were served, and the scaling ratio is floored
    # in the benchgate baseline.
    assert report["queries"] == 4_000.0
    assert report["pool_scaling_ratio"] > 0.0
    assert report["client_dead_letter_events"] == 0.0
