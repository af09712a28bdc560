"""Online ranking service: incremental serving over the paper's model.

Where the :mod:`repro.simulation` package recomputes a full ranking per
simulated day, this package answers a *stream of queries*:

* :class:`PopularityState` — versioned per-page popularity updated in
  O(batch) from visit feedback;
* :class:`ServingEngine` — lazy ``top_k`` serving with an incrementally
  repaired popularity order and prefix-only randomized promotion;
* :class:`ResultPageCache` — version-stamped LRU result pages with
  optimistic validate-on-read invalidation;
* :class:`ShardedRouter` — hashes queries across community shards and
  batches feedback application;
* :class:`ServingConfig` / :func:`build_router` / :func:`build_pool` —
  the one frozen, JSON-round-trippable construction surface for the
  whole serving tier;
* :class:`ServingPool` — multi-tenant process-per-shard pool over
  shared-memory popularity state
  (:class:`SharedPopularityState`), with real concurrent OCC writers;
* :class:`StreamingWorkload` / :func:`run_stream` — Zipf-skewed query
  traffic with click feedback for end-to-end driving;
* :func:`run_serving_benchmark` / :func:`run_pool_benchmark` — the
  ``serve-bench`` (in-process) and ``pool-bench`` drivers.

The exact offline semantics stay reachable through
:func:`repro.simulation.replay.replay_day`, which replays a simulator day
through an engine with bit-identical results.
"""

from repro.serving.cache import CacheStats, ResultPageCache, page_key
from repro.serving.config import ServingConfig, build_pool, build_router
from repro.serving.engine import ServingEngine
from repro.serving.router import (
    RouterRobustnessState,
    ShardedRouter,
    stable_shard_hash,
)
from repro.serving.state import (
    PopularityState,
    SharedPopularityState,
    SharedShardHandle,
    shared_memory_available,
)
from repro.serving.tenancy import TenantSpec, plan_tenancy
from repro.serving.workload import (
    ServingStats,
    StreamingWorkload,
    WorkloadConfig,
    run_stream,
)
from repro.serving.workload import RecordedTrace, record_trace
from repro.serving.bench import run_serving_benchmark
from repro.serving.pool import ServingPool, run_pool_benchmark
from repro.serving.sweep import (
    ServingSweep,
    SweepResult,
    SweepVariant,
    build_variant_router,
    run_sweep,
    run_sweep_benchmark,
    variant_grid,
)

__all__ = [
    "PopularityState",
    "SharedPopularityState",
    "SharedShardHandle",
    "shared_memory_available",
    "ServingEngine",
    "ResultPageCache",
    "CacheStats",
    "page_key",
    "ShardedRouter",
    "RouterRobustnessState",
    "stable_shard_hash",
    "ServingConfig",
    "build_router",
    "build_pool",
    "ServingPool",
    "run_pool_benchmark",
    "TenantSpec",
    "plan_tenancy",
    "StreamingWorkload",
    "WorkloadConfig",
    "RecordedTrace",
    "record_trace",
    "ServingStats",
    "run_stream",
    "run_serving_benchmark",
    "ServingSweep",
    "SweepResult",
    "SweepVariant",
    "variant_grid",
    "build_variant_router",
    "run_sweep",
    "run_sweep_benchmark",
]
