"""Tests for the online serving subsystem.

The load-bearing property is serving/offline *parity*: replaying simulated
days through a :class:`ServingEngine` (cache off, equal seeds) must produce
bit-identical visit allocations to the :class:`Simulator`, in both fluid
and stochastic modes.  The rest covers the incremental state, the
version-stamped cache, the sharded router and the workload generator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community import CommunityConfig, PagePool
from repro.core.merge import merge_positions
from repro.core.policy import (
    DETERMINISTIC_POLICY,
    RECOMMENDED_POLICY,
    RankPromotionPolicy,
)
from repro.serving import (
    PopularityState,
    ResultPageCache,
    ServingConfig,
    ServingEngine,
    StreamingWorkload,
    WorkloadConfig,
    build_router,
    run_stream,
)
from repro.serving.router import stable_shard_hash
from repro.simulation import SimulationConfig, Simulator, replay_day


@pytest.fixture
def serving_community():
    return CommunityConfig(
        n_pages=250,
        n_users=50,
        monitored_fraction=0.3,
        visits_per_user_per_day=1.0,
        expected_lifetime_days=40.0,
    )


# ----------------------------------------------------------------- parity


@pytest.mark.parametrize("mode", ["fluid", "stochastic"])
@pytest.mark.parametrize(
    "policy",
    [RECOMMENDED_POLICY, DETERMINISTIC_POLICY, RankPromotionPolicy("uniform", k=2, r=0.2)],
)
def test_replay_day_matches_simulator(serving_community, mode, policy):
    """One replayed day (and the next 24) allocate visits identically."""
    seed = 1234
    simulator = Simulator(
        serving_community,
        policy.build_ranker(),
        SimulationConfig(warmup_days=1, measure_days=1, mode=mode, seed=seed),
    )
    engine = ServingEngine(serving_community, policy, mode=mode, seed=seed)
    for day in range(25):
        expected = simulator.step()
        observed = replay_day(engine)
        np.testing.assert_array_equal(expected, observed, err_msg="day %d" % day)
    np.testing.assert_array_equal(
        simulator.pool.aware_count, engine.state.pool.aware_count
    )
    np.testing.assert_array_equal(simulator.pool.page_ids, engine.state.pool.page_ids)
    assert simulator.day == engine.day


def test_replay_day_ignores_cache(serving_community):
    """The parity path never reads or writes the result cache."""
    cache = ResultPageCache(capacity=4)
    engine = ServingEngine(serving_community, cache=cache, seed=0)
    replay_day(engine)
    assert cache.stats.lookups == 0
    assert len(cache) == 0


# ------------------------------------------------------------------ state


def test_state_version_monotone_and_dirty_tracking(serving_community):
    state = PopularityState.from_config(serving_community, rng=0)
    assert state.version == 0
    state.apply_visits_at(np.array([3, 7, 3]), np.array([1.0, 2.0, 1.0]))
    assert state.version == 1
    dirty = state.consume_dirty()
    assert set(dirty) == {3, 7}
    assert state.consume_dirty().size == 0  # consumed exactly once
    state.pool.replace_pages(np.array([7]), now=1.0)
    state.note_replaced(np.array([7]))
    assert state.version == 2
    assert state.popularity[7] == 0.0
    assert set(state.consume_dirty()) == {7}


def test_state_sparse_update_matches_full_vector(serving_community):
    """O(batch) sparse updates equal the full-vector fluid update."""
    sparse = PopularityState.from_config(serving_community, rng=5)
    full = PopularityState.from_config(serving_community, rng=5)
    visits = np.zeros(sparse.n)
    visits[[2, 9, 100]] = [4.0, 1.0, 2.5]
    sparse.apply_visits_at(np.array([2, 9, 100]), np.array([4.0, 1.0, 2.5]))
    full.apply_visit_feedback(visits)
    np.testing.assert_allclose(sparse.pool.aware_count, full.pool.aware_count)
    np.testing.assert_allclose(sparse.popularity, full.popularity)


def test_state_popularity_cache_consistent(serving_community):
    state = PopularityState.from_config(serving_community, rng=2)
    rng = np.random.default_rng(0)
    for _ in range(10):
        idx = rng.integers(0, state.n, size=8)
        state.apply_visits_at(idx, np.ones(8))
    np.testing.assert_allclose(state.popularity, state.pool.popularity)


# ----------------------------------------------------------------- engine


def test_top_k_returns_distinct_valid_pages(serving_community):
    engine = ServingEngine(serving_community, RECOMMENDED_POLICY, seed=3)
    for k in (1, 5, 50, 250, 400):
        page = engine.top_k(k)
        expected = min(k, serving_community.n_pages)
        assert page.size == expected
        assert np.unique(page).size == expected
        assert page.min() >= 0 and page.max() < serving_community.n_pages


def test_deterministic_top_k_matches_full_sort(serving_community):
    """With distinct popularity values the maintained order is exact."""
    engine = ServingEngine(serving_community, DETERMINISTIC_POLICY, seed=4)
    rng = np.random.default_rng(7)
    # Distinct awareness counts -> distinct popularity (qualities distinct w.p. 1).
    engine.state.set_awareness(
        rng.permutation(engine.state.n) % engine.state.pool.monitored_population
    )
    page = engine.top_k(10)
    expected = np.argsort(-engine.state.popularity, kind="stable")[:10]
    np.testing.assert_array_equal(np.sort(engine.state.popularity[page])[::-1],
                                  engine.state.popularity[expected])


def test_incremental_repair_matches_full_resort(serving_community):
    """After feedback, the repaired order equals a from-scratch sort."""
    engine = ServingEngine(serving_community, DETERMINISTIC_POLICY, seed=8)
    rng = np.random.default_rng(11)
    for round_ in range(12):
        idx = rng.integers(0, engine.state.n, size=6)
        engine.apply_feedback(idx, rng.integers(1, 5, size=6).astype(float))
        engine.top_k(5)  # triggers the repair
        pop = engine.state.popularity
        served = pop[engine._order]
        assert np.all(np.diff(served) <= 1e-15), "order not descending, round %d" % round_
    assert engine.repairs >= 10
    assert engine.full_sorts == 1  # only the initial sort was a full one


def test_selective_promotion_pool_tracked(serving_community):
    engine = ServingEngine(serving_community, RECOMMENDED_POLICY, seed=9)
    engine.top_k(5)
    np.testing.assert_array_equal(
        engine._promoted_mask, engine.state.pool.aware_count < 1.0 - 1e-9
    )
    engine.apply_feedback(np.arange(20), np.full(20, 50.0))
    engine.top_k(5)
    np.testing.assert_array_equal(
        engine._promoted_mask, engine.state.pool.aware_count < 1.0 - 1e-9
    )


def test_protected_prefix_never_promoted(serving_community):
    """With k_start > 1 the top slots always hold the popularity leaders."""
    policy = RankPromotionPolicy(rule="selective", k=3, r=0.5)
    engine = ServingEngine(serving_community, policy, seed=10)
    rng = np.random.default_rng(1)
    engine.state.set_awareness(
        rng.integers(1, engine.state.pool.monitored_population, size=engine.state.n).astype(float)
    )
    # All pages aware -> empty selective pool except none; force some zeros.
    leaders = np.argsort(-engine.state.popularity, kind="stable")[:2]
    for _ in range(20):
        page = engine.top_k(10)
        assert set(page[:2]) == set(leaders)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_merge_prefix_promotes_the_full_merge_prefix_slots(data):
    """The served prefix takes pool pages exactly where the full merge does.

    ``_merge_prefix`` flips merge coins for the visible slots alone; from
    the same generator state its pool slots must be the first ``k`` slots
    of the sequential :func:`~repro.core.merge.merge_positions`, in every
    drain case (pool or deterministic list running out inside the page).
    The coins line up when the deterministic list covers the protected
    prefix, which the strategy keeps.
    """
    n = data.draw(st.integers(min_value=1, max_value=40), label="n")
    pool = data.draw(st.integers(min_value=0, max_value=n), label="pool")
    promote_k = data.draw(
        st.integers(min_value=1, max_value=min(4, n - pool + 1)), label="promote_k"
    )
    k = data.draw(st.integers(min_value=1, max_value=n), label="k")
    r = data.draw(st.sampled_from([0.1, 0.5, 0.9]), label="r")
    seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
    community = CommunityConfig(
        n_pages=n,
        n_users=30,
        monitored_fraction=0.4,
        visits_per_user_per_day=1.0,
        expected_lifetime_days=30.0,
    )
    engine = ServingEngine(
        community, RankPromotionPolicy("uniform", promote_k, r), seed=seed
    )
    engine.top_k(1)  # build the maintained order
    mask = np.zeros(n, dtype=bool)
    mask[np.random.default_rng(seed).permutation(n)[:pool]] = True
    page = engine._merge_prefix(k, mask, pool, np.random.default_rng(seed))
    expected = merge_positions(n, pool, promote_k, r, np.random.default_rng(seed))
    np.testing.assert_array_equal(mask[page], expected[:k])
    assert np.unique(page).size == k


def test_cold_start_ties_not_pinned_to_index_order(serving_community):
    """Zero-awareness ties are served in random (per-engine) order, not 0..k-1."""
    pages = [
        ServingEngine(serving_community, DETERMINISTIC_POLICY, seed=s).top_k(5)
        for s in (1, 2, 3)
    ]
    assert any(not np.array_equal(pages[0], other) for other in pages[1:])
    assert not np.array_equal(pages[0], np.arange(5))


# ------------------------------------------------------------------ cache


def test_cache_hit_within_staleness_budget():
    cache = ResultPageCache(capacity=4, staleness_budget=2)
    page = np.array([1, 2, 3])
    cache.store("key", page, version=10)
    assert cache.lookup("key", current_version=10) is not None
    assert cache.lookup("key", current_version=12) is not None  # lag == budget
    assert cache.stats.hits == 2


def test_cache_stale_entry_evicted():
    cache = ResultPageCache(capacity=4, staleness_budget=2)
    cache.store("key", np.array([1]), version=10)
    assert cache.lookup("key", current_version=13) is None  # lag 3 > budget 2
    assert cache.stats.stale_evictions == 1
    assert len(cache) == 0


def test_cache_lru_eviction_order():
    cache = ResultPageCache(capacity=2, staleness_budget=0)
    cache.store("a", np.array([0]), 0)
    cache.store("b", np.array([1]), 0)
    cache.lookup("a", 0)  # refresh a
    cache.store("c", np.array([2]), 0)  # evicts b (least recently used)
    assert cache.lookup("b", 0) is None
    assert cache.lookup("a", 0) is not None
    assert cache.lookup("c", 0) is not None
    assert cache.stats.capacity_evictions == 1


def test_cache_staleness_boundary_exact():
    """Lag == budget is served; lag == budget + 1 evicts, precisely."""
    cache = ResultPageCache(capacity=4, staleness_budget=3)
    cache.store("key", np.array([7]), version=5)
    assert cache.lookup("key", current_version=8) is not None  # lag == budget
    assert cache.stats.stale_evictions == 0
    assert cache.lookup("key", current_version=9) is None  # budget + 1
    assert cache.stats.stale_evictions == 1
    assert len(cache) == 0


def test_cache_stats_survive_invalidate():
    """invalidate() drops entries but keeps the accumulated counters."""
    cache = ResultPageCache(capacity=4, staleness_budget=0)
    cache.store("key", np.array([1, 2]), version=0)
    assert cache.lookup("key", 0) is not None
    assert cache.lookup("missing", 0) is None
    hits, misses = cache.stats.hits, cache.stats.misses
    cache.invalidate()
    assert len(cache) == 0
    assert (cache.stats.hits, cache.stats.misses) == (hits, misses)
    assert cache.lookup("key", 0) is None  # entries gone, stats keep counting
    assert cache.stats.misses == misses + 1
    assert cache.stats.hit_rate == pytest.approx(
        cache.stats.hits / cache.stats.lookups
    )


def test_engine_serve_rejects_bad_k(serving_community):
    """serve() validates k before touching the cache (mirrors top_k)."""
    from repro.serving.engine import ServingEngine

    engine = ServingEngine(
        serving_community, cache=ResultPageCache(capacity=4), seed=0
    )
    with pytest.raises(ValueError, match="k must be >= 1"):
        engine.serve(0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        engine.top_k(-3)
    assert engine.cache.stats.lookups == 0  # no phantom miss was recorded


def test_cached_pages_are_isolated_from_caller_mutation():
    cache = ResultPageCache(capacity=2, staleness_budget=0)
    original = np.array([5, 6, 7])
    cache.store("key", original, version=0)
    original[0] = 99  # caller mutates its own array after store
    np.testing.assert_array_equal(cache.lookup("key", 0), [5, 6, 7])
    with pytest.raises(ValueError):
        cache.lookup("key", 0)[0] = 1  # served hits are read-only


def test_engine_serves_from_cache_until_feedback(serving_community):
    cache = ResultPageCache(capacity=4, staleness_budget=0)
    engine = ServingEngine(serving_community, DETERMINISTIC_POLICY, cache=cache, seed=12)
    first = engine.serve(10)
    second = engine.serve(10)
    np.testing.assert_array_equal(first, second)
    assert cache.stats.hits == 1
    engine.apply_feedback(np.array([int(first[-1])]), np.array([25.0]))
    engine.serve(10)  # version advanced past budget -> recompute
    assert cache.stats.stale_evictions == 1


# ----------------------------------------------------------------- router


def make_router(community, **fields):
    """``build_router`` over a test community with custom user/page ratios."""
    config = ServingConfig(n_pages=community.n_pages, **fields)
    return build_router(config, community=community)


def test_router_stable_hashing(serving_community):
    router = make_router(serving_community, n_shards=4, seed=0)
    for query in ("q1", "q2", 42, ("tuple", 3)):
        assert router.shard_for(query) == router.shard_for(query)
    assert stable_shard_hash("q1") == stable_shard_hash("q1")
    shards = {router.shard_for("query-%d" % i) for i in range(200)}
    assert shards == set(range(4))  # every shard receives traffic


def test_router_shard_sizes_sum_to_requested_pages(serving_community):
    """Non-divisible page counts are spread over shards, never dropped."""
    router = make_router(serving_community, n_shards=3, seed=0)
    assert router.n_pages == serving_community.n_pages
    sizes = [engine.state.n for engine in router.engines]
    assert max(sizes) - min(sizes) <= 1
    with pytest.raises(ValueError):
        make_router(serving_community, n_shards=serving_community.n_pages + 1)


def test_router_feedback_batched_until_flush(serving_community):
    router = make_router(serving_community, n_shards=2, cache_capacity=None, seed=1)
    before = [engine.state.version for engine in router.engines]
    page = router.serve("hot-query", 5)
    router.submit_feedback("hot-query", int(page[0]))
    router.submit_feedback("hot-query", int(page[1]))
    assert [e.state.version for e in router.engines] == before  # buffered only
    report = router.flush_feedback()
    assert report.committed == 2
    assert report.batches == 1
    assert report.conflicts == report.retries == report.dead_letter_events == 0
    shard = router.shard_for("hot-query")
    # One batch -> exactly one version bump on the target shard.
    assert router.engines[shard].state.version == before[shard] + 1


@pytest.mark.parametrize(
    "page_index, visits",
    [(-1, 1.0), ("shard_size", 1.0), (0, -50.0), (0, float("nan")), (0, float("inf"))],
)
def test_router_rejects_invalid_feedback_at_submit(serving_community, page_index, visits):
    """A bad event raises at submit; it never reaches (or loses) a batch."""
    router = make_router(serving_community, n_shards=2, cache_capacity=None, seed=1)
    shard = router.shard_for("q")
    if page_index == "shard_size":
        page_index = router.engines[shard].state.n
    version = router.engines[shard].state.version
    router.submit_feedback("q", 3)
    buffered = router.feedback_buffered
    pending = [list(indices) for indices in router._pending_indices]
    with pytest.raises(ValueError):
        router.submit_feedback("q", page_index, visits)
    assert router.feedback_buffered == buffered
    assert router._pending_indices == pending
    assert router.flush_feedback().committed == 1
    assert router.engines[shard].state.version == version + 1


def test_router_advance_day_flushes_and_ages(serving_community):
    router = make_router(serving_community, n_shards=2, seed=2)
    page = router.serve("q", 3)
    router.submit_feedback("q", int(page[0]))
    router.advance_day()
    assert all(engine.day == 1 for engine in router.engines)
    assert router.feedback_buffered == 1
    assert sum(len(buf) for buf in router._pending_indices) == 0


# --------------------------------------------------------------- workload


def test_workload_zipf_skew_and_determinism():
    workload_a = StreamingWorkload(
        WorkloadConfig(n_distinct_queries=100, zipf_exponent=1.2), seed=5
    )
    workload_b = StreamingWorkload(
        WorkloadConfig(n_distinct_queries=100, zipf_exponent=1.2), seed=5
    )
    draws_a = workload_a.sample_queries(5000)
    draws_b = workload_b.sample_queries(5000)
    np.testing.assert_array_equal(draws_a, draws_b)
    counts = np.bincount(draws_a, minlength=100)
    assert counts[0] > counts[10] > counts[90]  # head >> tail


def test_run_stream_rejects_conflicting_seed_and_workload(serving_community):
    router = make_router(serving_community, n_shards=1, seed=0)
    with pytest.raises(ValueError):
        run_stream(router, 10, workload=StreamingWorkload(seed=1), seed=2)
    with pytest.raises(ValueError):
        run_stream(router, -1)


def test_run_stream_end_to_end(serving_community):
    router = make_router(
        serving_community, n_shards=2, cache_capacity=8, staleness_budget=1, seed=3
    )
    workload = StreamingWorkload(
        WorkloadConfig(n_distinct_queries=40, k=5, feedback_rate=0.5, flush_every=16),
        seed=4,
    )
    stats = run_stream(router, 300, workload=workload)
    assert stats.queries == 300
    assert stats.queries_per_second > 0
    assert stats.feedback_events > 0
    assert stats.extra["cache_hit_rate"] > 0.5
    assert stats.extra["flushes"] >= 1
