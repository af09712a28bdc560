"""Tests for the unified ServingConfig construction surface."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main, serving_config_from_args
from repro.community.config import DEFAULT_COMMUNITY, CommunityConfig
from repro.core.policy import RankPromotionPolicy
from repro.robustness import FaultEvent, FaultPlan, chaos
from repro.robustness.occ import RetryPolicy
from repro.serving.config import ServingConfig, build_router
from repro.serving.sweep import SweepVariant, build_variant_router, variant_seed
from repro.serving.workload import (
    StreamingWorkload,
    WorkloadConfig,
    record_trace,
)
from repro.simulation.replay import replay_trace


class TestServingConfig:
    def test_defaults_validate(self):
        config = ServingConfig()
        assert config.policy() == RankPromotionPolicy("selective", 1, 0.1)
        assert config.retry_policy() == RetryPolicy()
        assert config.community().n_pages == config.n_pages

    def test_json_round_trip(self):
        config = ServingConfig(
            n_pages=1_234,
            n_shards=3,
            mode="stochastic",
            policy_rule="uniform",
            policy_k=2,
            policy_r=0.25,
            cache_capacity=None,
            staleness_budget=7,
            seed=99,
            tenants=4,
            workers=2,
            clients=3,
            inbox_capacity=5,
            max_attempts=2,
            backoff_base=1e-3,
        )
        restored = ServingConfig.from_json(config.to_json())
        assert restored == config
        payload = json.loads(config.to_json())
        assert payload["n_pages"] == 1_234
        assert payload["cache_capacity"] is None

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown ServingConfig fields"):
            ServingConfig.from_dict({"n_pages": 10, "warp_factor": 9})

    def test_replace_revalidates(self):
        config = ServingConfig(n_pages=100)
        assert config.replace(n_shards=2).n_shards == 2
        with pytest.raises(ValueError, match="n_shards must be >= 1"):
            config.replace(n_shards=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_pages", 0, "n_pages must be >= 1"),
            ("n_shards", 0, "n_shards must be >= 1"),
            ("mode", "plasma", "mode must be one of"),
            ("cache_capacity", 0, "cache_capacity must be >= 1 or None"),
            ("staleness_budget", -1, "staleness_budget must be non-negative"),
            ("feedback_rate", 1.5, "feedback_rate must be in"),
            ("tenants", 0, "tenants must be >= 1"),
            ("workers", -1, "workers must be non-negative"),
            ("clients", -1, "clients must be non-negative"),
            ("inbox_capacity", 0, "inbox_capacity must be >= 1"),
            ("max_attempts", 0, "max_attempts must be a positive integer"),
        ],
    )
    def test_validation_messages(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ServingConfig(**{field: value})


def construction_digest(router):
    """sha256 over each shard's qualities plus a 300-query trace replay.

    Pins every construction stream (shard partition, per-shard child
    generators, policy) and the serving streams they feed.
    """
    digest = hashlib.sha256()
    for engine in router.engines:
        digest.update(engine.state.quality.tobytes())
    workload = StreamingWorkload(
        WorkloadConfig(
            n_distinct_queries=60, k=10, feedback_rate=0.4, flush_every=16
        ),
        seed=5,
    )
    result = replay_trace(router, record_trace(workload, 300, day_every=100), 10)
    digest.update(
        repr(
            (
                result.queries,
                result.feedback_events,
                result.pages_crc,
                result.clicked_crc,
                result.clicked_quality_sum,
                sorted(result.stats.items()),
                result.final_versions,
            )
        ).encode("utf-8")
    )
    for awareness in result.final_awareness:
        digest.update(awareness.tobytes())
    return digest.hexdigest()


class _Built(Exception):
    def __init__(self, router):
        super().__init__("router built")
        self.router = router


def chaos_router(monkeypatch):
    """The warmed router ``run_chaos_benchmark`` builds at smoke size."""
    warm = chaos.seed_steady_state_awareness

    def capture(router, **kwargs):
        warm(router, **kwargs)
        raise _Built(router)

    monkeypatch.setattr(chaos, "seed_steady_state_awareness", capture)
    with pytest.raises(_Built) as built:
        chaos.run_chaos_benchmark(
            n_pages=2_000,
            n_queries=640,
            n_shards=2,
            flush_every=64,
            mode="stochastic",
            policy=RankPromotionPolicy("uniform", 2, 0.2),
            seed=3,
        )
    return built.value.router


def sweep_variant_router(monkeypatch):
    community = CommunityConfig(
        n_pages=300,
        n_users=60,
        monitored_fraction=0.3,
        visits_per_user_per_day=1.0,
        expected_lifetime_days=40.0,
    )
    variant = SweepVariant(
        k=10,
        rule="uniform",
        cache_capacity=8,
        staleness_budget=2,
        n_shards=3,
        mode="stochastic",
    )
    return build_variant_router(community, variant, variant_seed(11, 2))


class TestBuildRouter:
    # Recorded before these construction sites moved to ``build_router``;
    # the move must keep every construction and serving stream.
    PINNED = {
        "sweep-variant": (
            "be8d130462bf33caa98bc333324386c9f472de8e142152139bae4041a92bf208"
        ),
        "chaos": "6261246db3108257aad2876756b06b63f08152185fa04b23f19e900fd4cc9b4d",
    }

    @pytest.mark.parametrize(
        "name, build",
        [("sweep-variant", sweep_variant_router), ("chaos", chaos_router)],
        ids=["sweep-variant", "chaos"],
    )
    def test_construction_streams_pinned(self, monkeypatch, name, build):
        assert construction_digest(build(monkeypatch)) == self.PINNED[name]

    def test_policy_fields_reach_every_engine(self):
        config = ServingConfig(
            n_pages=200, n_shards=2, policy_rule="uniform", policy_k=2, policy_r=0.3
        )
        router = build_router(config)
        expected = RankPromotionPolicy("uniform", 2, 0.3)
        assert all(engine.policy == expected for engine in router.engines)

    def test_seed_override_accepts_seed_sequence(self):
        config = ServingConfig(n_pages=200, n_shards=2, seed=0)
        first = build_router(config, seed=np.random.SeedSequence(7))
        again = build_router(config, seed=np.random.SeedSequence(7))
        default = build_router(config)
        for a, b, c in zip(first.engines, again.engines, default.engines, strict=True):
            assert np.array_equal(a.state.quality, b.state.quality)
            assert not np.array_equal(a.state.quality, c.state.quality)

    def test_retry_policy_lands_on_router(self):
        config = ServingConfig(
            n_pages=100, n_shards=1, max_attempts=2, backoff_base=1e-3
        )
        router = build_router(config)
        assert router.robustness.retry_policy.max_attempts == 2
        assert router.robustness.retry_policy.base_backoff_seconds == 1e-3

    def test_telemetry_attaches(self):
        from repro.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder(n_shards=2, window=64)
        config = ServingConfig(n_pages=400, n_shards=2)
        router = build_router(config, telemetry=recorder)
        assert router.telemetry is recorder
        assert all(engine.telemetry is recorder for engine in router.engines)

    def test_states_must_cover_all_shards(self):
        config = ServingConfig(n_pages=400, n_shards=2)
        with pytest.raises(ValueError, match="one state per shard"):
            build_router(config, states=[None])

    def test_shard_count_cannot_exceed_pages(self):
        config = ServingConfig(n_pages=200, n_shards=300)
        with pytest.raises(ValueError, match="cannot exceed n_pages"):
            build_router(config, community=DEFAULT_COMMUNITY.scaled(200))


def test_readme_serving_quickstart_runs_verbatim():
    """The README's only construction example must keep running as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(
        r"^Online \(the serving path\).*?^```python\n(.*?)^```$",
        readme,
        re.DOTALL | re.MULTILINE,
    )
    assert block is not None, "README lost its serving quickstart block"
    exec(compile(block.group(1), "README.md", "exec"), {})


class TestRouterRobustnessState:
    def test_conflict_lands_in_state_and_stats(self):
        router = build_router(ServingConfig(n_pages=400, n_shards=2))
        assert router.robustness.occ_conflicts == 0
        query = next(q for q in range(1_000) if router.shard_for(q) == 0)
        plan = FaultPlan(
            events=(FaultEvent(kind="conflict", at_query=1, shard=0, count=1),)
        )
        router.enable_robustness(plan, seed=0, sleep=lambda seconds: None)
        router.serve(query, k=5)
        router.submit_feedback(query, page_index=3)
        assert router.flush_feedback().conflicts == 1
        assert router.robustness.occ_conflicts == 1
        assert router.stats()["occ_conflicts"] == 1.0

    def test_enable_disable_round_trip(self):
        router = build_router(ServingConfig(n_pages=400, n_shards=2))
        retry = RetryPolicy(max_attempts=2)
        router.enable_robustness(retry=retry, seed=1)
        assert router.robustness.retry_policy is retry
        supervisors = router.robustness.supervisors
        assert supervisors is not None and len(supervisors) == 2
        router.disable_robustness()
        assert router.robustness.supervisors is None


class TestCliServingConfig:
    def parse(self, argv):
        return build_parser().parse_args(["serve-bench", *argv])

    def test_defaults_build_in_process_config(self):
        config = serving_config_from_args(self.parse([]))
        assert config.workers == 0
        assert config.tenants == 1
        assert config.clients == 0
        assert config.n_pages == 20_000
        assert config.max_attempts == RetryPolicy().max_attempts

    def test_flags_land_in_config(self, monkeypatch):
        from repro.serving import pool

        seen = []
        monkeypatch.setattr(
            pool,
            "run_pool_benchmark",
            lambda config, **kwargs: seen.append(config) or {},
        )
        assert main(
            [
                "pool-bench",
                "--pages", "2000",
                "--shards", "2",
                "--cache-size", "0",
                "--staleness-budget", "6",
                "--tenants", "8",
                "--clients", "4",
                "--workers", "4",
                "--inbox-capacity", "3",
                "--max-attempts", "2",
                "--backoff-base", "0.001",
                "--seed", "9",
            ]
        ) == 0
        (config,) = seen
        assert config.n_pages == 2000
        assert config.n_shards == 2
        assert config.cache_capacity is None
        assert config.staleness_budget == 6
        assert config.tenants == 8
        assert config.clients == 4
        assert config.workers == 4
        assert config.inbox_capacity == 3
        assert config.max_attempts == 2
        assert config.backoff_base == 0.001
        assert config.seed == 9

    def test_overrides_win(self):
        config = serving_config_from_args(self.parse([]), mode="stochastic")
        assert config.mode == "stochastic"

    def test_shared_flags_reach_every_serving_experiment(self):
        parser = build_parser()
        serving = ("serve-bench", "pool-bench", "chaos-bench", "sweep-bench", "sweep-fig")
        for experiment in serving:
            args = parser.parse_args(
                [experiment, "--pages", "1500", "--cache-size", "0",
                 "--feedback-rate", "0.5"]
            )
            assert (args.pages, args.cache_size, args.feedback_rate) == (1500, 0, 0.5)
        # The pool shape belongs to pool-bench alone.
        for experiment in serving[:1] + serving[2:]:
            with pytest.raises(SystemExit):
                parser.parse_args([experiment, "--tenants", "2", "--clients", "1"])
