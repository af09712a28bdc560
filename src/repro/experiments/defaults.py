"""Default scenario and fast/paper scaling for the experiment drivers.

The paper's default Web community (Section 6.1) is expensive to simulate for
every point of every figure, so each experiment accepts a *scale*:

* ``paper`` — the exact default community (n = 10 000, u = 1 000, m = 100,
  v_u = 1 000/day, l = 1.5 years) with measurement windows spanning several
  page lifetimes and multiple repetitions per point;
* ``fast`` — a proportionally scaled-down community (smaller n and shorter
  lifetime, same u/n, m/u and per-user visit rate) with shorter windows and
  fewer repetitions, suitable for CI and the pytest-benchmark harness.

The scaled community keeps the ratios the paper identifies as the governing
characteristics, so the qualitative shape of every figure is preserved; the
absolute QPC/TBP values differ.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.community.config import CommunityConfig
from repro.simulation.config import SimulationConfig

VALID_SCALES = ("paper", "fast", "smoke")


@dataclass(frozen=True)
class ExperimentScale:
    """Bundle of community + simulation settings for one scale level.

    Attributes:
        name: ``"paper"``, ``"fast"`` or ``"smoke"``.
        community: community configuration for the scale.
        warmup_lifetimes: warm-up window in units of the page lifetime.
        measure_lifetimes: measurement window in units of the page lifetime.
        repetitions: number of simulator repetitions per data point.
        probe_horizon_days: trajectory length for probe/TBP experiments.
        solver_quality_groups: quality-grouping granularity of the analytic
            solver at this scale.
    """

    name: str
    community: CommunityConfig
    warmup_lifetimes: float
    measure_lifetimes: float
    repetitions: int
    probe_horizon_days: int
    solver_quality_groups: int

    def simulation_config(self, mode: str = "stochastic", **kwargs) -> SimulationConfig:
        """Simulation window scaled to this community's page lifetime."""
        return SimulationConfig.for_community(
            self.community,
            warmup_lifetimes=self.warmup_lifetimes,
            measure_lifetimes=self.measure_lifetimes,
            mode=mode,
            **kwargs,
        )


def default_community() -> CommunityConfig:
    """The paper's default Web community (Section 6.1)."""
    return CommunityConfig()


def fast_community() -> CommunityConfig:
    """A scaled-down community preserving the paper's ratios.

    u/n = 10%, m/u = 10%, one visit per user per day; n and the lifetime are
    reduced together so warm-up still spans several lifetimes in little time.
    """
    return CommunityConfig(
        n_pages=2_000,
        n_users=200,
        monitored_fraction=0.10,
        visits_per_user_per_day=1.0,
        expected_lifetime_days=200.0,
    )


def smoke_community() -> CommunityConfig:
    """A tiny community for unit tests and smoke checks."""
    return CommunityConfig(
        n_pages=400,
        n_users=40,
        monitored_fraction=0.25,
        visits_per_user_per_day=1.0,
        expected_lifetime_days=60.0,
    )


def scaled_settings(scale: str = "fast") -> ExperimentScale:
    """Return the :class:`ExperimentScale` for a scale name."""
    if scale == "paper":
        return ExperimentScale(
            name="paper",
            community=default_community(),
            warmup_lifetimes=4.0,
            measure_lifetimes=8.0,
            repetitions=3,
            probe_horizon_days=500,
            solver_quality_groups=64,
        )
    if scale == "fast":
        return ExperimentScale(
            name="fast",
            community=fast_community(),
            warmup_lifetimes=4.0,
            measure_lifetimes=8.0,
            repetitions=3,
            probe_horizon_days=300,
            solver_quality_groups=48,
        )
    if scale == "smoke":
        return ExperimentScale(
            name="smoke",
            community=smoke_community(),
            warmup_lifetimes=2.0,
            measure_lifetimes=3.0,
            repetitions=1,
            probe_horizon_days=100,
            solver_quality_groups=24,
        )
    raise ValueError("scale must be one of %s, got %r" % (VALID_SCALES, scale))


__all__ = [
    "ExperimentScale",
    "default_community",
    "fast_community",
    "smoke_community",
    "scaled_settings",
    "VALID_SCALES",
]
