"""The formal kernel API every compute backend implements.

Every hot path of the repository — the ``(R, n)`` batch-simulation day
step, the lockstep sweep's flush-window advance, and the serving order
maintenance — decomposes into six array kernels:

``rank_day``
    Batched descending popularity order with exact tie-breaking (the PR 2
    "batched quicksort + tie-run repair" construction).
``awareness_update``
    One day's awareness gain applied in place over ``(R, n)`` state.
``visit_allocate``
    Attention shares scattered to page indices (plus the optional surfing
    blend) and the monitored-visit allocation derived from them.
``promotion_merge``
    The batched randomized promotion merge over full rankings.
``lane_repair``
    Grouped merge-repair of maintained serving orders — the sweep's stale
    lanes repaired as one batched call instead of lane by lane.
``feedback_flush``
    The fluid-mode sparse feedback update over flat (possibly stacked)
    awareness/popularity state.

plus one documented composite, :meth:`KernelBackend.day_tail`, covering
everything a batch-simulation day does after the ranking is known.  The
composite exists because a fusing backend (numba) wants to run the whole
post-ranking tail as one loop nest rather than as two kernel calls; the
base-class default simply chains ``visit_allocate`` and
``awareness_update`` so non-fusing backends get it for free.

The parity contract is the repository-wide one: whatever backend executes
a kernel, the result must be **bit-identical** to the numpy reference
(``repro.core.kernels.numpy_backend``), which is itself bit-identical to
the sequential per-community code by construction.  The contract is
achievable because every random draw is *parity-mandated to stay in
numpy*: backends receive the caller's ``numpy.random.Generator`` objects
and must consume them through the shared helpers here (or ``super()``), so
only deterministic array math is ever reimplemented.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple

import numpy as np

TIE_BREAKERS = ("random", "age", "index")

VALID_KERNELS = (
    "rank_day",
    "awareness_update",
    "visit_allocate",
    "promotion_merge",
    "lane_repair",
    "feedback_flush",
)


def check_tie_breaker(tie_breaker: str) -> None:
    """Reject tie-break rules outside :data:`TIE_BREAKERS`."""
    if tie_breaker not in TIE_BREAKERS:
        raise ValueError(
            "tie_breaker must be one of %s, got %r" % (TIE_BREAKERS, tie_breaker)
        )


def draw_tie_keys(
    rngs: Sequence[np.random.Generator],
    shape: Tuple[int, int],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-row uniform tie keys, drawn exactly as the sequential path draws.

    Parity-mandated RNG: every backend funnels its ``"random"`` tie-break
    draws through this one helper so row ``r`` consumes ``rngs[r]``
    identically to ``_deterministic_order(..., rng=rngs[r])`` — one
    ``random(n)`` call per row — regardless of which backend sorts.
    """
    R, n = shape
    tie_keys = out if out is not None else np.empty((R, n), dtype=float)
    if tie_keys.shape != (R, n):
        raise ValueError("out_tie_keys must have shape (%d, %d)" % (R, n))
    for row in range(R):
        rngs[row].random(out=tie_keys[row])
    return tie_keys


class RankRouteStats:
    """Cumulative per-row counters of the ``rank_day`` sort routes.

    One module-level instance (:data:`ROUTE_STATS`) is shared by every
    backend.  ``rank_day`` has one route, the full argsort, so only
    ``full`` moves (one count per ranked row).  ``copy``, ``run_merge``
    and ``windowed`` always read 0; they stay because readers of
    :meth:`as_dict` (the repository benchmark's route counts) expect
    their keys.  Counters only ever increase; callers snapshot
    before/after a region and difference the totals.
    """

    __slots__ = ("copy", "run_merge", "windowed", "full")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.copy = 0
        self.run_merge = 0
        self.windowed = 0
        self.full = 0

    def as_dict(self) -> dict:
        return {
            "rank_route_copy": self.copy,
            "rank_route_run_merge": self.run_merge,
            "rank_route_windowed": self.windowed,
            "rank_route_full": self.full,
        }


#: The shared route-mix counter (see :class:`RankRouteStats`).
ROUTE_STATS = RankRouteStats()


def merge_repair(
    order: np.ndarray,
    popularity: np.ndarray,
    dirty: np.ndarray,
    scratch: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact O(n + d log d) merge repair of one maintained descending order.

    The single-lane reference shared by ``ServingEngine._refresh_order`` and
    the grouped :meth:`NumpyKernelBackend.lane_repair` kernel — one
    implementation, so lane-by-lane and grouped repairs cannot drift.  The
    ``dirty`` pages are extracted, sorted by descending popularity (stable
    over their ascending page index), and merged back *after* their
    equal-popularity keeps (``side="right"``), which is where a re-sorted
    tie group would place them.

    Returns ``(merged_order, scratch)``; ``scratch`` is the reusable
    all-``False`` boolean mask, handed back so hot callers can keep it.
    """
    n = order.size
    if scratch is None or scratch.size != n:
        scratch = np.zeros(n, dtype=bool)
    scratch[dirty] = True
    keep = order[~scratch[order]]
    scratch[dirty] = False  # leave the scratch clean for the next repair
    moved = dirty[np.argsort(-popularity[dirty], kind="stable")]
    positions = np.searchsorted(-popularity[keep], -popularity[moved], side="right")
    # Equivalent to np.insert(keep, positions, moved) — positions are
    # nondecreasing (moved is sorted), so each inserted element lands at
    # its original position plus the number of insertions before it —
    # without np.insert's generic-case overhead on the serving hot path.
    merged = np.empty(n, dtype=order.dtype)
    slots = positions + np.arange(moved.size)
    keep_mask = np.ones(n, dtype=bool)
    keep_mask[slots] = False
    merged[slots] = moved
    merged[keep_mask] = keep
    return merged, scratch


class KernelBackend(abc.ABC):
    """Dispatch target for the six day-step/serving kernels.

    Implementations are stateless singletons registered in
    :mod:`repro.core.kernels`; callers obtain the active one with
    ``get_backend()`` and never instantiate backends directly.
    """

    #: Registry name (``"numpy"``, ``"numba"``, ...).
    name: str = "abstract"

    # ------------------------------------------------------------- kernels

    @abc.abstractmethod
    def rank_day(
        self,
        scores: np.ndarray,
        ages: Optional[np.ndarray],
        tie_breaker: str,
        rngs: Sequence[np.random.Generator],
        out_tie_keys: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched descending order over ``(R, n)`` scores with exact ties.

        Row ``r`` must equal ``np.lexsort`` over the sequential composite
        key (see ``repro.core.rankers._deterministic_order``) bit for bit,
        consuming ``rngs[r]`` via :func:`draw_tie_keys` when
        ``tie_breaker == "random"``.  Each ranked row is counted in
        :data:`repro.core.kernels.api.ROUTE_STATS` ``.full``.
        """

    @abc.abstractmethod
    def awareness_update(
        self,
        aware_count: np.ndarray,
        monitored_population: int,
        monitored_visits: np.ndarray,
        mode: str,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Apply one day's awareness gain in place; returns ``aware_count``.

        Fluid mode is the elementwise expectation
        ``min(m, a + (m - a) * (1 - (1 - 1/m)**v))``; stochastic mode draws
        row ``r``'s binomials from ``rngs[r]`` exactly as
        :func:`repro.community.page.awareness_gain_batch` does.
        """

    @abc.abstractmethod
    def visit_allocate(
        self,
        rankings: np.ndarray,
        shares_by_rank: np.ndarray,
        rate: float,
        mode: str,
        rngs: Sequence[np.random.Generator],
        surfing_fraction: float = 0.0,
        surf_shares: Optional[np.ndarray] = None,
        out_shares: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scatter rank shares to pages and allocate monitored visits.

        Returns ``(shares, monitored_visits)``, both ``(R, n)``.  With a
        non-zero ``surfing_fraction`` the scattered shares are blended with
        the precomputed ``surf_shares`` matrix exactly as
        :func:`repro.visits.allocation.rank_visit_shares_batch` blends.
        """

    @abc.abstractmethod
    def promotion_merge(
        self,
        perms: np.ndarray,
        promoted_mask: np.ndarray,
        k: int,
        r: float,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Batched randomized promotion merge; row-wise ``randomized_merge``."""

    @abc.abstractmethod
    def lane_repair(
        self,
        orders: Sequence[np.ndarray],
        popularity: Sequence[np.ndarray],
        dirty: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        """Grouped merge-repair of maintained descending orders.

        One batched call repairs every lane of one community size: lane
        ``i``'s repaired order must be bit-identical to :func:`merge_repair`,
        the repair ``ServingEngine._refresh_order`` runs on one lane —
        extract the ``dirty[i]`` pages, sort them by ``-popularity[i]``
        (stable over ascending page index), and merge them back after their
        equal-popularity keeps.  The dirty sets are the verdicts of each
        lane's ``ServingEngine._plan_refresh``, so ``0 < dirty[i].size <
        n // 2`` (larger dirty sets take the full re-sort path through
        :meth:`rank_day`) and ``n`` is equal across the call.
        """

    @abc.abstractmethod
    def feedback_flush(
        self,
        aware: np.ndarray,
        popularity: np.ndarray,
        quality: np.ndarray,
        dirty: np.ndarray,
        touched: np.ndarray,
        summed: np.ndarray,
        monitored_population: int,
    ) -> None:
        """Fluid-mode sparse feedback over flat state, in place.

        ``touched`` holds unique flat indices (a stacked lane group uses
        ``row * n + page`` keys over raveled matrices) and ``summed`` the
        per-index visit totals.  Applies the fluid awareness gain, refreshes
        the materialized popularity, and marks the dirty flags; version
        bumps stay with the caller.
        """

    # ----------------------------------------------------------- composite

    def day_tail(
        self,
        rankings: np.ndarray,
        shares_by_rank: np.ndarray,
        rate: float,
        mode: str,
        rngs: Sequence[np.random.Generator],
        aware_count: np.ndarray,
        monitored_population: int,
        surfing_fraction: float = 0.0,
        surf_shares: Optional[np.ndarray] = None,
        out_shares: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Everything a batch-simulation day does after ranking; returns shares.

        The default chains :meth:`visit_allocate` and
        :meth:`awareness_update`; fusing backends override it to run the
        whole fluid tail — share scatter, surfing blend, visit allocation,
        awareness gain, clip — as one loop nest.  ``aware_count`` is
        updated in place either way.
        """
        shares, monitored = self.visit_allocate(
            rankings,
            shares_by_rank,
            rate,
            mode,
            rngs,
            surfing_fraction=surfing_fraction,
            surf_shares=surf_shares,
            out_shares=out_shares,
        )
        self.awareness_update(
            aware_count, monitored_population, monitored, mode, rngs
        )
        return shares

    # ------------------------------------------------------------- utility

    def warmup(self) -> None:
        """Pre-compile / pre-allocate whatever the backend needs (no-op here).

        Benchmarks call this before timing so JIT compilation of a
        compiling backend never lands inside a measured region.
        """

    def describe(self) -> str:
        """Short human-readable backend tag."""
        return self.name


__all__ = [
    "KernelBackend",
    "RankRouteStats",
    "ROUTE_STATS",
    "TIE_BREAKERS",
    "VALID_KERNELS",
    "check_tie_breaker",
    "draw_tie_keys",
    "merge_repair",
]
