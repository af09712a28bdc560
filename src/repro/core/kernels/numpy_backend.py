"""The numpy reference backend: the repository's exact kernel semantics.

Every kernel here is the code that used to live inline in
``repro.core.batch_rank``, ``repro.simulation.batch`` and
``repro.serving.sweep`` — carved out behind the
:class:`~repro.core.kernels.api.KernelBackend` API, not rewritten — so the
numpy backend is bit-identical to the pre-refactor engines by
construction.  Where a single-community reference helper exists
(``awareness_gain_batch``, ``allocate_monitored_visits_batch``) the kernel
delegates to it rather than copying the arithmetic.

Other backends subclass :class:`NumpyKernelBackend` and override only the
deterministic array math (``_repair_tie_runs``, ``_partition_by_mask``,
``_merge_by_draws``, the fluid elementwise passes); the parity-mandated
RNG consumption — tie-key draws, pool shuffles, merge coins, stochastic
binomials/multinomials — lives in the shared method bodies and is never
overridden.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.community.page import awareness_gain_batch
from repro.core.kernels.api import (
    ROUTE_STATS,
    KernelBackend,
    check_tie_breaker,
    draw_tie_keys,
    merge_repair,
)
from repro.utils.validation import check_probability
from repro.visits.allocation import allocate_monitored_visits_batch

#: Row-block height of the fluid day tail.  The unfused ``(R, n)`` tail
#: streams ~R*n*8-byte temporaries through L2 between every elementwise
#: pass; processing 8 rows per block keeps each temporary L1/L2-resident
#: while the passes stay full-width ufunc calls (the ROADMAP's row-blocked
#: day tail).
DAY_TAIL_BLOCK_ROWS = 8


class NumpyKernelBackend(KernelBackend):
    """Pure-numpy kernels; always available, always the parity reference."""

    name = "numpy"

    # ------------------------------------------------------------ rank_day

    def rank_day(
        self,
        scores: np.ndarray,
        ages: Optional[np.ndarray],
        tie_breaker: str,
        rngs: Sequence[np.random.Generator],
        out_tie_keys: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        from repro.core.batch_rank import _flat_take

        scores = np.asarray(scores, dtype=float)
        R, n = scores.shape
        tie_keys = None
        if tie_breaker == "random":
            tie_keys = draw_tie_keys(rngs, (R, n), out=out_tie_keys)
        elif tie_breaker == "age":
            if ages is None:
                # The sequential path substitutes zero ages when none are
                # given; all-equal ages make the age key a no-op, so the
                # stable fallback to page index decides every tie — exactly
                # the "index" rule.  Short-circuiting avoids allocating and
                # sorting a fresh (R, n) zero matrix every day.
                tie_breaker = "index"
            else:
                ages = np.asarray(ages, dtype=float)
        else:
            check_tie_breaker(tie_breaker)

        negated = -scores
        perm = np.argsort(negated, axis=1)  # unstable quicksort: ties repaired below
        ROUTE_STATS.full += R
        sorted_keys = _flat_take(negated, perm)
        self._repair_tie_runs(perm, sorted_keys, tie_breaker, tie_keys, ages)
        return perm

    def _repair_tie_runs(
        self,
        perm: np.ndarray,
        sorted_keys: np.ndarray,
        tie_breaker: str,
        tie_keys: Optional[np.ndarray],
        ages: Optional[np.ndarray],
    ) -> None:
        """Reorder every run of equal primary keys by the exact tie-break rule.

        ``perm`` is modified in place.  Within a run the required order is:
        by tie key ascending (``random``), by age descending (``age``), or
        by page index ascending (``index``); remaining ties fall back to
        page index, matching ``np.lexsort`` stability in the sequential
        path.

        A ``random`` run is ordered by the default (unstable, SIMD)
        argsort of its tie keys.  When no two sorted keys are equal the
        order by key is unique, so any sort — stable or not, whatever
        order the members arrived in — yields the same permutation as the
        stable one, bit for bit.  Only a run with a tie-key collision
        (probability about ``n**2 / 2**54`` per row) takes the stable
        lines: members sorted by page index, then a stable argsort.
        ``age`` and ``index`` runs always take those lines: equal ages are
        common, and the index order is the sorted members themselves.
        """
        equal_next = sorted_keys[:, 1:] == sorted_keys[:, :-1]
        for row in np.flatnonzero(equal_next.any(axis=1)):
            pairs = np.flatnonzero(equal_next[row])
            # Contiguous stretches of `pairs` are single runs of equal keys.
            breaks = np.flatnonzero(np.diff(pairs) > 1)
            run_starts = np.concatenate(([0], breaks + 1))
            run_ends = np.concatenate((breaks, [pairs.size - 1]))
            for lo, hi in zip(run_starts, run_ends, strict=True):
                a, b = pairs[lo], pairs[hi] + 2  # run spans positions a..b-1
                if tie_breaker == "random":
                    members = perm[row, a:b]
                    keys = tie_keys[row, members]
                    order = np.argsort(keys)
                    keys = keys[order]
                    if not (keys[1:] == keys[:-1]).any():
                        perm[row, a:b] = members[order]
                        continue
                members = np.sort(perm[row, a:b])
                if tie_breaker == "random":
                    members = members[
                        np.argsort(tie_keys[row, members], kind="stable")
                    ]
                elif tie_breaker == "age":
                    members = members[
                        np.argsort(-ages[row, members], kind="stable")
                    ]
                perm[row, a:b] = members

    # ---------------------------------------------------- promotion_merge

    def promotion_merge(
        self,
        perms: np.ndarray,
        promoted_mask: np.ndarray,
        k: int,
        r: float,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        from repro.core.batch_rank import _flat_take

        R, n = perms.shape
        if k < 1:
            raise ValueError("k must be >= 1, got %d" % k)
        check_probability("r", r)
        # An empty community merges to the empty permutation without
        # touching any generator, matching the sequential early return.
        if n == 0:
            return perms.copy()
        # A protected prefix beyond the community is the whole community
        # (merge_positions clamps identically via min(k - 1, n_det)).
        k = min(int(k), n)
        mask_by_rank = _flat_take(promoted_mask, perms)
        n_promoted = mask_by_rank.sum(axis=1)
        n_deterministic = n - n_promoted

        values = self._partition_by_mask(perms, mask_by_rank, n_promoted)

        # Per-row generator work (the only non-batched part, by parity): the
        # promotion-pool shuffle followed by the merge coin flips, in the
        # same order and with the same sizes as the sequential path.  The
        # uniform draws land in one (R, n) buffer so everything after runs
        # through the backend's merge pass.
        # Undrawn slots keep coin value 1.0, which never passes `< r`
        # (r <= 1), so rows or prefixes without sequential draws contribute
        # no flips.
        draws = np.ones((R, n), dtype=float)
        for row in range(R):
            pool_size = int(n_promoted[row])
            if pool_size == 0:
                continue
            generator = rngs[row]
            pool_view = values[row, n - pool_size:]
            if pool_size > 1:
                generator.shuffle(pool_view)
            taken = min(k - 1, n - pool_size)
            if taken >= n or n - pool_size - taken == 0:
                continue  # sequential path draws no coins in these cases
            generator.random(out=draws[row, taken:])

        return self._merge_by_draws(values, draws, r, n_deterministic, n_promoted)

    def _partition_by_mask(
        self,
        perms: np.ndarray,
        mask_by_rank: np.ndarray,
        n_promoted: np.ndarray,
    ) -> np.ndarray:
        """Partition each row into [deterministic..., promoted...], rank order.

        A stable argsort of the boolean mask is exactly that partition.
        """
        from repro.core.batch_rank import _flat_take

        partition = np.argsort(mask_by_rank, axis=1, kind="stable")
        return _flat_take(perms, partition)

    def _merge_by_draws(
        self,
        values: np.ndarray,
        draws: np.ndarray,
        r: float,
        n_deterministic: np.ndarray,
        n_promoted: np.ndarray,
    ) -> np.ndarray:
        """Drain both lists by the drawn coins (clipped-cumsum slot algebra)."""
        from repro.core.batch_rank import _flat_take, batched_merge_counts

        R, n = values.shape
        flips = draws < r
        counts = batched_merge_counts(flips, n_deterministic, n_promoted)
        position = np.arange(n, dtype=np.int32)[None, :]
        # Slot j takes from the promotion pool iff the clipped count increased.
        take_promoted = np.empty((R, n), dtype=bool)
        take_promoted[:, 0] = counts[:, 0] > 0
        np.greater(counts[:, 1:], counts[:, :-1], out=take_promoted[:, 1:])
        source = np.where(
            take_promoted,
            n_deterministic.astype(np.int32)[:, None] + counts - 1,
            position - counts,
        )
        return _flat_take(values, source)

    # ---------------------------------------------------------- day tail

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
        rankings = np.asarray(rankings)
        R, n = rankings.shape
        if out_shares is None:
            out_shares = np.empty((R, n), dtype=float)
        # Row-wise 1-D scatters: numpy's fast path for (1-D index, 1-D
        # contiguous values) beats one 2-D advanced-index scatter with a
        # broadcast right-hand side by ~2x at these shapes, and a scatter
        # over duplicate-free indices is order-independent, so the result
        # is bit-identical either way.
        for row in range(R):
            out_shares[row][rankings[row]] = shares_by_rank
        if surfing_fraction:
            if surf_shares is None:
                raise ValueError("surfing blend requires the surf_shares matrix")
            out_shares *= 1.0 - surfing_fraction
            out_shares += surfing_fraction * surf_shares
        monitored = allocate_monitored_visits_batch(out_shares, rate, mode, rngs)
        return out_shares, monitored

    def awareness_update(
        self,
        aware_count: np.ndarray,
        monitored_population: int,
        monitored_visits: np.ndarray,
        mode: str,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        gained = awareness_gain_batch(
            aware_count,
            monitored_population,
            monitored_visits,
            mode=mode,
            rngs=rngs,
        )
        np.minimum(monitored_population, aware_count + gained, out=aware_count)
        return aware_count

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
        """Row-blocked fluid day tail: the unfused chain, L1/L2-resident.

        The default chain's elementwise passes allocate and stream full
        ``(R, n)`` temporaries between every step; here the same passes run
        over :data:`DAY_TAIL_BLOCK_ROWS`-row blocks with two reused block
        buffers, so each intermediate stays cache-resident.  Every step is
        the *same ufunc on the same values* as the reference chain
        (``visit_allocate`` + ``awareness_gain_batch`` + clip), just on row
        slices, so the result is bit-identical per element.  Stochastic
        mode and short batches keep the plain chain (per-row generator
        draws already block naturally, and small ``R`` has nothing to
        gain).
        """
        rankings = np.asarray(rankings)
        R, n = rankings.shape
        if mode != "fluid" or R <= DAY_TAIL_BLOCK_ROWS or n == 0:
            return super().day_tail(
                rankings, shares_by_rank, rate, mode, rngs,
                aware_count, monitored_population,
                surfing_fraction=surfing_fraction,
                surf_shares=surf_shares,
                out_shares=out_shares,
            )
        if out_shares is None:
            out_shares = np.empty((R, n), dtype=float)
        if surfing_fraction and surf_shares is None:
            raise ValueError("surfing blend requires the surf_shares matrix")
        m = monitored_population
        base = 1.0 - 1.0 / m  # hoisted exactly as the pow ufunc hoists it
        block = DAY_TAIL_BLOCK_ROWS
        visits_buf = np.empty((block, n), dtype=float)
        work_buf = np.empty((block, n), dtype=float)
        for lo in range(0, R, block):
            hi = min(lo + block, R)
            shares_block = out_shares[lo:hi]
            for row in range(lo, hi):
                out_shares[row][rankings[row]] = shares_by_rank
            if surfing_fraction:
                shares_block *= 1.0 - surfing_fraction
                shares_block += surfing_fraction * surf_shares[lo:hi]
            rows = hi - lo
            visits = visits_buf[:rows]
            work = work_buf[:rows]
            aware_block = aware_count[lo:hi]
            # allocate_monitored_visits_batch (fluid): shares * rate.
            np.multiply(shares_block, rate, out=visits)
            # awareness_gain_batch (fluid), operation for operation:
            # unaware = m - aware; p_new = base ** visits; 1 - p_new;
            # gained = unaware * p_new; then the chain's clip.
            np.subtract(m, aware_block, out=work)
            np.power(base, visits, out=visits)
            np.subtract(1.0, visits, out=visits)
            np.multiply(work, visits, out=visits)
            np.add(aware_block, visits, out=visits)
            np.minimum(m, visits, out=aware_block)
        return out_shares

    # -------------------------------------------------------- lane_repair

    def lane_repair(
        self,
        orders: Sequence[np.ndarray],
        popularity: Sequence[np.ndarray],
        dirty: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        repaired: List[np.ndarray] = []
        scratch: Optional[np.ndarray] = None  # shared across equal-size lanes
        for lane_order, lane_pop, lane_dirty in zip(orders, popularity, dirty, strict=True):
            merged, scratch = merge_repair(lane_order, lane_pop, lane_dirty, scratch)
            repaired.append(merged)
        return repaired

    # ----------------------------------------------------- feedback_flush

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
        m = monitored_population
        values = aware[touched]
        # awareness_gain (fluid): gained = (m - aware) * (1 - (1 - 1/m)**v),
        # elementwise — identical per entry to the per-lane call.
        gained = (m - values) * (1.0 - (1.0 - 1.0 / m) ** summed)
        updated = np.minimum(float(m), values + gained)
        aware[touched] = updated
        popularity[touched] = (updated / m) * quality[touched]
        dirty[touched] = True


#: Module-level singleton the registry hands out.
BACKEND = NumpyKernelBackend()

__all__ = [
    "NumpyKernelBackend",
    "BACKEND",
]
