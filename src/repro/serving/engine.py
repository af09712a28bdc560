"""The online serving engine: lazy top-k ranking over incremental state.

The offline :class:`~repro.simulation.engine.Simulator` produces one full
ranking per simulated day — O(n log n) work per step over the whole
community.  The :class:`ServingEngine` answers individual ``top_k`` queries
instead:

* the deterministic popularity order is *maintained*, not recomputed: after
  a feedback batch touches ``d`` pages, the order is repaired by extracting
  the ``d`` moved pages and merging them back into the still-sorted
  remainder (O(n + d log d) vectorized, versus O(n log n) for a re-sort,
  and only when the state actually changed);
* randomized rank promotion is applied only to the *served prefix*: the
  merge coin of :func:`~repro.core.merge.merge_positions` is flipped for the
  ``k`` visible slots alone, and the promoted entries are drawn directly
  from the promotion pool — equivalent in distribution to shuffling the
  whole pool and merging all ``n`` positions, but O(k + s) instead of O(n).

A query therefore costs O(k + promoted) plus the amortized repair, which is
what lets one engine serve a heavy query stream over a 200k-page community.
The exact full-ranking path of the simulator remains available as
:meth:`rank_all` and is what the parity replay adapter uses.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.community.config import CommunityConfig
from repro.community.lifecycle import Lifecycle, PoissonLifecycle
from repro.core.kernels import merge_repair
from repro.core.policy import RECOMMENDED_POLICY, RankPromotionPolicy
from repro.core.rankers import RandomizedPromotionRanker
from repro.core.rankers_context import RankingContext
from repro.robustness.faults import NULL_INJECTOR
from repro.serving.cache import ResultPageCache, page_key
from repro.serving.state import PopularityState
from repro.telemetry.recorder import NULL_RECORDER
from repro.utils.rng import RandomSource, as_rng
from repro.visits.attention import AttentionModel, PowerLawAttention
from repro.visits.surfing import MixedSurfingModel

#: :meth:`ServingEngine._plan_refresh` verdict: rebuild the order by a full sort.
FULL_SORT = object()


class ServingEngine:
    """Serves top-k result pages for one community from incremental state.

    Mirrors the :class:`~repro.simulation.engine.Simulator` constructor
    conventions (same defaults, same seed handling, same pool construction
    order) so that an engine and a simulator built from equal seeds start
    from identical state — the basis of the serving/offline parity tests.
    """

    def __init__(
        self,
        community: CommunityConfig,
        policy: RankPromotionPolicy = RECOMMENDED_POLICY,
        *,
        mode: str = "fluid",
        attention: Optional[AttentionModel] = None,
        surfing: Optional[MixedSurfingModel] = None,
        lifecycle: Optional[Lifecycle] = None,
        cache: Optional[ResultPageCache] = None,
        state: Optional[PopularityState] = None,
        name: str = "community",
        seed: RandomSource = None,
    ) -> None:
        self.community = community
        self.policy = policy
        self.ranker = policy.build_ranker()
        self.attention = attention or PowerLawAttention()
        self.surfing = surfing or MixedSurfingModel(surfing_fraction=0.0)
        self.lifecycle = lifecycle or PoissonLifecycle.from_lifetime(
            community.expected_lifetime_days
        )
        self.cache = cache
        self.name = name
        self.rng = as_rng(seed)
        if state is not None and state.n != community.n_pages:
            raise ValueError(
                "state has %d pages but the community expects %d"
                % (state.n, community.n_pages)
            )
        self.state = (
            state
            if state is not None
            else PopularityState.from_config(community, self.rng, mode=mode)
        )
        self.day = 0
        self.full_sorts = 0
        self.repairs = 0
        self.telemetry = NULL_RECORDER
        self.faults = NULL_INJECTOR
        self._policy_tag = policy.describe()
        # Maintained descending-popularity order.  Ties are broken by a
        # random per-page key drawn once per engine (refreshed on full
        # re-sorts): a fixed index order would pin the huge zero-popularity
        # tie group and starve most cold pages of traffic forever, while
        # per-call re-randomization (what the exact ranker does) cannot be
        # maintained incrementally.  Pages moved by a repair re-enter at the
        # back of their new tie group.
        self._order: Optional[np.ndarray] = None
        self._tie_key: Optional[np.ndarray] = None
        self._order_version = -1
        self._dirty_scratch: Optional[np.ndarray] = None  # reusable repair mask
        # The selective rule's pool (zero-awareness pages) is maintained
        # incrementally; other rules compute their pool per query.
        self._selective = policy.rule == "selective" and not policy.is_deterministic
        self._promoted_mask: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ API

    def serve(self, k: int, rng: RandomSource = None) -> np.ndarray:
        """Answer one query: the top-``k`` result page, through the cache.

        With a cache attached the page is validated against the current
        state version (OCC read pattern); without one this is ``top_k``.
        Cached pages repeat the same randomized promotions until they go
        stale — bounded-staleness exploration is the price of the hit rate.
        """
        if k < 1:
            # Same validation as top_k, applied before the cache key is
            # built: a bad k must never produce a lookup/miss accounting
            # entry for a page that can never be stored.
            raise ValueError("k must be >= 1, got %d" % k)
        if self.faults.enabled:
            self.faults.before_engine_serve(self)
        if self.cache is None:
            return self.top_k(k, rng)
        key = page_key(self.name, min(int(k), self.state.n), self._policy_tag)
        page = self.cache.lookup(key, self.state.version)
        if page is not None:
            return page
        page = self.top_k(k, rng)
        self.cache.store(key, page, self._order_version)
        return page

    def top_k(self, k: int, rng: RandomSource = None) -> np.ndarray:
        """Compute a fresh top-``k`` result page (no cache involved)."""
        if k < 1:
            raise ValueError("k must be >= 1, got %d" % k)
        n = self.state.n
        k = min(int(k), n)
        generator = as_rng(rng) if rng is not None else self.rng
        self._refresh_order()
        if self.policy.is_deterministic:
            return self._order[:k].copy()
        mask = self._promotion_pool_mask(generator)
        pool_count = int(mask.sum())
        return self._merge_prefix(k, mask, pool_count, generator)

    def apply_feedback(
        self,
        indices: np.ndarray,
        visits: Optional[np.ndarray] = None,
        rng: RandomSource = None,
    ) -> None:
        """Stream a batch of monitored visit feedback into the state."""
        indices = np.atleast_1d(np.asarray(indices, dtype=int))
        if visits is None:
            visits = np.ones(indices.size)
        self.state.apply_visits_at(
            indices, visits, rng=rng if rng is not None else self.rng
        )

    def advance_day(self) -> np.ndarray:
        """Run one lifecycle step (page retirement/replacement); returns slots."""
        replaced = self.lifecycle.step(
            self.state.pool, now=float(self.day), rng=self.rng
        )
        self.state.note_replaced(replaced)
        self.day += 1
        return replaced

    def rank_all(self, rng: RandomSource = None) -> np.ndarray:
        """Full ranking through the exact simulator ranker (parity path)."""
        context = RankingContext.from_pool(self.state.pool, now=float(self.day))
        return self.ranker.rank(context, rng if rng is not None else self.rng)

    # --------------------------------------------------- order maintenance

    def _refresh_order(self) -> None:
        plan = self._plan_refresh()
        if plan is None:
            return
        pop = self.state.popularity
        if plan is FULL_SORT:
            tie_key = self.rng.random(self.state.n)
            self._store_full_sort(np.lexsort((tie_key, -pop)), tie_key)
            return
        # The exact O(n + d log d) merge repair is shared with the grouped
        # lane_repair kernel (one implementation for both paths).
        order, self._dirty_scratch = merge_repair(
            self._order, pop, plan, self._dirty_scratch
        )
        self._store_repair(order)

    def _plan_refresh(self):
        """Decide how the maintained order catches up with the state.

        The one owner of that decision, for this engine and for the sweep's
        batched lanes.  The dirty set is consumed *before* anything reads
        popularity: a shared-memory state refreshes its process-local
        popularity only inside ``consume_dirty``.  The order is stamped with
        the version read *before* that consumption, so a commit racing it
        from another process leaves the stamp behind and the next call
        repairs its pages.  Refreshes the selective pool mask (in full on
        the first build, for the dirty pages otherwise).

        Returns ``None`` when the order is current, :data:`FULL_SORT` on the
        first build or when at least half the community moved (a fresh sort
        is then cheaper than a merge), else the dirty pages to merge-repair.
        The caller performs the sort or repair and stores it with
        :meth:`_store_full_sort` / :meth:`_store_repair`.
        """
        state = self.state
        first = self._order is None
        version = state.version
        if not first and self._order_version == version:
            return None
        dirty = state.consume_dirty()
        if self._selective:
            if first:
                self._promoted_mask = state.pool.aware_count < 1.0 - 1e-9
            elif dirty.size:
                self._promoted_mask[dirty] = (
                    state.pool.aware_count[dirty] < 1.0 - 1e-9
                )
        self._order_version = version
        if first:
            return FULL_SORT
        if dirty.size == 0:
            return None
        if dirty.size >= state.n // 2:
            return FULL_SORT
        return dirty

    def _store_full_sort(self, order: np.ndarray, tie_key: np.ndarray) -> None:
        self._order = order
        self._tie_key = tie_key
        self.full_sorts += 1
        if self.telemetry.enabled:
            self.telemetry.record_full_sort()

    def _store_repair(self, order: np.ndarray) -> None:
        self._order = order
        self.repairs += 1
        if self.telemetry.enabled:
            self.telemetry.record_repair()

    # ------------------------------------------------------ prefix serving

    def _promotion_pool_mask(self, generator: np.random.Generator) -> np.ndarray:
        if self._selective:
            return self._promoted_mask
        state = self.state
        rule = self.ranker.promotion_rule
        context = RankingContext(
            popularity=state.popularity,
            awareness=state.pool.awareness,
            quality=state.pool.quality,
            ages=state.pool.ages(float(self.day)),
            monitored_population=state.pool.monitored_population,
        )
        return np.asarray(rule.select(context, generator), dtype=bool)

    def _merge_prefix(
        self,
        k: int,
        mask: np.ndarray,
        pool_count: int,
        generator: np.random.Generator,
    ) -> np.ndarray:
        """First ``k`` slots of the randomized merge, without building it all.

        Coin flips are drawn for the unprotected visible slots only, and the
        promoted entries are a uniform random ordered sample of the pool —
        the marginal distribution of the first slots of the full shuffle-
        and-merge.  Drain semantics match the full merge: whichever list
        runs out first cedes its remaining slots to the other.
        """
        n = self.state.n
        protected = min(self.policy.k - 1, k)
        open_slots = k - protected
        slots = np.zeros(k, dtype=bool)
        if open_slots > 0:
            slots[protected:] = generator.random(open_slots) < self.policy.r
        flipped = int(slots.sum())
        s = min(flipped, pool_count)
        n_unpromoted = n - pool_count
        if k - s > n_unpromoted:
            # Deterministic list drains within the page; tail comes from the pool.
            s = min(k - n_unpromoted, pool_count)
        if s < flipped:  # promotion pool drained: only the first s flips promote
            slots[np.flatnonzero(slots)[s:]] = False
        elif s > flipped:  # deterministic list drained: fill trailing slots
            slots[np.flatnonzero(~slots)[flipped - s:]] = True

        deterministic = self._unpromoted_prefix(k - s, mask)
        promoted = self._sample_pool(generator, mask, pool_count, s)
        page = np.empty(k, dtype=int)
        page[slots] = promoted
        page[~slots] = deterministic
        return page

    def _unpromoted_prefix(self, need: int, mask: np.ndarray) -> np.ndarray:
        """First ``need`` pages of the maintained order not in the pool."""
        if need <= 0:
            return np.zeros(0, dtype=int)
        n = self.state.n
        parts, got, start, chunk = [], 0, 0, max(4 * need, 64)
        while got < need and start < n:
            segment = self._order[start : start + chunk]
            segment = segment[~mask[segment]]
            if not parts and segment.size >= need:
                return segment[:need]  # common case: one chunk suffices
            parts.append(segment)
            got += segment.size
            start += chunk
            chunk *= 2
        return np.concatenate(parts)[:need]

    def _sample_pool(
        self,
        generator: np.random.Generator,
        mask: np.ndarray,
        pool_count: int,
        s: int,
    ) -> np.ndarray:
        """Uniform ordered sample of ``s`` distinct pool members."""
        if s <= 0:
            return np.zeros(0, dtype=int)
        n = mask.size
        if pool_count < max(1024, 4 * s) or 4 * pool_count < n:
            members = np.flatnonzero(mask)
            return members[generator.choice(members.size, size=s, replace=False)]
        # Dense pool: rejection sampling avoids materializing the member list.
        chosen: list = []
        seen = set()
        while len(chosen) < s:
            batch = generator.integers(0, n, size=max(16, 4 * (s - len(chosen))))
            for candidate in batch:
                candidate = int(candidate)
                if mask[candidate] and candidate not in seen:
                    seen.add(candidate)
                    chosen.append(candidate)
                    if len(chosen) == s:
                        break
        return np.asarray(chosen, dtype=int)


__all__ = ["ServingEngine"]
