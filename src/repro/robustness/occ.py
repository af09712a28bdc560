"""OCC write-path machinery: retry policy, flush reports, dead letters.

The result cache already validates on read (Laux & Laiho's versioned-row
read pattern); this module supplies the *write* half of the same access
pattern: a feedback commit carries the popularity-store version the writer
read, a conflicting commit is rejected without touching state, and the
writer retries with bounded, jittered exponential backoff.  A batch that
exhausts its attempts is dead-lettered — parked, counted, and available
for explicit redelivery — rather than silently dropped.

Everything here is deterministic under a seed: backoff jitter draws come
from the caller's seeded generator, so a chaos run's retry schedule is as
reproducible as its fault plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for conflicting feedback commits.

    Attributes:
        max_attempts: total commit attempts per batch (>= 1); the batch is
            dead-lettered after the last conflicting attempt.
        base_backoff_seconds: backoff before the first retry.
        backoff_multiplier: per-retry growth factor (>= 1).
        max_backoff_seconds: cap on a single backoff interval.
        jitter: fraction of each interval randomized away (0 = none,
            1 = full jitter down to zero); draws come from the seeded
            retry generator so schedules replay exactly.
    """

    max_attempts: int = 4
    base_backoff_seconds: float = 1e-4
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 0.05
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if int(self.max_attempts) != self.max_attempts or self.max_attempts < 1:
            raise ValueError(
                "max_attempts must be a positive integer, got %r" % (self.max_attempts,)
            )
        if self.base_backoff_seconds < 0:
            raise ValueError("base_backoff_seconds must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.max_backoff_seconds < 0:
            raise ValueError("max_backoff_seconds must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1], got %r" % (self.jitter,))

    def backoff_seconds(self, conflict_count: int, rng: np.random.Generator) -> float:
        """Backoff before the retry following the ``conflict_count``-th conflict.

        The deterministic schedule is ``min(cap, base * multiplier**(c-1))``;
        with jitter ``j`` the interval is scaled into
        ``[(1 - j) * delay, delay]`` by one uniform draw from ``rng``.
        """
        if conflict_count < 1:
            raise ValueError("conflict_count must be >= 1, got %d" % conflict_count)
        delay = min(
            self.max_backoff_seconds,
            self.base_backoff_seconds * self.backoff_multiplier ** (conflict_count - 1),
        )
        if self.jitter > 0.0 and delay > 0.0:
            delay *= 1.0 - self.jitter * float(rng.random())
        return delay


@dataclass
class FlushReport:
    """Structured outcome of one ``flush_feedback`` call.

    Callers (and the bench ``extra_info``) see the OCC write path's
    behaviour: how many events committed, how many commit attempts
    conflicted and were retried, and what was lost to scripted faults or
    dead-lettering.
    """

    batches: int = 0
    committed: int = 0
    conflicts: int = 0
    retries: int = 0
    dead_letter_batches: int = 0
    dead_letter_events: int = 0
    dropped_events: int = 0
    backoff_seconds: float = 0.0

    def merge(self, other: "FlushReport") -> "FlushReport":
        """Fold another report into this one (returns ``self``)."""
        self.batches += other.batches
        self.committed += other.committed
        self.conflicts += other.conflicts
        self.retries += other.retries
        self.dead_letter_batches += other.dead_letter_batches
        self.dead_letter_events += other.dead_letter_events
        self.dropped_events += other.dropped_events
        self.backoff_seconds += other.backoff_seconds
        return self

    def as_dict(self, prefix: str = "flush_") -> Dict[str, float]:
        return {
            prefix + "batches": float(self.batches),
            prefix + "committed": float(self.committed),
            prefix + "conflicts": float(self.conflicts),
            prefix + "retries": float(self.retries),
            prefix + "dead_letter_batches": float(self.dead_letter_batches),
            prefix + "dead_letter_events": float(self.dead_letter_events),
            prefix + "dropped_events": float(self.dropped_events),
            prefix + "backoff_seconds": float(self.backoff_seconds),
        }


@dataclass
class DeadLetter:
    """One feedback batch that exhausted its OCC commit attempts."""

    shard: int
    indices: np.ndarray
    visits: np.ndarray
    attempts: int

    @property
    def events(self) -> int:
        return int(self.indices.size)


@dataclass
class DeadLetterQueue:
    """Parked batches awaiting redelivery, with running totals."""

    letters: List[DeadLetter] = field(default_factory=list)
    total_batches: int = 0
    total_events: int = 0

    def __len__(self) -> int:
        return len(self.letters)

    def park(self, letter: DeadLetter) -> None:
        self.letters.append(letter)
        self.total_batches += 1
        self.total_events += letter.events

    def drain(self) -> List[DeadLetter]:
        """Remove and return every parked batch (totals are preserved)."""
        letters, self.letters = self.letters, []
        return letters


__all__ = [
    "RetryPolicy",
    "FlushReport",
    "DeadLetter",
    "DeadLetterQueue",
]
