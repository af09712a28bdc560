"""In-memory span tracer for the traced (per-layer) benchmark run.

A span has a name, a start, an end and a parent (the span open when it
began).  Spans are appended to flat lists while the run executes and only
summarised or written out after it ends.  Layer spans come from outside the
program: :meth:`Tracer.patch` shadows a public method on one object with a
timing wrapper, and :class:`KernelSpans` is the kernel-backend proxy
installed through ``repro.core.kernels.set_kernel_instrumentation``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List

from repro.core.kernels import KernelBackend

#: Name of the root span the benchmark opens around each timed operation.
OP_SPAN = "bench.op"


class Tracer:
    """Records nested spans of a single-threaded run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(-1)
        self._open.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, function, name: str):
        """``function`` with every call recorded as a span named ``name``."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                end(index)

        return traced

    def patch(self, obj, method: str, name: str) -> None:
        """Shadow ``obj.method`` on this one instance with a traced wrapper.

        ``object.__setattr__`` also reaches frozen dataclasses (the built-in
        rankers); calls the object makes to its own method go through the
        wrapper too, since instance attributes win over class attributes.
        """
        object.__setattr__(obj, method, self.wrap(getattr(obj, method), name))

    # ------------------------------------------------------------ summary

    def self_times_ns(self) -> List[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for start, end in zip(self.starts, self.ends, strict=True)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, total ``seconds`` and ``self_seconds``."""
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
        )
        for name, start, end, own in zip(
            self.names, self.starts, self.ends, self.self_times_ns(), strict=True
        ):
            row = table[name]
            row["calls"] += 1
            row["seconds"] += (end - start) * 1e-9
            row["self_seconds"] += own * 1e-9
        return dict(table)

    def negative_self_spans(self) -> int:
        """Spans whose children cover more than the span (double counting)."""
        return sum(1 for own in self.self_times_ns() if own < 0)

    def unattributed_share(self) -> float:
        """Share of the root op spans' time that no layer span covers."""
        total = own_total = 0
        for name, start, end, own in zip(
            self.names, self.starts, self.ends, self.self_times_ns(), strict=True
        ):
            if name == OP_SPAN:
                total += end - start
                own_total += own
        return own_total / total if total else 0.0

    def write(self, path) -> None:
        """Write every span (name, start, end, parent) as one JSON object."""
        catalogue = sorted(set(self.names))
        lookup = {name: index for index, name in enumerate(catalogue)}
        with open(path, "w") as handle:
            json.dump(
                {
                    "names": catalogue,
                    "name": [lookup[name] for name in self.names],
                    "start_ns": self.starts,
                    "end_ns": self.ends,
                    "parent": self.parents,
                },
                handle,
            )


def _kernel_method(kernel: str):
    span = "core.kernels." + kernel

    def method(self, *args, **kwargs):
        index = self._tracer.begin(span)
        try:
            return getattr(self._inner, kernel)(*args, **kwargs)
        finally:
            self._tracer.end(index)

    method.__name__ = kernel
    return method


class KernelSpans(KernelBackend):
    """Backend proxy recording one ``core.kernels.<kernel>`` span per call.

    Composite calls (``day_tail``) are timed as the caller sees them; the
    inner backend's own chaining is not re-entered through the proxy.
    """

    def __init__(self, inner: KernelBackend, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name

    rank_day = _kernel_method("rank_day")
    awareness_update = _kernel_method("awareness_update")
    visit_allocate = _kernel_method("visit_allocate")
    promotion_merge = _kernel_method("promotion_merge")
    lane_repair = _kernel_method("lane_repair")
    feedback_flush = _kernel_method("feedback_flush")
    day_tail = _kernel_method("day_tail")


@contextmanager
def kernel_spans(tracer: Tracer):
    """Install :class:`KernelSpans` for the duration of the block."""
    from repro.core.kernels import set_kernel_instrumentation

    proxies: Dict[str, KernelSpans] = {}

    def wrap(backend: KernelBackend) -> KernelSpans:
        proxy = proxies.get(backend.name)
        if proxy is None:
            proxy = proxies[backend.name] = KernelSpans(backend, tracer)
        return proxy

    set_kernel_instrumentation(wrap)
    try:
        yield
    finally:
        set_kernel_instrumentation(None)
