"""Spans recorded by the benchmark itself, around its calls into each layer.

The program under test carries no instrumentation for this: the traced pass
drives the layers' public functions and brackets each call with
:meth:`Tracer.span`.  Spans stay in memory until the run ends.  A span's
*self time* is its duration minus the part its child spans cover, so the
layer totals of one traced pass add up to its wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple


class Span:
    """One timed interval: name, start, end, causing span, run identifier."""

    __slots__ = ("name", "start", "end", "parent", "run")

    def __init__(self, name: str, start: float, parent: Optional[int], run: str) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
        }


class Tracer:
    """Collects nested spans; ``run`` labels the shard the spans belong to."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.run = ""
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = len(self.spans)
        span = Span(name, self.clock(), self._open[-1] if self._open else None, self.run)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in recording order."""
        return [span.duration for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> List[float]:
        """Per span: its duration minus its direct children's durations."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def self_total(self, name: str) -> float:
        return sum(
            own for span, own in zip(self.spans, self.self_times()) if span.name == name
        )

    def dump(self) -> List[Dict[str, object]]:
        return [span.as_dict() for span in self.spans]


class SchemeProxy:
    """A routing scheme whose lifecycle calls are recorded as spans.

    The experiment runner drives a scheme through ``prepare``,
    ``route_batch``, ``step``, ``finish`` and ``flush_state``; the proxy
    brackets exactly those and forwards everything else untouched, so a
    proxied run takes the same decisions as a bare one.  It also counts the
    work the simulator hands over: batches, payments and distinct
    sender-recipient pairs.
    """

    def __init__(self, scheme, tracer: Tracer, prefix: str) -> None:
        self._scheme = scheme
        self._tracer = tracer
        self._prefix = prefix
        self.batches = 0
        self.payments = 0
        self.ticks = 0
        self.pairs: Set[Tuple[object, object]] = set()

    def __getattr__(self, name: str):
        return getattr(self._scheme, name)

    def prepare(self, network, rng=None) -> None:
        with self._tracer.span(f"{self._prefix}.prepare"):
            self._scheme.prepare(network, rng=rng)

    def route_batch(self, requests: Sequence) -> List:
        self.batches += 1
        self.payments += len(requests)
        self.pairs.update((request.sender, request.recipient) for request in requests)
        with self._tracer.span(f"{self._prefix}.route_batch"):
            return self._scheme.route_batch(requests)

    def step(self, now: float, dt: float):
        self.ticks += 1
        with self._tracer.span(f"{self._prefix}.step"):
            return self._scheme.step(now, dt)

    def finish(self, now: float):
        with self._tracer.span(f"{self._prefix}.step"):
            return self._scheme.finish(now)

    def flush_state(self) -> None:
        with self._tracer.span(f"{self._prefix}.flush_state"):
            self._scheme.flush_state()
