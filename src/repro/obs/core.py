"""Near-zero-overhead instrumentation core.

The module holds one process-global recorder, :data:`RECORDER`.  By default
it is the :class:`NullRecorder` singleton, whose ``enabled`` attribute is
``False`` and whose every method is a no-op -- hot paths guard their
instrumentation with::

    rec = obs.RECORDER
    if rec.enabled:
        rec.payment_event(payment, "lock_fail", now, channel=key)

so the disabled-mode cost is a module-attribute read plus one attribute
check, independent of how much a :class:`RunRecorder` would record.

A :class:`RunRecorder` combines the three consumers this layer feeds:

* **counters/timers** -- free-form named accumulators,
* **payment-lifecycle tracing** -- sampled structured spans written as one
  JSON object per line (see :mod:`repro.obs.report` for the reader),
* **epoch health telemetry** -- per-epoch network probes recorded as NPZ
  time series (:mod:`repro.obs.health`).

Sampling is *seeded and content-addressed*: whether a payment is traced is a
pure hash of ``(trace seed, sender, recipient, value, created_at)``, so the
same spec and seed produce the identical trace whatever the process, worker
count or interleaving -- and the decision never touches any simulation RNG,
which is what keeps results bit-identical with observability on or off.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from typing import IO, Dict, Iterator, List, Optional

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "RunRecorder",
    "TRACE_SCHEMA_VERSION",
    "get_recorder",
    "sample_hash",
    "set_recorder",
    "use_recorder",
]

#: Stamped on every trace header; bumped when the event schema changes.
TRACE_SCHEMA_VERSION = 1

#: Default fraction of payments whose lifecycle is traced.
DEFAULT_SAMPLE_RATE = 0.05


def sample_hash(seed: int, sender: object, recipient: object, value: float, created_at: float) -> float:
    """Deterministic uniform-in-[0, 1) draw for one payment's sampling decision.

    Content-addressed (no process-global counters, no simulation RNG): the
    same payment identity under the same trace seed hashes to the same draw
    on every platform and in every process.
    """
    material = repr((int(seed), sender, recipient, round(float(value), 9), round(float(created_at), 9)))
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    Hot paths only ever touch :attr:`enabled`; the method stubs exist so
    cold paths may record unconditionally without a guard.
    """

    enabled = False
    health = None

    def incr(self, name: str, amount: float = 1.0) -> None:
        pass

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        yield

    def set_scheme(self, name: Optional[str]) -> None:
        pass

    def trace_event(self, kind: str, t: float, **fields: object) -> None:
        pass

    def payment_begin(self, payment: object, t: Optional[float] = None) -> bool:
        return False

    def payment_event(self, payment: object, kind: str, t: float, **fields: object) -> None:
        pass

    def payment_end(self, payment: object, kind: str, t: float, **fields: object) -> None:
        pass

    def note_batch(self, scheme: str, size: int) -> None:
        pass

    def close(self) -> None:
        pass


#: The shared no-op instance; ``RECORDER is NULL_RECORDER`` means "off".
NULL_RECORDER = NullRecorder()

#: The process-global recorder consulted by every instrumentation site.
RECORDER: NullRecorder = NULL_RECORDER


def get_recorder() -> NullRecorder:
    """The currently installed recorder (the null recorder when disabled)."""
    return RECORDER


def set_recorder(recorder: Optional[NullRecorder]) -> NullRecorder:
    """Install ``recorder`` globally; ``None`` restores the null recorder."""
    global RECORDER
    RECORDER = NULL_RECORDER if recorder is None else recorder
    return RECORDER


@contextmanager
def use_recorder(recorder: Optional[NullRecorder]) -> Iterator[NullRecorder]:
    """Temporarily install ``recorder``, restoring the previous one on exit."""
    previous = RECORDER
    installed = set_recorder(recorder)
    try:
        yield installed
    finally:
        set_recorder(previous)


class RunRecorder(NullRecorder):
    """A live recorder: counters, sampled payment traces, health telemetry.

    Args:
        trace_path: JSONL trace destination; ``None`` keeps events in memory
            (:attr:`events`), which is what the tests read.
        sample_rate: Fraction of payments whose lifecycle spans are emitted.
        seed: Trace-sampling seed (independent of every simulation seed).
        health: Optional :class:`repro.obs.health.HealthRecorder` fed by the
            experiment runner's per-epoch probes.
    """

    enabled = True

    def __init__(
        self,
        trace_path: Optional[str] = None,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        seed: int = 0,
        health: Optional[object] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.trace_path = trace_path
        self.sample_rate = float(sample_rate)
        self.seed = int(seed)
        self.health = health
        self.counters: Dict[str, float] = {}
        self.events: List[Dict[str, object]] = []
        self.events_written = 0
        self.sampled_payments = 0
        self._scheme: Optional[str] = None
        #: payment_id -> stable per-trace payment index (sampled payments only).
        self._sampled: Dict[int, int] = {}
        #: payment ids hash-rejected, kept so repeat begins stay cheap no-ops.
        self._rejected: set = set()
        self._next_pid = 0
        self._handle: Optional[IO[str]] = None
        if trace_path is not None:
            self._handle = open(trace_path, "w", encoding="utf-8")
        self.trace_event(
            "trace.header",
            0.0,
            schema_version=TRACE_SCHEMA_VERSION,
            sample_rate=self.sample_rate,
            trace_seed=self.seed,
        )

    # ------------------------------------------------------------------ #
    # counters / timers
    # ------------------------------------------------------------------ #
    def incr(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the named counter."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate wall-clock seconds into counter ``time.<name>``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.incr(f"time.{name}", time.perf_counter() - started)

    # ------------------------------------------------------------------ #
    # tracing
    # ------------------------------------------------------------------ #
    def set_scheme(self, name: Optional[str]) -> None:
        """Stamp subsequent events with the scheme currently running."""
        self._scheme = name

    def trace_event(self, kind: str, t: float, **fields: object) -> None:
        """Emit one structured event (run/dynamics level, never sampled out)."""
        event: Dict[str, object] = {"kind": kind, "t": round(float(t), 9)}
        if self._scheme is not None:
            event["scheme"] = self._scheme
        event.update(fields)
        self._write(event)

    def payment_begin(self, payment: object, t: Optional[float] = None) -> bool:
        """Decide (idempotently) whether ``payment`` is traced; emit its arrival.

        Returns whether the payment is sampled.  The decision is a pure hash
        of the payment's identity under the trace seed, so it is identical
        across runs and processes.
        """
        payment_id = payment.payment_id  # type: ignore[attr-defined]
        if payment_id in self._sampled:
            return True
        if payment_id in self._rejected:
            return False
        draw = sample_hash(
            self.seed,
            payment.sender,  # type: ignore[attr-defined]
            payment.recipient,  # type: ignore[attr-defined]
            payment.value,  # type: ignore[attr-defined]
            payment.created_at,  # type: ignore[attr-defined]
        )
        if draw >= self.sample_rate:
            self._rejected.add(payment_id)
            return False
        pid = self._next_pid
        self._next_pid = pid + 1
        self._sampled[payment_id] = pid
        self.sampled_payments += 1
        created_at = payment.created_at  # type: ignore[attr-defined]
        self.trace_event(
            "payment.arrive",
            created_at if t is None else t,
            pid=pid,
            sender=payment.sender,  # type: ignore[attr-defined]
            recipient=payment.recipient,  # type: ignore[attr-defined]
            value=round(float(payment.value), 9),  # type: ignore[attr-defined]
            deadline=round(float(payment.deadline), 9),  # type: ignore[attr-defined]
        )
        return True

    def payment_event(self, payment: object, kind: str, t: float, **fields: object) -> None:
        """Emit a lifecycle span for a sampled payment (no-op otherwise).

        ``payment`` may be a payment object or a raw payment id (per-hop
        sites only hold the unit's ``payment_id``).
        """
        payment_id = getattr(payment, "payment_id", payment)
        pid = self._sampled.get(payment_id)  # type: ignore[arg-type]
        if pid is None:
            return
        self.trace_event(f"payment.{kind}", t, pid=pid, **fields)

    def payment_end(self, payment: object, kind: str, t: float, **fields: object) -> None:
        """Emit the terminal span (settle/fail) and retire the payment.

        Retiring keeps the sampled map bounded over million-payment runs.
        """
        payment_id = getattr(payment, "payment_id", payment)
        pid = self._sampled.pop(payment_id, None)  # type: ignore[arg-type]
        self._rejected.discard(payment_id)
        if pid is None:
            return
        self.trace_event(f"payment.{kind}", t, pid=pid, **fields)

    def note_batch(self, scheme: str, size: int) -> None:
        """Record one arrival-batch drain (size feeds the health telemetry)."""
        self.incr("arrivals.batches")
        self.incr("arrivals.requests", size)
        if self.health is not None:
            self.health.note_batch(scheme, size)

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def _write(self, event: Dict[str, object]) -> None:
        self.events_written += 1
        if self._handle is not None:
            self._handle.write(json.dumps(event, sort_keys=True, default=str) + "\n")
        else:
            self.events.append(event)

    def summary(self) -> Dict[str, object]:
        """JSON-safe digest referenced from result rows."""
        digest: Dict[str, object] = {
            "trace_events": self.events_written,
            "sampled_payments": self.sampled_payments,
            "sample_rate": self.sample_rate,
            "trace_seed": self.seed,
        }
        if self.trace_path is not None:
            digest["trace"] = self.trace_path
        if self.health is not None and getattr(self.health, "path", None) is not None:
            digest["health"] = self.health.path
        if self.counters:
            digest["counters"] = {key: round(value, 6) for key, value in sorted(self.counters.items())}
        return digest

    def close(self) -> None:
        """Flush the trace file and save the health NPZ (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            # Late events (none are expected) fall back to the in-memory list.
        if self.health is not None:
            self.health.save()
