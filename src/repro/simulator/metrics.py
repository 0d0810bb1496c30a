"""Evaluation metrics.

The paper reports four quantities:

* **Transaction success ratio (TSR)** -- completed transactions over
  generated transactions,
* **Normalized throughput** -- value of completed payments over value of
  generated payments (which also normalizes by the maximum achievable
  throughput of the workload),
* **Average transaction delay** -- completion latency from arrival, which
  includes the client-to-hub (or source-computation) wait before routing,
* **Traffic overhead** -- control and synchronization messages (probes,
  management round trips, hub state synchronization) plus per-hop transfer
  messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from repro.routing.transaction import Payment


class _FloatBuffer:
    """Append-only float64 buffer with doubling growth.

    At the xl scale a scheme can complete tens of millions of payments; a
    Python list holds each delay as a boxed float (~4x the footprint of the
    packed array this keeps).  Values are stored as float64 in arrival
    order, so the percentile math in :meth:`MetricsCollector.finalize` sees
    exactly the array ``np.asarray(list)`` used to produce.
    """

    __slots__ = ("_data", "_size")

    def __init__(self, initial_capacity: int = 1024) -> None:
        self._data = np.empty(initial_capacity, dtype=np.float64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def append(self, value: float) -> None:
        if self._size == self._data.size:
            grown = np.empty(self._data.size * 2, dtype=np.float64)
            grown[: self._size] = self._data
            self._data = grown
        self._data[self._size] = value
        self._size += 1

    def view(self) -> np.ndarray:
        """Read-only window over the stored values (no copy)."""
        window = self._data[: self._size]
        window.flags.writeable = False
        return window


@dataclass
class SchemeMetrics:
    """Aggregated metrics of one scheme on one workload.

    Attributes:
        scheme: Scheme name.
        generated_count: Payments offered to the scheme.
        completed_count: Payments fully delivered before their deadline.
        failed_count: Payments that failed or expired.
        generated_value: Total value offered.
        completed_value: Total value of completed payments.
        success_ratio: ``completed_count / generated_count``.
        normalized_throughput: ``completed_value / generated_value``.
        average_delay: Mean completion latency (seconds) from arrival,
            pre-routing wait included; 0.0 when nothing completed.
        median_delay: Median completion latency.
        p90_delay: 90th-percentile completion latency -- the tail the
            paper's delay plots actually compare (0.0 when nothing completed).
        p99_delay: 99th-percentile completion latency.
        overhead_messages: Total control-plane messages (probes, management,
            synchronization).
        transfer_hops: Total channel hops traversed by delivered units.
        fees_paid: Total forwarding fees collected.
        failure_reasons: Failed-payment counts keyed by machine-readable
            reason code (see :class:`repro.routing.transaction.FailureReason`);
            payments failed without a recorded cause count under ``unknown``.
    """

    scheme: str
    generated_count: int = 0
    completed_count: int = 0
    failed_count: int = 0
    generated_value: float = 0.0
    completed_value: float = 0.0
    success_ratio: float = 0.0
    normalized_throughput: float = 0.0
    average_delay: float = 0.0
    median_delay: float = 0.0
    p90_delay: float = 0.0
    p99_delay: float = 0.0
    overhead_messages: float = 0.0
    transfer_hops: int = 0
    fees_paid: float = 0.0
    failure_reasons: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary view used by the analysis tables."""
        row = {
            "scheme": self.scheme,
            "generated_count": self.generated_count,
            "completed_count": self.completed_count,
            "failed_count": self.failed_count,
            "generated_value": round(self.generated_value, 3),
            "completed_value": round(self.completed_value, 3),
            "success_ratio": round(self.success_ratio, 4),
            "normalized_throughput": round(self.normalized_throughput, 4),
            "average_delay": round(self.average_delay, 4),
            "median_delay": round(self.median_delay, 4),
            "p90_delay": round(self.p90_delay, 4),
            "p99_delay": round(self.p99_delay, 4),
            "overhead_messages": round(self.overhead_messages, 1),
            "transfer_hops": self.transfer_hops,
            "fees_paid": round(self.fees_paid, 4),
        }
        if self.failure_reasons:
            row["failure_reasons"] = {key: int(count) for key, count in sorted(self.failure_reasons.items())}
        return row


class MetricsCollector:
    """Accumulates per-payment outcomes for one scheme run."""

    def __init__(self, scheme: str) -> None:
        self.scheme = scheme
        self.generated_count = 0
        self.generated_value = 0.0
        self.completed_count = 0
        self.completed_value = 0.0
        self.failed_count = 0
        self.delays = _FloatBuffer()
        self.overhead_messages = 0.0
        self.transfer_hops = 0
        self.fees_paid = 0.0
        self.failure_reasons: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_generated(self, value: float) -> None:
        """A payment was offered to the scheme."""
        self.generated_count += 1
        self.generated_value += value

    def record_generated_batch(self, values: Sequence[float]) -> None:
        """A whole drained arrival batch was offered to the scheme.

        Delegates per value so batched and per-arrival runs stay bit-identical
        whatever record_generated accumulates.
        """
        for value in values:
            self.record_generated(value)

    def record_completed(self, payment: Payment) -> None:
        """A payment completed; its delay is its latency."""
        self.completed_count += 1
        self.completed_value += payment.value
        self.delays.append(payment.latency if payment.latency is not None else 0.0)
        self.transfer_hops += payment.hops_used

    def record_failed(self, payment: Payment) -> None:
        """A payment failed or expired; its reason code feeds the breakdown."""
        self.failed_count += 1
        reason = payment.failure_reason or "unknown"
        self.failure_reasons[reason] = self.failure_reasons.get(reason, 0) + 1

    def add_overhead(self, messages: float) -> None:
        """Add control-plane messages to the overhead counter."""
        self.overhead_messages += messages

    def add_fees(self, fees: float) -> None:
        """Add collected forwarding fees."""
        self.fees_paid += fees

    # ------------------------------------------------------------------ #
    # finalization
    # ------------------------------------------------------------------ #
    def finalize(self) -> SchemeMetrics:
        """Produce the aggregated metrics."""
        success_ratio = self.completed_count / self.generated_count if self.generated_count else 0.0
        throughput = self.completed_value / self.generated_value if self.generated_value else 0.0
        if len(self.delays):
            delays = self.delays.view()
            average_delay = float(np.mean(delays))
            median_delay = float(np.median(delays))
            p90_delay = float(np.percentile(delays, 90))
            p99_delay = float(np.percentile(delays, 99))
        else:
            average_delay = median_delay = p90_delay = p99_delay = 0.0
        return SchemeMetrics(
            scheme=self.scheme,
            generated_count=self.generated_count,
            completed_count=self.completed_count,
            failed_count=self.failed_count,
            generated_value=self.generated_value,
            completed_value=self.completed_value,
            success_ratio=success_ratio,
            normalized_throughput=throughput,
            average_delay=average_delay,
            median_delay=median_delay,
            p90_delay=p90_delay,
            p99_delay=p99_delay,
            overhead_messages=self.overhead_messages,
            transfer_hops=self.transfer_hops,
            fees_paid=self.fees_paid,
            failure_reasons=dict(self.failure_reasons),
        )
