"""Payments and transaction units (TUs).

A client submits a *payment demand* ``D = (sender, recipient, value)``.  The
smooth node serving the sender splits the demand into transaction units
whose sizes are bounded by the Min-TU and Max-TU system parameters (paper
section IV-D) and routes each unit independently; the payment completes when
every unit has been delivered before the payment's deadline.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Tuple

NodeId = Hashable

#: Paper defaults (section V-A).
PAPER_MIN_TU = 1.0
PAPER_MAX_TU = 4.0

#: Propagation + processing delay per channel hop (seconds): a unit or an
#: atomic payment settles this long after dispatch for every hop it takes.
HOP_DELAY = 0.02


class PaymentStatus(enum.Enum):
    """Lifecycle of a payment demand."""

    PENDING = "pending"
    IN_FLIGHT = "in_flight"
    COMPLETED = "completed"
    FAILED = "failed"


class FailureReason(str, enum.Enum):
    """Machine-readable cause attached to a failed payment.

    Every ``Payment.fail`` call site maps to exactly one of these codes; the
    metrics layer aggregates them into per-scheme failure breakdowns and the
    trace layer stamps them on terminal ``payment.fail`` spans.  Values are
    plain strings (``str`` subclass) so they serialize as-is in JSONL rows.
    """

    NO_PATH = "no-path"
    QUEUE_FULL = "queue-full"
    INSUFFICIENT_CAPACITY = "insufficient-capacity"
    LOCK_CONTENTION = "lock-contention"
    TIMEOUT = "timeout"
    DYNAMICS_RETIRED = "dynamics-retired"
    UNKNOWN = "unknown"


_payment_ids = itertools.count()
_unit_ids = itertools.count()


def split_value(
    value: float,
    min_tu: float = PAPER_MIN_TU,
    max_tu: float = PAPER_MAX_TU,
) -> List[float]:
    """Split a payment value into TU sizes bounded by ``[min_tu, max_tu]``.

    Every unit is at most ``max_tu``.  Every unit is at least ``min_tu``
    whenever that is arithmetically possible: an undersized remainder is
    folded into the last full unit and re-split in half, which yields two
    valid units as long as ``max_tu >= 2 * min_tu`` (true for the paper's
    1/4-token setting).  When no valid folding exists (a value below
    ``min_tu``, or a pathological ``max_tu < 2 * min_tu`` configuration) a
    single undersized unit is emitted instead.  The returned sizes always sum
    to ``value`` exactly (up to floating-point rounding).
    """
    if value <= 0:
        raise ValueError("payment value must be positive")
    if min_tu <= 0 or max_tu < min_tu:
        raise ValueError("need 0 < min_tu <= max_tu")
    if value <= max_tu:
        return [value]
    count = int(value // max_tu)
    remainder = value - count * max_tu
    units = [max_tu] * count
    if remainder > 1e-12:
        combined = max_tu + remainder
        if remainder >= min_tu:
            units.append(remainder)
        elif units and combined >= 2.0 * min_tu:
            # Fold the undersized remainder into the last full unit and
            # re-split that amount into two valid units.
            units[-1] = combined / 2.0
            units.append(combined / 2.0)
        else:
            units.append(remainder)
    return units


@dataclass
class TransactionUnit:
    """One independently-routed slice of a payment.

    Attributes:
        unit_id: Globally unique TU identifier (``tuid``).
        payment_id: Identifier of the parent payment.
        sender: Origin client of the parent payment.
        recipient: Destination client of the parent payment.
        value: Funds carried by this unit.
        path: Node sequence the unit is (or was) routed on; ``None`` until a
            path is chosen.
        created_at: Time the unit was created.
        deadline: Absolute time by which the unit must be delivered.
        delivered_at: Completion time, or ``None`` while in flight.
    """

    unit_id: int
    payment_id: int
    sender: NodeId
    recipient: NodeId
    value: float
    path: Optional[Tuple[NodeId, ...]] = None
    created_at: float = 0.0
    deadline: float = float("inf")
    delivered_at: Optional[float] = None

    @property
    def delivered(self) -> bool:
        """Whether the unit has reached its recipient."""
        return self.delivered_at is not None

    def expired(self, now: float) -> bool:
        """Whether the unit can no longer meet its deadline."""
        return not self.delivered and now > self.deadline


@dataclass
class Payment:
    """A client payment demand and its runtime state.

    Attributes:
        payment_id: Unique id (``tid``).
        sender: Paying client.
        recipient: Receiving client.
        value: Total payment value.
        created_at: Arrival time of the demand.
        deadline: Absolute completion deadline (arrival + timeout).
        units: Transaction units the payment was split into (empty until the
            routing layer splits it).
        status: Current lifecycle state.
        completed_at: Completion time when successful.
        delivered_value: Value delivered so far across completed units.
        hops_used: Total channel hops traversed by delivered units (for the
            traffic-overhead metric).
        failure_reason: Machine-readable failure code (a
            :class:`FailureReason` value) set by the first ``fail`` call that
            supplies one; ``None`` while the payment is live or completed.
    """

    payment_id: int
    sender: NodeId
    recipient: NodeId
    value: float
    created_at: float = 0.0
    deadline: float = float("inf")
    units: List[TransactionUnit] = field(default_factory=list)
    status: PaymentStatus = PaymentStatus.PENDING
    completed_at: Optional[float] = None
    delivered_value: float = 0.0
    hops_used: int = 0
    failure_reason: Optional[str] = None

    @classmethod
    def create(
        cls,
        sender: NodeId,
        recipient: NodeId,
        value: float,
        created_at: float = 0.0,
        *,
        timeout: float,
    ) -> "Payment":
        """Create a payment with a fresh id, due ``timeout`` after ``created_at``.

        Schemes pass their :attr:`~repro.baselines.base.RoutingScheme.timeout`.
        """
        if sender == recipient:
            raise ValueError("sender and recipient must differ")
        if value <= 0:
            raise ValueError("payment value must be positive")
        return cls(
            payment_id=next(_payment_ids),
            sender=sender,
            recipient=recipient,
            value=float(value),
            created_at=created_at,
            deadline=created_at + timeout,
        )

    def split(
        self,
        min_tu: float = PAPER_MIN_TU,
        max_tu: float = PAPER_MAX_TU,
        now: Optional[float] = None,
    ) -> List[TransactionUnit]:
        """Split the demand into TUs (idempotent: re-splitting is an error)."""
        if self.units:
            raise ValueError(f"payment {self.payment_id} is already split")
        creation_time = self.created_at if now is None else now
        for value in split_value(self.value, min_tu, max_tu):
            self.units.append(
                TransactionUnit(
                    unit_id=next(_unit_ids),
                    payment_id=self.payment_id,
                    sender=self.sender,
                    recipient=self.recipient,
                    value=value,
                    created_at=creation_time,
                    deadline=self.deadline,
                )
            )
        self.status = PaymentStatus.IN_FLIGHT
        return self.units

    # ------------------------------------------------------------------ #
    # state transitions used by the routing schemes / simulator
    # ------------------------------------------------------------------ #
    def record_unit_delivery(self, unit: TransactionUnit, now: float) -> None:
        """Mark one unit delivered; completes the payment when all are delivered."""
        if unit.payment_id != self.payment_id:
            raise ValueError("unit does not belong to this payment")
        unit.delivered_at = now
        self.delivered_value += unit.value
        if unit.path is not None:
            self.hops_used += max(len(unit.path) - 1, 0)
        if all(u.delivered for u in self.units):
            self.status = PaymentStatus.COMPLETED
            self.completed_at = now

    def complete(self, now: float, hops: int) -> None:
        """Deliver the whole value at once over ``hops`` channel hops.

        The outcome of an atomic multi-path settlement: the same fields a
        single full-value unit's :meth:`record_unit_delivery` would set,
        without building the unit.
        """
        self.delivered_value += self.value
        self.hops_used += hops
        self.status = PaymentStatus.COMPLETED
        self.completed_at = now

    def fail(self, reason: Optional["FailureReason"] = None) -> None:
        """Mark the payment failed, recording the first cause supplied.

        First-cause-wins: a payment aborted for lock contention and later
        swept by the expiry pass keeps ``lock-contention``.  The reason is
        stored as its plain string value so it serializes verbatim.
        """
        if self.status != PaymentStatus.COMPLETED:
            self.status = PaymentStatus.FAILED
            if reason is not None and self.failure_reason is None:
                self.failure_reason = FailureReason(reason).value

    @property
    def is_complete(self) -> bool:
        """Whether every unit has been delivered."""
        return self.status == PaymentStatus.COMPLETED

    @property
    def is_failed(self) -> bool:
        """Whether the payment has been abandoned."""
        return self.status == PaymentStatus.FAILED

    @property
    def outstanding_units(self) -> List[TransactionUnit]:
        """Units not yet delivered."""
        return [u for u in self.units if not u.delivered]

    @property
    def latency(self) -> Optional[float]:
        """Completion latency, or ``None`` if the payment has not completed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.created_at
