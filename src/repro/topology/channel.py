"""Bidirectional payment channels.

A payment channel is the basic funding primitive of a PCN.  Both endpoints
deposit collateral; funds can then be moved between the two sides off-chain.
The model here follows the behaviour the paper relies on:

* each direction has its own spendable balance,
* forwarding a payment first *locks* funds in the sending direction (the
  HTLC model of the Lightning Network), and only moves them to the other
  side when the downstream hop acknowledges (``settle``) -- or returns them
  on failure (``release``),
* the total amount of funds in the channel is conserved at all times, which
  is the invariant that makes local deadlocks possible in the first place
  (paper section II-B).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, Optional, Tuple

NodeId = Hashable

#: Tolerance for balance-sufficiency checks.  Shared by every execution path
#: that replays lock arithmetic (the array executor in
#: :mod:`repro.baselines.batch` and its scalar oracle) -- the two stay
#: bit-identical only while they test against this one constant.
EPS = 1e-9
_EPS = EPS


class ChannelError(Exception):
    """Base class for channel-level failures."""


class InsufficientFundsError(ChannelError):
    """Raised when a lock or transfer exceeds the spendable directional balance."""


class ChannelClosedError(ChannelError):
    """Raised when operating on a channel that has been closed."""


class UnknownLockError(ChannelError):
    """Raised when settling or releasing a lock id the channel does not hold."""


@dataclass(frozen=True)
class ChannelLock:
    """An in-flight (HTLC-style) hold on channel funds.

    Attributes:
        lock_id: Unique identifier of the lock within its channel.
        sender: Endpoint whose directional balance the funds were taken from.
        amount: Locked amount.
        created_at: Simulation timestamp at which the lock was created.
        tag: Optional opaque tag (e.g. the transaction-unit id) for tracing.
    """

    lock_id: int
    sender: NodeId
    amount: float
    created_at: float = 0.0
    tag: Optional[str] = None


@dataclass
class ChannelStats:
    """Lifetime counters for a channel, used by the evaluation metrics."""

    locks_created: int = 0
    locks_settled: int = 0
    locks_released: int = 0
    volume_settled: float = 0.0
    max_locked: float = 0.0
    imbalance_samples: int = 0
    imbalance_sum: float = 0.0

    def record_imbalance(self, imbalance: float) -> None:
        """Accumulate an imbalance observation (|balance_a - balance_b| / capacity)."""
        self.imbalance_samples += 1
        self.imbalance_sum += imbalance

    @property
    def mean_imbalance(self) -> float:
        """Average observed imbalance, or 0.0 if never sampled."""
        if self.imbalance_samples == 0:
            return 0.0
        return self.imbalance_sum / self.imbalance_samples


class PaymentChannel:
    """A bidirectional payment channel between two PCN nodes.

    The channel tracks a spendable balance for each endpoint plus the set of
    in-flight locks.  ``balance(u) + balance(v) + locked_total == capacity``
    holds for the channel's whole lifetime.

    Args:
        node_a: First endpoint.
        node_b: Second endpoint.
        balance_a: Initial spendable funds on ``node_a``'s side.
        balance_b: Initial spendable funds on ``node_b``'s side.
        base_fee: Flat forwarding fee charged by the channel (tokens).
        fee_rate: Proportional forwarding fee (fraction of the forwarded value).
    """

    _id_counter = itertools.count()

    #: Class-wide counter bumped on every spendable-balance mutation of any
    #: channel.  Balance mirrors (the graph kernels' balance vector) compare
    #: it against the value they last synchronized at and skip the O(E)
    #: re-read when nothing moved; cross-network bumps only cause a spurious
    #: refresh, never staleness.
    balance_epoch = 0

    def __init__(
        self,
        node_a: NodeId,
        node_b: NodeId,
        balance_a: float,
        balance_b: float,
        base_fee: float = 0.0,
        fee_rate: float = 0.0,
    ) -> None:
        if node_a == node_b:
            raise ValueError("a payment channel needs two distinct endpoints")
        if balance_a < 0 or balance_b < 0:
            raise ValueError("initial channel balances must be non-negative")
        self.channel_id = next(PaymentChannel._id_counter)
        self.node_a = node_a
        self.node_b = node_b
        self._balances: Dict[NodeId, float] = {node_a: float(balance_a), node_b: float(balance_b)}
        PaymentChannel.balance_epoch += 1
        self._initial_balances: Dict[NodeId, float] = dict(self._balances)
        self._locks: Dict[int, ChannelLock] = {}
        self._lock_counter = itertools.count()
        self.base_fee = float(base_fee)
        self.fee_rate = float(fee_rate)
        self.closed = False
        self.stats = ChannelStats()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def endpoints(self) -> Tuple[NodeId, NodeId]:
        """The two endpoints of the channel, in construction order."""
        return (self.node_a, self.node_b)

    @property
    def capacity(self) -> float:
        """Total funds committed to the channel (both balances plus locks)."""
        return self._balances[self.node_a] + self._balances[self.node_b] + self.locked_total()

    def balance(self, node: NodeId) -> float:
        """Spendable balance on ``node``'s side of the channel."""
        self._check_member(node)
        return self._balances[node]

    def initial_balance(self, node: NodeId) -> float:
        """Balance deposited by ``node`` when the channel was opened."""
        self._check_member(node)
        return self._initial_balances[node]

    def other(self, node: NodeId) -> NodeId:
        """The endpoint opposite ``node``."""
        self._check_member(node)
        return self.node_b if node == self.node_a else self.node_a

    def locked_total(self, node: Optional[NodeId] = None) -> float:
        """Sum of in-flight locked funds, optionally restricted to one sender."""
        if node is None:
            return sum(lock.amount for lock in self._locks.values())
        self._check_member(node)
        return sum(lock.amount for lock in self._locks.values() if lock.sender == node)

    def locks(self) -> Iterator[ChannelLock]:
        """Iterate over the currently outstanding locks."""
        return iter(tuple(self._locks.values()))

    def imbalance(self) -> float:
        """Normalized balance skew in [0, 1]; 0 means perfectly balanced."""
        cap = self.capacity
        if cap <= _EPS:
            return 0.0
        return abs(self._balances[self.node_a] - self._balances[self.node_b]) / cap

    def can_send(self, sender: NodeId, amount: float) -> bool:
        """Whether ``sender`` currently has ``amount`` spendable in this channel."""
        if self.closed or amount < 0:
            return False
        self._check_member(sender)
        return self._balances[sender] + _EPS >= amount

    def forwarding_fee(self, amount: float) -> float:
        """Fee charged by the channel owner for forwarding ``amount``."""
        return self.base_fee + self.fee_rate * max(amount, 0.0)

    # ------------------------------------------------------------------ #
    # state transitions
    # ------------------------------------------------------------------ #
    def lock(
        self,
        sender: NodeId,
        amount: float,
        now: float = 0.0,
        tag: Optional[str] = None,
    ) -> int:
        """Lock ``amount`` of ``sender``'s balance for an in-flight payment.

        Returns the lock id; the funds leave the spendable balance but stay
        in the channel until :meth:`settle` or :meth:`release`.
        """
        self._check_open()
        self._check_member(sender)
        if amount < 0:
            raise ValueError("cannot lock a negative amount")
        if self._balances[sender] + _EPS < amount:
            raise InsufficientFundsError(
                f"channel {self.node_a!r}-{self.node_b!r}: {sender!r} has "
                f"{self._balances[sender]:.6f} < {amount:.6f}"
            )
        lock_id = next(self._lock_counter)
        self._balances[sender] -= amount
        if self._balances[sender] < 0:
            self._balances[sender] = 0.0
        PaymentChannel.balance_epoch += 1
        self._locks[lock_id] = ChannelLock(lock_id, sender, float(amount), now, tag)
        self.stats.locks_created += 1
        self.stats.max_locked = max(self.stats.max_locked, self.locked_total())
        return lock_id

    def settle(self, lock_id: int) -> float:
        """Complete a lock: the funds move to the receiving endpoint."""
        self._check_open()
        lock = self._pop_lock(lock_id)
        receiver = self.other(lock.sender)
        self._balances[receiver] += lock.amount
        PaymentChannel.balance_epoch += 1
        self.stats.locks_settled += 1
        self.stats.volume_settled += lock.amount
        self.stats.record_imbalance(self.imbalance())
        return lock.amount

    def release(self, lock_id: int) -> float:
        """Abort a lock: the funds return to the sender's spendable balance."""
        self._check_open()
        lock = self._pop_lock(lock_id)
        self._balances[lock.sender] += lock.amount
        PaymentChannel.balance_epoch += 1
        self.stats.locks_released += 1
        return lock.amount

    def transfer(self, sender: NodeId, amount: float, now: float = 0.0) -> None:
        """Atomically move ``amount`` from ``sender`` to the other endpoint.

        Convenience wrapper equivalent to ``settle(lock(sender, amount))``.
        """
        self.settle(self.lock(sender, amount, now=now))

    def rebalance(self, target_ratio: float = 0.5) -> None:
        """Re-split the spendable funds between the two sides.

        Used by rebalancing baselines (e.g. Revive-style schemes) and by test
        fixtures; in-flight locks are left untouched.

        Args:
            target_ratio: Fraction of the spendable funds to give to
                ``node_a`` (the remainder goes to ``node_b``).
        """
        self._check_open()
        if not 0.0 <= target_ratio <= 1.0:
            raise ValueError("target_ratio must be in [0, 1]")
        spendable = self._balances[self.node_a] + self._balances[self.node_b]
        self._balances[self.node_a] = spendable * target_ratio
        self._balances[self.node_b] = spendable * (1.0 - target_ratio)
        PaymentChannel.balance_epoch += 1

    def close(self) -> Dict[NodeId, float]:
        """Close the channel, releasing outstanding locks back to their senders.

        Returns the final settlement: spendable balance per endpoint.
        """
        if self.closed:
            raise ChannelClosedError("channel already closed")
        for lock_id in list(self._locks):
            self.release(lock_id)
        self.closed = True
        return dict(self._balances)

    # ------------------------------------------------------------------ #
    # snapshot / restore (used by the simulator to replay a topology)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[NodeId, float]:
        """Capture the current spendable balances (locks must be drained)."""
        if self._locks:
            raise ChannelError("cannot snapshot a channel with in-flight locks")
        return dict(self._balances)

    def restore(self, balances: Dict[NodeId, float]) -> None:
        """Restore spendable balances from a prior :meth:`snapshot`."""
        if set(balances) != {self.node_a, self.node_b}:
            raise ValueError("snapshot endpoints do not match the channel")
        if self._locks:
            raise ChannelError("cannot restore a channel with in-flight locks")
        self._balances = {node: float(amount) for node, amount in balances.items()}
        PaymentChannel.balance_epoch += 1

    def balance_pair(self) -> Tuple[float, float]:
        """Both spendable balances ``(node_a's, node_b's)`` in one call.

        Read primitive for array mirrors (the graph kernels' balance
        vector, the baselines' balance arrays) that re-read every channel at
        synchronization points; one attribute walk instead of two
        member-checked :meth:`balance` calls.
        """
        balances = self._balances
        return balances[self.node_a], balances[self.node_b]

    def write_balances(self, balance_a: float, balance_b: float) -> None:
        """Overwrite the spendable balances without touching in-flight locks.

        Synchronization primitive for array-backed execution engines that own
        the balance evolution between flush points: unlike :meth:`restore` it
        is valid while locks are outstanding (the locked funds stay locked and
        are still released/settled through the normal lock lifecycle).

        Args:
            balance_a: New spendable balance on ``node_a``'s side.
            balance_b: New spendable balance on ``node_b``'s side.
        """
        if balance_a < 0 or balance_b < 0:
            raise ValueError("spendable balances must be non-negative")
        self._balances[self.node_a] = float(balance_a)
        self._balances[self.node_b] = float(balance_b)
        PaymentChannel.balance_epoch += 1

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _pop_lock(self, lock_id: int) -> ChannelLock:
        try:
            return self._locks.pop(lock_id)
        except KeyError:
            raise UnknownLockError(f"unknown lock id {lock_id}") from None

    def _check_member(self, node: NodeId) -> None:
        if node not in self._balances:
            raise KeyError(f"{node!r} is not an endpoint of this channel")

    def _check_open(self) -> None:
        if self.closed:
            raise ChannelClosedError("channel is closed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PaymentChannel({self.node_a!r}<->{self.node_b!r}, "
            f"{self._balances[self.node_a]:.1f}/{self._balances[self.node_b]:.1f}, "
            f"locked={self.locked_total():.1f})"
        )
