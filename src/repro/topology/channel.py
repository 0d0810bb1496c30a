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
from array import array
from math import inf
from typing import Dict, Hashable, Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

NodeId = Hashable

#: Tolerance for balance-sufficiency checks.  Shared by every execution path
#: that replays lock arithmetic (the batched executor in
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


class ChannelLock(NamedTuple):
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


class BalanceStore:
    """Flat float64 store of spendable balances, two entries per channel.

    ``values[2 * i]`` and ``values[2 * i + 1]`` are the ``node_a`` / ``node_b``
    side balances of ``channels[i]``; the store stays dense, so a network's
    whole balance state is one C double buffer that snapshot and restore copy,
    the CSR kernels gather from, and the atomic baselines' executor reads and
    writes in place.  A
    :class:`~repro.topology.network.PCNetwork` owns one store for all of its
    channels; a stand-alone (or removed) channel owns a private two-entry one
    through the same code path.

    Attributes:
        values: The balances (``array('d')``: unboxed doubles read back as
            Python floats).
        channels: The channel views bound by :meth:`adopt`, in slot order.
        version: Bumped on every balance mutation of this store (the
            channels' own and the atomic executor's); the CSR kernels'
            balance vector compares it against the value it last gathered at.
        open_locks: Number of in-flight locks across the store's channels.
    """

    __slots__ = ("values", "channels", "version", "open_locks")

    def __init__(self, values: Iterable[float] = ()) -> None:
        self.values = array("d", values)
        self.channels: List["PaymentChannel"] = []
        self.version = 0
        self.open_locks = 0

    def as_array(self) -> np.ndarray:
        """A float64 ndarray *view* of :attr:`values`, for gathers and checks.

        The buffer cannot grow while a view of it is alive: use the view
        within one call and never store it.
        """
        return np.frombuffer(self.values, dtype=np.float64)

    def overwrite(self, balances: "array[float]") -> None:
        """Replace every balance at once, validated in one vectorised pass.

        :meth:`PaymentChannel.write_balances` for the whole store: a negative
        or non-finite entry is a ``ValueError`` and nothing is written.
        """
        if len(balances) != len(self.values):
            raise ValueError("balance array does not match the store's size")
        check = np.frombuffer(balances, dtype=np.float64)
        if check.size and not (np.isfinite(check).all() and check.min() >= 0.0):
            raise ValueError("spendable balances must be non-negative and finite")
        self.values[:] = balances
        self.version += 1

    def adopt(self, channel: "PaymentChannel") -> None:
        """Append a freshly constructed (lock-free) channel: its balances move in here."""
        source, start = channel._store, channel._index
        channel._store, channel._index = self, len(self.values)
        self.values.extend(source.values[start : start + 2])
        self.channels.append(channel)
        self.version += 1

    def release(self, channel: "PaymentChannel") -> None:
        """Detach a closed channel onto a private store of its own.

        The last channel takes over the vacated pair of entries, which keeps
        the store dense (and is why slot order is insertion order only until
        the first removal).
        """
        values, index = self.values, channel._index
        channel._store, channel._index = BalanceStore(values[index : index + 2]), 0
        last = self.channels.pop()
        if last is not channel:
            values[index : index + 2] = values[-2:]
            last._index = index
            self.channels[index // 2] = last
        del values[-2:]
        self.version += 1


def _not_an_endpoint(node: NodeId) -> KeyError:
    return KeyError(f"{node!r} is not an endpoint of this channel")


class PaymentChannel:
    """A bidirectional payment channel between two PCN nodes.

    The channel tracks a spendable balance for each endpoint plus the set of
    in-flight locks.  ``balance(u) + balance(v) + locked_total == capacity``
    holds for the channel's whole lifetime.  The two spendable balances live
    in a :class:`BalanceStore` -- the owning network's, or a private one --
    and the channel is a view ``(store, index)`` onto them.

    Args:
        node_a: First endpoint.
        node_b: Second endpoint.
        balance_a: Initial spendable funds on ``node_a``'s side.
        balance_b: Initial spendable funds on ``node_b``'s side.
        base_fee: Flat forwarding fee charged by the channel (tokens).
        fee_rate: Proportional forwarding fee (fraction of the forwarded value).
    """

    __slots__ = (
        "channel_id",
        "node_a",
        "node_b",
        "_store",
        "_index",
        "_initial_a",
        "_initial_b",
        "_locks",
        "_next_lock_id",
        "base_fee",
        "fee_rate",
        "closed",
    )

    _id_counter = itertools.count()

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
        self._initial_a = float(balance_a)
        self._initial_b = float(balance_b)
        self._store = BalanceStore((self._initial_a, self._initial_b))
        self._index = 0
        self._locks: Dict[int, ChannelLock] = {}
        self._next_lock_id = 0
        self.base_fee = float(base_fee)
        self.fee_rate = float(fee_rate)
        self.closed = False

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def endpoints(self) -> Tuple[NodeId, NodeId]:
        """The two endpoints of the channel, in construction order."""
        return (self.node_a, self.node_b)

    @property
    def store_index(self) -> int:
        """Where ``node_a``'s balance sits in the store (``node_b``'s is next)."""
        return self._index

    @property
    def capacity(self) -> float:
        """Total funds committed to the channel (both balances plus locks)."""
        balance_a, balance_b = self.balance_pair()
        return balance_a + balance_b + self.locked_total()

    def balance(self, node: NodeId) -> float:
        """Spendable balance on ``node``'s side of the channel."""
        if node == self.node_a:  # the hot read: ``_side`` inlined
            return self._store.values[self._index]
        if node == self.node_b:
            return self._store.values[self._index + 1]
        raise _not_an_endpoint(node)

    def initial_balance(self, node: NodeId) -> float:
        """Balance deposited by ``node`` when the channel was opened."""
        return self._initial_b if self._side(node) else self._initial_a

    def other(self, node: NodeId) -> NodeId:
        """The endpoint opposite ``node``."""
        return self.node_a if self._side(node) else self.node_b

    def locked_total(self, node: Optional[NodeId] = None) -> float:
        """Sum of in-flight locked funds, optionally restricted to one sender."""
        if node is None:
            return sum(lock.amount for lock in self._locks.values())
        self._side(node)
        return sum(lock.amount for lock in self._locks.values() if lock.sender == node)

    def locks(self) -> Iterator[ChannelLock]:
        """Iterate over the currently outstanding locks."""
        return iter(tuple(self._locks.values()))

    def imbalance(self) -> float:
        """Normalized balance skew in [0, 1]; 0 means perfectly balanced."""
        cap = self.capacity
        if cap <= _EPS:
            return 0.0
        balance_a, balance_b = self.balance_pair()
        return abs(balance_a - balance_b) / cap

    def can_send(self, sender: NodeId, amount: float) -> bool:
        """Whether ``sender`` currently has ``amount`` spendable in this channel."""
        if self.closed or amount < 0:
            return False
        return self.balance(sender) + _EPS >= amount

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
        store = self._store
        slot = self._index + self._side(sender)
        if amount < 0:
            raise ValueError("cannot lock a negative amount")
        balance = store.values[slot]
        if balance + _EPS < amount:
            raise InsufficientFundsError(
                f"channel {self.node_a!r}-{self.node_b!r}: {sender!r} has "
                f"{balance:.6f} < {amount:.6f}"
            )
        lock_id = self._next_lock_id
        self._next_lock_id = lock_id + 1
        balance -= amount
        store.values[slot] = 0.0 if balance < 0 else balance
        store.version += 1
        store.open_locks += 1
        self._locks[lock_id] = ChannelLock(lock_id, sender, float(amount), now, tag)
        return lock_id

    def settle(self, lock_id: int) -> float:
        """Complete a lock: the funds move to the receiving endpoint."""
        self._check_open()
        lock = self._pop_lock(lock_id)
        store = self._store
        store.values[self._index + 1 - self._side(lock.sender)] += lock.amount
        store.version += 1
        return lock.amount

    def release(self, lock_id: int) -> float:
        """Abort a lock: the funds return to the sender's spendable balance."""
        self._check_open()
        lock = self._pop_lock(lock_id)
        store = self._store
        store.values[self._index + self._side(lock.sender)] += lock.amount
        store.version += 1
        return lock.amount

    def transfer(self, sender: NodeId, amount: float, now: float = 0.0) -> None:
        """Atomically move ``amount`` from ``sender`` to the other endpoint.

        Convenience wrapper equivalent to ``settle(lock(sender, amount))``.
        """
        self.settle(self.lock(sender, amount, now=now))

    def close(self) -> Dict[NodeId, float]:
        """Close the channel, releasing outstanding locks back to their senders.

        Returns the final settlement: spendable balance per endpoint.
        """
        if self.closed:
            raise ChannelClosedError("channel already closed")
        for lock_id in list(self._locks):
            self.release(lock_id)
        self.closed = True
        return self._balance_dict()

    # ------------------------------------------------------------------ #
    # snapshot / restore (used by the simulator to replay a topology)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[NodeId, float]:
        """Capture the current spendable balances (locks must be drained)."""
        if self._locks:
            raise ChannelError("cannot snapshot a channel with in-flight locks")
        return self._balance_dict()

    def restore(self, balances: Dict[NodeId, float]) -> None:
        """Restore spendable balances from a prior :meth:`snapshot`.

        Validates like :meth:`write_balances`: a negative or non-finite
        balance is a ``ValueError``.
        """
        if set(balances) != {self.node_a, self.node_b}:
            raise ValueError("snapshot endpoints do not match the channel")
        if self._locks:
            raise ChannelError("cannot restore a channel with in-flight locks")
        self.write_balances(balances[self.node_a], balances[self.node_b])

    def balance_pair(self) -> Tuple[float, float]:
        """Both spendable balances ``(node_a's, node_b's)`` in one call."""
        values, index = self._store.values, self._index
        return values[index], values[index + 1]

    def write_balances(self, balance_a: float, balance_b: float) -> None:
        """Overwrite the spendable balances without touching in-flight locks.

        The validated write behind :meth:`restore`; unlike ``restore`` it is
        valid while locks are outstanding (the locked funds stay locked and
        are still released/settled through the normal lock lifecycle).

        Args:
            balance_a: New spendable balance on ``node_a``'s side.
            balance_b: New spendable balance on ``node_b``'s side.
        """
        if not (0 <= balance_a < inf and 0 <= balance_b < inf):
            raise ValueError("spendable balances must be non-negative and finite")
        self._write(balance_a, balance_b)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _write(self, balance_a: float, balance_b: float) -> None:
        store, index = self._store, self._index
        store.values[index] = balance_a
        store.values[index + 1] = balance_b
        store.version += 1

    def _balance_dict(self) -> Dict[NodeId, float]:
        balance_a, balance_b = self.balance_pair()
        return {self.node_a: balance_a, self.node_b: balance_b}

    def _pop_lock(self, lock_id: int) -> ChannelLock:
        try:
            lock = self._locks.pop(lock_id)
        except KeyError:
            raise UnknownLockError(f"unknown lock id {lock_id}") from None
        self._store.open_locks -= 1
        return lock

    def _side(self, node: NodeId) -> int:
        """0 for ``node_a``, 1 for ``node_b``; ``KeyError`` for anyone else."""
        if node == self.node_a:
            return 0
        if node == self.node_b:
            return 1
        raise _not_an_endpoint(node)

    def _check_open(self) -> None:
        if self.closed:
            raise ChannelClosedError("channel is closed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        balance_a, balance_b = self.balance_pair()
        return (
            f"PaymentChannel({self.node_a!r}<->{self.node_b!r}, "
            f"{balance_a:.1f}/{balance_b:.1f}, "
            f"locked={self.locked_total():.1f})"
        )
