"""Property-based tests of the balance store against a plain two-float model.

Every channel of a small network is shadowed by ``[balance_a, balance_b]``
plus a lock table, updated with the channel's own arithmetic.  Random
scripts of channel operations interleaved with topology changes -- new
channels (the store's buffer grows), removals (the last channel moves into
the vacated slot, the removed one detaches onto a private store) and
close -> reopen dynamics -- must leave every balance ``==`` the model's.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.dynamics import ChannelClose
from repro.topology.network import PCNetwork

_NODES = [f"n{i}" for i in range(6)]
_ALL_PAIRS = [(a, b) for i, a in enumerate(_NODES) for b in _NODES[i + 1 :]]

_operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["lock", "settle", "release", "rebalance", "write", "open", "remove", "reopen"]
        ),
        st.integers(min_value=0, max_value=1000),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=1,
    max_size=60,
)


class _Model:
    """The two floats and the locks of one channel, in plain Python."""

    def __init__(self, balance_a: float, balance_b: float) -> None:
        self.sides = [float(balance_a), float(balance_b)]
        self.locks = {}

    def lock(self, lock_id: int, side: int, amount: float) -> None:
        self.sides[side] -= amount
        if self.sides[side] < 0:
            self.sides[side] = 0.0
        self.locks[lock_id] = (side, amount)

    def settle(self, lock_id: int) -> None:
        side, amount = self.locks.pop(lock_id)
        self.sides[1 - side] += amount

    def release(self, lock_id: int) -> None:
        side, amount = self.locks.pop(lock_id)
        self.sides[side] += amount

    def close(self) -> None:
        for lock_id in list(self.locks):
            self.release(lock_id)

    @property
    def capacity(self) -> float:
        return self.sides[0] + self.sides[1] + sum(amount for _, amount in self.locks.values())


def _check(network: PCNetwork, models, detached) -> None:
    store = network.balance_store
    assert len(store.values) == 2 * len(store.channels) == 2 * len(models)
    assert store.open_locks == sum(len(model.locks) for model in models.values())
    for position, channel in enumerate(store.channels):
        assert channel.store_index == 2 * position
    for channel, model in list(models.items()) + detached:
        assert channel.balance_pair() == tuple(model.sides)
        assert channel.balance(channel.node_b) == model.sides[1]
        assert channel.capacity == model.capacity
        assert min(channel.balance_pair()) >= 0.0


@settings(max_examples=120, deadline=None)
@given(operations=_operations)
def test_store_matches_a_plain_two_float_model(operations):
    network = PCNetwork()
    for node in _NODES:
        network.add_node(node)
    models = {}
    for (node_a, node_b), size in zip(_ALL_PAIRS[:4], (40.0, 55.5, 70.25, 12.0)):
        models[network.add_channel(node_a, node_b, size, size / 2)] = _Model(size, size / 2)
    detached = []  # (removed channel, its final model): must keep answering
    funds = sum(model.capacity for model in models.values())

    for kind, pick, fraction in operations:
        live = list(models)
        channel = live[pick % len(live)] if live else None
        model = models.get(channel)
        if kind == "open":
            free = [pair for pair in _ALL_PAIRS if not network.has_channel(*pair)]
            if free:
                node_a, node_b = free[pick % len(free)]
                size = 10.0 + 90.0 * fraction
                models[network.add_channel(node_a, node_b, size, size / 3)] = _Model(
                    size, size / 3
                )
                funds += size + size / 3
        elif channel is None:
            continue
        elif kind == "lock":
            side = pick % 2
            amount = model.sides[side] * fraction
            lock_id = channel.lock(channel.endpoints[side], amount)
            model.lock(lock_id, side, amount)
        elif kind in ("settle", "release") and model.locks:
            lock_id = sorted(model.locks)[pick % len(model.locks)]
            getattr(channel, kind)(lock_id)
            getattr(model, kind)(lock_id)
        elif kind == "rebalance":
            channel.rebalance(fraction)
            spendable = model.sides[0] + model.sides[1]
            model.sides = [spendable * fraction, spendable * (1.0 - fraction)]
        elif kind == "write":
            # Move value between the sides: write_balances itself conserves nothing.
            spendable = model.sides[0] + model.sides[1]
            model.sides = [spendable * fraction, spendable - spendable * fraction]
            channel.write_balances(*model.sides)
        elif kind == "remove":
            settlement = network.remove_channel(*channel.endpoints)
            model.close()
            assert settlement == dict(zip(channel.endpoints, model.sides))
            detached.append((channel, models.pop(channel)))
            funds -= model.capacity
        elif kind == "reopen":
            event = ChannelClose(node_a=channel.node_b, node_b=channel.node_a)
            undo = event.apply(network)
            model.close()
            detached.append((channel, models.pop(channel)))
            undo()
            reopened = network.channel(*channel.endpoints)
            assert reopened is not channel and reopened.endpoints == channel.endpoints
            models[reopened] = _Model(*model.sides)
        _check(network, models, detached)

    # Funds only enter with a new channel and leave with a removed one.
    assert abs(network.total_funds() - funds) <= 1e-9 * max(funds, 1.0)

    if not network.balance_store.open_locks:
        snapshot = network.snapshot()
        for channel in models:
            channel.rebalance(0.5)
        network.restore(snapshot)
        _check(network, models, detached)
