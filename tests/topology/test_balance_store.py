"""The flat balance store: layout, snapshot / restore, the kernels' gather."""

from __future__ import annotations

import gc
import math
import tracemalloc

import numpy as np
import pytest

from repro.scenarios.dynamics import ChannelClose, ChannelOpen
from repro.simulator.experiment import ExperimentRunner
from repro.simulator.workload import WorkloadConfig, generate_workload
from repro.topology.channel import ChannelError, ChannelLock, PaymentChannel
from repro.topology.generators import watts_strogatz_pcn
from repro.topology.network import PCNetwork


def _skewed_network(nodes: int = 60, seed: int = 5) -> PCNetwork:
    network = watts_strogatz_pcn(nodes, nearest_neighbors=4, rewire_probability=0.3, seed=seed)
    rng = np.random.default_rng(seed)
    for channel in network.channels():
        channel.transfer(channel.node_a, float(rng.uniform(0.0, channel.balance(channel.node_a))))
    return network


def _pairs(network: PCNetwork):
    return {channel.endpoints: channel.balance_pair() for channel in network.channels()}


def _workload(network: PCNetwork, duration: float = 1.0):
    return generate_workload(network, WorkloadConfig(duration=duration, arrival_rate=5.0, seed=3))


class TestLayout:
    def test_no_instance_dicts(self):
        channel = PaymentChannel("a", "b", 1, 1)
        channel.lock("a", 0.5)
        lock = next(channel.locks())
        for instance in (channel, lock):
            assert not hasattr(instance, "__dict__"), type(instance).__name__
        assert isinstance(lock, ChannelLock)

    def test_store_is_dense_and_channels_are_views(self):
        network = _skewed_network()
        store = network.balance_store
        assert len(store.values) == 2 * network.channel_count()
        for position, channel in enumerate(store.channels):
            assert channel.store_index == 2 * position
            assert channel.balance_pair() == tuple(store.values[2 * position : 2 * position + 2])
        store.values[0] = 7.25
        assert store.channels[0].balance(store.channels[0].node_a) == 7.25

    def test_memory_budget_per_channel(self):
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc is already in use")
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            network = watts_strogatz_pcn(
                1000, nearest_neighbors=8, rewire_probability=0.25, seed=1
            )
            gc.collect()
            built = tracemalloc.get_traced_memory()[0]
            workload = _workload(network)
            gc.collect()
            before_runner = tracemalloc.get_traced_memory()[0]
            runner = ExperimentRunner(network, workload)
            gc.collect()
            after_runner = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        channels = network.channel_count()
        # 1,311 B / channel with dict-backed channels; 303 B + a fee table
        # for the dict-of-dicts snapshot.
        assert (built - start) / channels <= 800
        assert (after_runner - before_runner) / channels <= 128
        assert runner._snapshot == network.snapshot()


class TestSnapshotRestore:
    def test_restore_returns_every_balance(self, rebalance):
        network = _skewed_network()
        before = _pairs(network)
        snapshot = network.snapshot()
        for channel in network.channels():
            rebalance(channel, 0.25)
        assert _pairs(network) != before
        network.restore(snapshot)
        assert _pairs(network) == before

    def test_fast_path_iff_topology_version_unchanged(self, monkeypatch, rebalance):
        slow_calls = []
        original = PCNetwork._in_store_order
        monkeypatch.setattr(
            PCNetwork,
            "_in_store_order",
            lambda self, snapshot: slow_calls.append(1) or original(self, snapshot),
        )
        network = _skewed_network()
        before = _pairs(network)
        snapshot = network.snapshot()
        rebalance(next(network.channels()), 0.9)
        network.restore(snapshot)
        assert slow_calls == [] and _pairs(network) == before

        # Close -> reopen leaves the same channel set at a new version, with
        # the reopened channel in another slot.
        node_a, node_b = next(network.channels()).endpoints
        undo = ChannelClose(node_a=node_a, node_b=node_b).apply(network)
        undo()
        assert network.topology_version != snapshot.topology_version
        rebalance(next(network.channels()), 0.1)
        network.restore(snapshot)
        assert slow_calls == [1] and _pairs(network) == before
        assert network.snapshot() == snapshot

    def test_snapshot_of_another_network_takes_the_pair_walk(self, rebalance):
        network, twin = _skewed_network(), _skewed_network()
        for channel in twin.channels():
            rebalance(channel, 0.5)
        assert twin.topology_version == network.topology_version
        twin.restore(network.snapshot())
        assert _pairs(twin) == _pairs(network)

    def test_reset_after_churn_takes_the_reconcile_path(self, line_network, monkeypatch):
        removed = []
        original = PCNetwork.remove_channel
        monkeypatch.setattr(
            PCNetwork,
            "remove_channel",
            lambda self, a, b: removed.append((a, b)) or original(self, a, b),
        )
        lost = line_network.channel("n1", "n2")
        lost.base_fee, lost.fee_rate = 0.25, 0.01
        runner = ExperimentRunner(line_network, _workload(line_network), drain_time=0.5)
        before = _pairs(line_network)
        fees = {c.endpoints: (c.base_fee, c.fee_rate) for c in line_network.channels()}

        line_network.channel("n0", "n1").transfer("n0", 3.0)
        runner._reset_network()  # same version: nothing to reconcile
        assert removed == [] and _pairs(line_network) == before

        # One channel the snapshot knows is lost, one it does not know appears.
        line_network.remove_channel("n1", "n2")
        ChannelOpen(node_a="n0", node_b="n2", balance_a=5.0).apply(line_network)
        line_network.channel("n0", "n1").transfer("n0", 3.0)
        removed.clear()
        runner._reset_network()
        assert removed == [("n0", "n2")]
        assert _pairs(line_network) == before
        assert {
            c.endpoints: (c.base_fee, c.fee_rate) for c in line_network.channels()
        } == fees

    def test_restore_refuses_in_flight_locks(self):
        network = _skewed_network()
        snapshot = network.snapshot()
        channel = next(network.channels())
        channel.lock(channel.node_b, 0.0)
        with pytest.raises(ChannelError):
            network.restore(snapshot)
        with pytest.raises(ChannelError):
            network.snapshot()
        network.release_all_locks()
        network.restore(snapshot)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_restore_validates_like_write_balances(self, bad):
        network = _skewed_network()
        channel = next(network.channels())
        with pytest.raises(ValueError):
            channel.write_balances(bad, 1.0)
        with pytest.raises(ValueError):
            channel.restore({channel.node_a: 1.0, channel.node_b: bad})

        before = _pairs(network)
        snapshot = network.snapshot()
        snapshot.balances[3] = bad
        with pytest.raises(ValueError):
            network.restore(snapshot)
        assert _pairs(network) == before  # nothing was written

    def test_restore_refuses_foreign_endpoint_pairs(self):
        network = _skewed_network()
        before = _pairs(network)
        other = _skewed_network(nodes=40, seed=9)
        with pytest.raises(ValueError):
            network.restore(other.snapshot())
        snapshot = network.snapshot()
        network.remove_channel(*next(network.channels()).endpoints)
        with pytest.raises(ValueError):
            network.restore(snapshot)
        assert all(before[pair] == balances for pair, balances in _pairs(network).items())


class TestBalanceVector:
    def test_refresh_equals_the_per_channel_loop(self):
        network = _skewed_network()
        arrays = network.graph_arrays()
        arrays.refresh_balances()
        expected = [0.0] * arrays.slot_count
        for channel in network.channels():
            row_a, row_b = (arrays.node_row[node] for node in channel.endpoints)
            expected[arrays.slot_of[(row_a, row_b)]] = channel.balance(channel.node_a)
            expected[arrays.slot_of[(row_b, row_a)]] = channel.balance(channel.node_b)
        assert arrays.balance == expected
        assert arrays.balance_array.tolist() == expected
        assert all(type(value) is float for value in arrays.balance)

        channel = next(network.channels())
        channel.transfer(channel.node_b, channel.balance(channel.node_b) / 3)
        arrays.refresh_balances()
        row_a, row_b = (arrays.node_row[node] for node in channel.endpoints)
        assert arrays.balance[arrays.slot_of[(row_b, row_a)]] == channel.balance(channel.node_b)

    def test_networks_do_not_invalidate_each_other(self, monkeypatch, rebalance):
        first, second = _skewed_network(seed=1), _skewed_network(seed=2)
        arrays = first.graph_arrays()
        arrays.refresh_balances()
        writes = []
        original = type(arrays)._write_balances
        monkeypatch.setattr(
            type(arrays),
            "_write_balances",
            lambda self, slots, values: writes.append(self) or original(self, slots, values),
        )
        for channel in second.channels():
            rebalance(channel, 0.5)
        PaymentChannel("x", "y", 1.0, 1.0).transfer("x", 0.5)
        arrays.refresh_balances()
        assert writes == []
        rebalance(next(first.channels()), 0.5)
        arrays.refresh_balances()
        assert writes == [arrays]
