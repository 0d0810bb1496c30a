"""Tests for the shared-memory topology blocks.

Covers the block's contract: order-preserving export/reconstruction
(bit-identical fingerprints and snapshots), read-only enforcement on the
shared views, creator-side lifecycle (explicit unlink, idempotency, and the
``weakref.finalize`` crash guard), self-contained reconstruction (the
rebuilt network outlives the mapping and shares no memory with it), and the
``build_experiment(seed, network=...)`` contract a block-backed caller
relies on: a rebuilt network runs the same experiment as a built one.
"""

import gc
import json

import numpy as np
import pytest

from repro.scenarios.registry import build_comparison_spec
from repro.scenarios.spec import derive_seed
from repro.topology.generators import multi_star_pcn, watts_strogatz_pcn
from repro.topology.shared import SharedArrayBlock, SharedTopologyBlock


def _ws_network(seed: int = 7):
    return watts_strogatz_pcn(
        30,
        nearest_neighbors=4,
        rewire_probability=0.2,
        uniform_channel_size=200.0,
        candidate_fraction=0.2,
        seed=seed,
    )


@pytest.fixture
def exported(request):
    """A fresh exported block, unlinked after the test."""
    network = _ws_network()
    block = SharedTopologyBlock.from_network(network)
    request.addfinalizer(block.unlink)
    return network, block


class TestSharedArrayBlock:
    def test_round_trips_arrays_and_meta(self):
        arrays = {
            "a": np.arange(10, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 7),
            "empty": np.empty(0, dtype=np.float64),
        }
        block = SharedArrayBlock.create(arrays, {"tag": "unit"})
        try:
            attached = SharedArrayBlock.attach(block.name)
            assert attached.meta == {"tag": "unit"}
            for key, array in arrays.items():
                np.testing.assert_array_equal(attached.arrays[key], array)
            attached.close()
        finally:
            block.unlink()

    def test_views_are_read_only_on_both_sides(self):
        block = SharedArrayBlock.create({"a": np.arange(4, dtype=np.int64)}, {})
        try:
            with pytest.raises(ValueError):
                block.arrays["a"][0] = 99
            attached = SharedArrayBlock.attach(block.name)
            with pytest.raises(ValueError):
                attached.arrays["a"][0] = 99
            # The failed writes must not have leaked through.
            np.testing.assert_array_equal(attached.arrays["a"], np.arange(4))
            attached.close()
        finally:
            block.unlink()

    def test_attach_rejects_foreign_segments(self):
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=64)
        try:
            with pytest.raises(ValueError, match="not a shared array block"):
                SharedArrayBlock.attach(segment.name)
        finally:
            segment.close()
            segment.unlink()

    def test_unlink_is_idempotent_and_destroys_segment(self):
        block = SharedArrayBlock.create({"a": np.arange(3)}, {})
        name = block.name
        block.unlink()
        block.unlink()  # second call must not raise
        with pytest.raises(FileNotFoundError):
            SharedArrayBlock.attach(name)

    def test_finalizer_unlinks_after_crash(self):
        # A sweep that dies without reaching its finally-cleanup drops the
        # parent's reference; the weakref.finalize guard must unlink the
        # segment so /dev/shm does not accumulate orphans.
        block = SharedArrayBlock.create({"a": np.arange(5)}, {})
        name = block.name
        del block
        gc.collect()
        with pytest.raises(FileNotFoundError):
            SharedArrayBlock.attach(name)


class TestTopologyRoundTrip:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: _ws_network(),
            lambda: multi_star_pcn(hub_count=3, clients_per_hub=4),
        ],
        ids=["watts-strogatz", "multi-star"],
    )
    def test_reconstruction_is_bit_identical(self, factory):
        network = factory()
        block = SharedTopologyBlock.from_network(network)
        try:
            attached = SharedTopologyBlock.attach(block.name)
            rebuilt = attached.build_network()
            assert rebuilt.topology_fingerprint() == network.topology_fingerprint()
            assert rebuilt.snapshot() == network.snapshot()
            assert [c.endpoints for c in rebuilt.channels()] == [
                c.endpoints for c in network.channels()
            ]
            assert list(rebuilt.adj) == list(network.adj)
            for node in network.adj:
                assert list(rebuilt.adj[node]) == list(network.adj[node])
                assert rebuilt.node_attrs(node) == network.node_attrs(node)
        finally:
            block.unlink()

    def test_fees_and_balances_survive(self, exported):
        network, block = exported
        rebuilt = SharedTopologyBlock.attach(block.name).build_network()
        for channel in network.channels():
            twin = rebuilt.channel(*channel.endpoints)
            assert twin.balance(channel.node_a) == channel.balance(channel.node_a)
            assert twin.balance(channel.node_b) == channel.balance(channel.node_b)
            assert twin.base_fee == channel.base_fee
            assert twin.fee_rate == channel.fee_rate

    def test_workers_cannot_corrupt_the_shared_block(self, exported):
        network, block = exported
        attached = SharedTopologyBlock.attach(block.name)
        for array in attached.block.arrays.values():
            assert not array.flags.writeable
            if array.size:
                with pytest.raises(ValueError):
                    array[0] = 0
        # Mutating the worker's reconstructed balances must not leak into
        # the block: balances are per-worker copies, only the topology is
        # shared.
        rebuilt = attached.build_network()
        channel = next(rebuilt.channels())
        original = attached.block.arrays["bal_u"][0]
        channel.write_balances(0.0, channel.balance(channel.node_b))
        assert attached.block.arrays["bal_u"][0] == original


class TestSelfContainedReconstruction:
    def test_rebuilt_network_borrows_nothing_from_the_block(self, exported):
        network, block = exported
        attached = SharedTopologyBlock.attach(block.name)
        rebuilt = attached.build_network()
        arrays = rebuilt.graph_arrays()
        assert not any(
            np.shares_memory(private, view)
            for view in attached.block.arrays.values()
            for private in (arrays.indptr, arrays.indices, arrays.balance_array)
        )
        # Unmapping must succeed (no exported buffer left) and change nothing.
        attached.close()
        source, target = network.nodes()[0], network.nodes()[-1]
        sources = network.nodes()[:5]
        assert rebuilt.graph_arrays() is arrays
        np.testing.assert_array_equal(arrays.indices, network.graph_arrays().indices)
        np.testing.assert_array_equal(
            rebuilt.hop_count_rows(sources)[1], network.hop_count_rows(sources)[1]
        )
        assert rebuilt.shortest_paths(source, target, 4) == network.shortest_paths(
            source, target, 4
        )
        # A mirror rebuilt after the unmap (the topology moved) works too.
        for net in (rebuilt, network):
            net.remove_channel(*next(net.channels()).endpoints)
        assert rebuilt.graph_arrays() is not arrays
        assert rebuilt.shortest_paths(source, target, 4) == network.shortest_paths(
            source, target, 4
        )


def _comparison_spec():
    return build_comparison_spec(
        "small", ["shortest-path", "spider"], seeds=[1], duration=2.0, nodes=30
    )


def _snapshot_spec():
    return build_comparison_spec(
        "small",
        ["landmark", "waterfilling"],
        seeds=[1],
        duration=2.0,
        nodes=40,
        topology_source="lightning-snapshot",
        workload_source="ripple-trace",
    )


def _experiment_metrics(spec, seed, network=None):
    runner, schemes = spec.build_experiment(seed, network=network)
    result = runner.run(schemes, rng=np.random.default_rng(derive_seed(seed, "schemes")))
    return json.dumps(
        {name: metrics.as_dict() for name, metrics in result.metrics.items()},
        sort_keys=True,
    )


class TestBlockBackedExperiment:
    @pytest.mark.parametrize(
        "make_spec", [_comparison_spec, _snapshot_spec], ids=["generated", "snapshot"]
    )
    def test_a_rebuilt_network_runs_the_same_experiment(self, make_spec):
        spec = make_spec()
        block = SharedTopologyBlock.from_network(
            spec.topology.build(derive_seed(1, "topology"))
        )
        try:
            rebuilt = SharedTopologyBlock.attach(block.name).build_network()
        finally:
            block.unlink()
        assert _experiment_metrics(spec, 1, network=rebuilt) == _experiment_metrics(spec, 1)
