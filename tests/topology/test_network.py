"""Unit tests for the PCN graph container."""

import inspect
import re

import pytest

from repro.topology import network as network_module
from repro.topology.network import ROLE_CANDIDATE, ROLE_CLIENT, ROLE_HUB, PCNetwork
from repro.topology.pathcsr import PathCSR


@pytest.fixture
def network(line_network) -> PCNetwork:
    return line_network


class TestStructure:
    """networkx is an export the oracle builds, not a view the container owns."""

    def test_module_does_not_import_networkx(self):
        source = inspect.getsource(network_module)
        assert not re.search(r"^\s*(import|from)\s+networkx", source, re.MULTILINE)

    def test_constructor_takes_no_argument(self):
        assert list(inspect.signature(PCNetwork).parameters) == []
        for gone in ("graph", "lean", "nx_materialized", "subgraph_view", "from_graph"):
            assert not hasattr(PCNetwork(), gone)


class TestConstruction:
    def test_add_nodes_and_roles(self):
        net = PCNetwork()
        net.add_node("client", role=ROLE_CLIENT)
        net.add_node("candidate", role=ROLE_CANDIDATE)
        net.add_node("hub", role=ROLE_HUB)
        assert net.clients() == ["client"]
        assert set(net.candidates()) == {"candidate", "hub"}
        assert net.hubs() == ["hub"]

    def test_invalid_role_rejected(self):
        net = PCNetwork()
        with pytest.raises(ValueError):
            net.add_node("x", role="boss")

    def test_add_channel_requires_nodes(self):
        net = PCNetwork()
        net.add_node("a")
        with pytest.raises(KeyError):
            net.add_channel("a", "b", 10.0)

    def test_duplicate_channel_rejected(self, network):
        with pytest.raises(ValueError):
            network.add_channel("n0", "n1", 10.0)

    def test_default_symmetric_funding(self):
        net = PCNetwork()
        net.add_node("a")
        net.add_node("b")
        channel = net.add_channel("a", "b", 42.0)
        assert channel.balance("a") == channel.balance("b") == 42.0

    def test_set_role(self, network):
        network.set_role("n0", ROLE_HUB)
        assert network.role("n0") == ROLE_HUB
        with pytest.raises(ValueError):
            network.set_role("n0", "nope")
        with pytest.raises(KeyError):
            network.set_role("missing", ROLE_HUB)

    def test_remove_channel(self, network):
        settlement = network.remove_channel("n0", "n1")
        assert settlement == {"n0": 50.0, "n1": 50.0}
        assert not network.has_channel("n0", "n1")


class TestQueries:
    def test_counts(self, network):
        assert network.node_count() == 5
        assert network.channel_count() == 4

    def test_neighbors_and_degree(self, network):
        assert network.neighbors("n1") == ["n0", "n2"]
        assert network.degree("n0") == 1
        assert network.degree("n2") == 2

    def test_channel_lookup(self, network):
        channel = network.channel("n0", "n1")
        assert set(channel.endpoints) == {"n0", "n1"}
        with pytest.raises(KeyError):
            network.channel("n0", "n4")

    def test_available(self, network):
        assert network.available("n0", "n1") == 50.0

    def test_total_funds(self, network):
        assert network.total_funds() == pytest.approx(4 * 100.0)

    def test_is_connected(self, network):
        assert network.is_connected()
        network.add_node("island")
        assert not network.is_connected()

    def test_empty_network_is_connected(self):
        assert PCNetwork().is_connected()


class TestPathsAndDistances:
    def test_hop_count(self, network):
        assert network.hop_count("n0", "n4") == 4
        assert network.hop_count("n2", "n2") == 0

    def test_hop_counts_from(self, network):
        hops = network.hop_counts_from("n0")
        assert hops["n3"] == 3

    def test_all_pairs_hop_counts(self, network):
        matrix = network.all_pairs_hop_counts()
        assert matrix["n0"]["n4"] == 4
        assert matrix["n4"]["n0"] == 4

    def test_shortest_path(self, network):
        assert network.shortest_path("n0", "n2") == ["n0", "n1", "n2"]

    def test_shortest_paths_k(self, grid_network):
        paths = grid_network.shortest_paths((0, 0), (1, 1), 2)
        assert len(paths) == 2
        assert all(path[0] == (0, 0) and path[-1] == (1, 1) for path in paths)

    def test_shortest_paths_zero_k(self, network):
        assert network.shortest_paths("n0", "n1", 0) == []

    def test_path_capacity(self, network):
        network.channel("n1", "n2").transfer("n1", 30.0)
        paths = PathCSR(network, [["n0", "n1", "n2"], ["n2", "n1", "n0"]])
        assert paths.capacities().tolist() == [pytest.approx(20.0), pytest.approx(50.0)]
        assert paths.capacity(0) == pytest.approx(20.0)
        with pytest.raises(ValueError):
            PathCSR(network, [["n0"]])


class TestSnapshotRestore:
    def test_snapshot_restore_roundtrip(self, network):
        snapshot = network.snapshot()
        network.channel("n0", "n1").transfer("n0", 25.0)
        network.restore(snapshot)
        assert network.available("n0", "n1") == pytest.approx(50.0)

    def test_release_all_locks(self, network):
        channel = network.channel("n0", "n1")
        channel.lock("n0", 10.0)
        channel.lock("n1", 5.0)
        released = network.release_all_locks()
        assert released == 2
        assert channel.balance("n0") == pytest.approx(50.0)
        assert channel.balance("n1") == pytest.approx(50.0)
