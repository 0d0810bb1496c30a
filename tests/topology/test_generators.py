"""Tests for the PCN topology generators."""

import numpy as np
import pytest

from repro.scenarios.registry import build_comparison_spec
from repro.scenarios.spec import derive_seed
from repro.topology.datasets import ChannelSizeDistribution
from repro.topology.generators import (
    _connected_watts_strogatz,
    _edges,
    grid_pcn,
    multi_star_pcn,
    random_pcn,
    scale_free_pcn,
    star_pcn,
    watts_strogatz_pcn,
)


class TestWattsStrogatz:
    def test_basic_properties(self):
        net = watts_strogatz_pcn(50, nearest_neighbors=6, seed=1)
        assert net.node_count() == 50
        assert net.is_connected()
        assert net.channel_count() > 0

    def test_candidate_fraction(self):
        net = watts_strogatz_pcn(50, candidate_fraction=0.2, seed=1)
        assert len(net.candidates()) == 10
        assert len(net.clients()) == 40

    def test_candidates_are_well_connected(self):
        net = watts_strogatz_pcn(60, candidate_fraction=0.1, seed=2)
        candidate_degrees = [net.degree(n) for n in net.candidates()]
        client_degrees = [net.degree(n) for n in net.clients()]
        assert min(candidate_degrees) >= np.median(client_degrees) - 1

    def test_channel_size_sampler_used(self):
        net = watts_strogatz_pcn(40, channel_sizes=ChannelSizeDistribution(), seed=3)
        capacities = [channel.capacity for channel in net.channels()]
        assert min(capacities) >= 10.0
        assert len(set(round(c, 3) for c in capacities)) > 5

    def test_uniform_channel_size(self):
        net = watts_strogatz_pcn(20, uniform_channel_size=80.0, seed=4)
        assert all(channel.capacity == pytest.approx(80.0) for channel in net.channels())

    def test_deterministic_with_seed(self):
        first = watts_strogatz_pcn(30, seed=9)
        second = watts_strogatz_pcn(30, seed=9)
        edges = [sorted(str(c.endpoints) for c in net.channels()) for net in (first, second)]
        assert edges[0] == edges[1]

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            watts_strogatz_pcn(2)


class TestWattsStrogatzPort:
    """The in-house ring-rewire reproduces networkx draw for draw."""

    @pytest.mark.parametrize("n", [12, 60, 100, 300, 2000, 3000])
    def test_node_edge_and_adjacency_order_equal_networkx(self, n):
        nx = pytest.importorskip("networkx")
        retried = 0
        for k in (2, 4, 8, 10):
            for p in (0.05, 0.25, 0.9):
                for seed in range(6 if n < 1000 else 1):
                    oracle = nx.connected_watts_strogatz_graph(n, k, p, tries=200, seed=seed)
                    adjacency = _connected_watts_strogatz(n, k, p, seed)
                    assert list(adjacency) == list(oracle.nodes)
                    assert list(_edges(adjacency)) == list(oracle.edges)
                    assert all(list(adjacency[u]) == list(oracle.adj[u]) for u in adjacency)
                    # An int seed replays the first try of the connected variant.
                    retried += not nx.is_connected(nx.watts_strogatz_graph(n, k, p, seed=seed))
        assert retried or n > 100  # the small sparse rings exercise the retry path

    def test_ring_degree_clamped_below_the_node_count(self):
        nx = pytest.importorskip("networkx")
        # nearest_neighbors >= n - 1 clamps to the largest even k < n; with
        # k = n - 1 every row is full and each rewire gives up (keeps u-v).
        oracle = nx.connected_watts_strogatz_graph(5, 4, 0.9, tries=200, seed=3)
        adjacency = _connected_watts_strogatz(5, 4, 0.9, 3)
        assert [list(adjacency[u]) for u in adjacency] == [list(oracle.adj[u]) for u in oracle]
        for n in (3, 4, 5, 9):
            net = watts_strogatz_pcn(n, nearest_neighbors=8, rewire_probability=0.9, seed=1)
            assert net.is_connected() and max(net.degree(v) for v in net.nodes()) <= n - 1

    @pytest.mark.parametrize(
        "scale, nodes, fingerprints",
        [
            ("small", None, ("df40597c1cd50b83", "f3f82179b8e04934")),
            ("medium", None, ("adb294a540f6f1ae", "31ae310afab3d067")),
            ("paper", None, ("d7e213017a9bbdf1", "e1afc99bc8432f5b")),
            # The 100,000-node tier takes 6 s a build; docs/scaling.md's 20,000.
            ("xl", 20000, ("7c70f336cdb08689", "78d368ee84c070c3")),
        ],
    )
    def test_scale_topologies_are_pinned(self, scale, nodes, fingerprints):
        """Literals, so neither a networkx upgrade nor an edit here moves a figure."""
        for seed, expected in zip((1, 2), fingerprints):
            spec = build_comparison_spec(scale, ["shortest-path"], seeds=[seed], nodes=nodes)
            network = spec.topology.build(derive_seed(seed, "topology"))
            assert network.topology_fingerprint() == expected
        assert watts_strogatz_pcn(3000, seed=1).topology_fingerprint() == "a5e5e0495f875080"


class TestOtherGenerators:
    def test_scale_free(self):
        net = scale_free_pcn(40, attachment=2, seed=5)
        assert net.node_count() == 40
        assert net.is_connected()

    def test_scale_free_too_small(self):
        with pytest.raises(ValueError):
            scale_free_pcn(2)

    def test_random_pcn_connected(self):
        net = random_pcn(30, seed=6)
        assert net.is_connected()

    def test_grid(self):
        net = grid_pcn(3, 4, channel_size=10.0)
        assert net.node_count() == 12
        assert net.channel_count() == 3 * 3 + 2 * 4
        assert net.hop_count((0, 0), (2, 3)) == 5

    def test_grid_invalid(self):
        with pytest.raises(ValueError):
            grid_pcn(0, 3)


class TestStarTopologies:
    def test_star(self):
        net = star_pcn(5)
        assert net.node_count() == 6
        assert net.hubs() == ["hub"]
        assert all(net.degree(client) == 1 for client in net.clients())
        assert net.degree("hub") == 5

    def test_star_needs_clients(self):
        with pytest.raises(ValueError):
            star_pcn(0)

    def test_multi_star_mesh(self, multi_star_network):
        net = multi_star_network
        assert len(net.hubs()) == 3
        assert len(net.clients()) == 12
        # Hubs form a full mesh: 3 hub-hub channels + 12 client channels.
        assert net.channel_count() == 3 + 12

    def test_multi_star_ring(self):
        net = multi_star_pcn(hub_count=4, clients_per_hub=2, hub_mesh=False)
        hub_edges = [
            (a, b)
            for a, b in (channel.endpoints for channel in net.channels())
            if str(a).startswith("hub") and str(b).startswith("hub")
        ]
        assert len(hub_edges) == 4

    def test_multi_star_single_hub(self):
        net = multi_star_pcn(hub_count=1, clients_per_hub=3)
        assert net.channel_count() == 3

    def test_multi_star_invalid(self):
        with pytest.raises(ValueError):
            multi_star_pcn(hub_count=0, clients_per_hub=1)

