"""Tests for the Lightning-style channel-graph snapshot loader."""

import json

import pytest

from repro.data.fixtures import fixture_path
from repro.data.lightning import load_snapshot, parse_snapshot, snapshot_info
from repro.topology.datasets import PAPER_CHANNEL_MEDIAN, PAPER_CHANNEL_MIN


@pytest.fixture(scope="module")
def fixture_file() -> str:
    return fixture_path("lightning_small.json")


class TestParse:
    def test_fixture_parse_statistics(self, fixture_file):
        snapshot = parse_snapshot(fixture_file)
        # The fixture deliberately carries one parallel channel, one
        # zero-capacity edge, one edge missing an endpoint, a 3-node
        # disconnected component and one isolated node.
        assert snapshot.merged_parallel == 1
        assert snapshot.dropped_invalid == 2
        assert snapshot.isolated_nodes == 1
        assert snapshot.raw_channels == 89

    def test_parallel_channels_merge_capacity(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(
            json.dumps(
                {
                    "edges": [
                        {"node1_pub": "a", "node2_pub": "b", "capacity": "100"},
                        {"node2_pub": "a", "node1_pub": "b", "capacity": "50"},
                    ]
                }
            )
        )
        snapshot = parse_snapshot(str(path))
        assert len(snapshot.channels) == 1
        assert snapshot.channels[0].capacity == 150.0

    def test_csv_snapshot(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text(
            "node1,node2,capacity,base_fee,fee_rate\n"
            "a,b,100,1.0,0.001\n"
            "b,c,200,0,0\n"
            "c,c,300,0,0\n"  # self-loop: dropped
        )
        snapshot = parse_snapshot(str(path))
        assert len(snapshot.channels) == 2
        assert snapshot.dropped_invalid == 1
        assert snapshot.channels[0].base_fee == 1.0

    def test_lnd_policy_fees_converted(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(
            json.dumps(
                {
                    "edges": [
                        {
                            "node1_pub": "a",
                            "node2_pub": "b",
                            "capacity": "1000",
                            "node1_policy": {
                                "fee_base_msat": "2000",
                                "fee_rate_milli_msat": "500",
                            },
                        }
                    ]
                }
            )
        )
        channel = parse_snapshot(str(path)).channels[0]
        assert channel.base_fee == 2.0  # msat -> sat
        assert channel.fee_rate == 500 / 1_000_000


class TestLoad:
    def test_largest_component_extracted(self, fixture_file):
        network = load_snapshot(fixture_file)
        # 48 declared nodes; 44 in the LCC (3-node side component + isolate cut).
        assert len(network.nodes()) == 44

    def test_capacity_normalized_to_paper_median(self, fixture_file):
        network = load_snapshot(fixture_file)
        capacities = sorted(c.capacity for c in network.channels())
        assert capacities[len(capacities) // 2] == pytest.approx(PAPER_CHANNEL_MEDIAN)
        assert capacities[0] >= PAPER_CHANNEL_MIN

    def test_channel_scale_multiplies_capacity(self, fixture_file):
        base = sorted(c.capacity for c in load_snapshot(fixture_file).channels())
        doubled = sorted(
            c.capacity for c in load_snapshot(fixture_file, channel_scale=2.0).channels()
        )
        for small, big in zip(base, doubled):
            assert big == pytest.approx(2.0 * small)

    def test_max_nodes_caps_and_preserves_hubs(self, fixture_file):
        full = load_snapshot(fixture_file)
        capped = load_snapshot(fixture_file, max_nodes=20)
        assert len(capped.nodes()) <= 20
        # The best-connected node of the full graph must survive the cut.
        top_hub = max(full.nodes(), key=lambda n: (full.degree(n), str(n)))
        assert top_hub in set(capped.nodes())

    def test_candidate_fraction_sets_roles(self, fixture_file):
        network = load_snapshot(fixture_file, candidate_fraction=0.25)
        candidates = network.candidates()
        assert len(candidates) == round(0.25 * len(network.nodes()))
        # Candidates are the highest-degree nodes.
        degrees = sorted((network.degree(n) for n in network.nodes()), reverse=True)
        assert min(network.degree(n) for n in candidates) >= degrees[len(candidates)] - 1

    def test_deterministic_across_loads(self, fixture_file):
        first = load_snapshot(fixture_file)
        second = load_snapshot(fixture_file)
        assert first.topology_fingerprint() == second.topology_fingerprint()

    @pytest.mark.parametrize(
        "max_nodes, fingerprint",
        [
            (None, "8aecd315929cedec"),
            (200, "8aecd315929cedec"),
            (60, "8aecd315929cedec"),
            (30, "a9319e0667e296b9"),
            (20, "a3cf666b0a174f33"),
            (12, "e2495ce536b72fe7"),
        ],
    )
    def test_identical_to_the_networkx_built_network(self, fixture_file, max_nodes, fingerprint):
        """The dict loader against the networkx reduction it replaced.

        44 nodes survive the LCC cut, so 200 and 60 leave the graph whole
        and the smaller caps exercise ``subgraph(keep).copy()``.
        """
        nx = pytest.importorskip("networkx")

        def largest_component(graph):
            components = sorted(nx.connected_components(graph), key=lambda c: (-len(c), min(c)))
            return graph.subgraph(components[0]).copy()

        def rank_key(graph):
            strength = {
                node: sum(data["capacity"] for data in graph[node].values())
                for node in graph.nodes
            }
            return lambda node: (-graph.degree(node), -strength[node], str(node))

        graph = nx.Graph()
        snapshot = parse_snapshot(fixture_file)
        graph.add_nodes_from(snapshot.nodes)
        for channel in snapshot.channels:
            graph.add_edge(channel.node_a, channel.node_b, capacity=channel.capacity)
        graph = largest_component(graph)
        if max_nodes is not None and graph.number_of_nodes() > max_nodes:
            keep = sorted(graph.nodes, key=rank_key(graph))[:max_nodes]
            graph = largest_component(graph.subgraph(keep).copy())
        ranked = sorted(sorted(graph.nodes), key=rank_key(graph))
        edges = sorted(tuple(sorted(edge)) for edge in graph.edges())
        capacities = sorted(graph[a][b]["capacity"] for a, b in edges)
        unit = capacities[len(capacities) // 2] / PAPER_CHANNEL_MEDIAN

        network = load_snapshot(fixture_file, max_nodes=max_nodes)
        assert network.topology_fingerprint() == fingerprint
        assert network.nodes() == sorted(graph.nodes)
        assert [channel.endpoints for channel in network.channels()] == edges
        assert network.candidates() == sorted(ranked[: max(1, round(0.15 * len(ranked)))])
        for channel in network.channels():
            capacity = max(graph[channel.node_a][channel.node_b]["capacity"] / unit, PAPER_CHANNEL_MIN)
            assert channel.balance_pair() == (capacity / 2.0, capacity / 2.0)

    def test_invalid_parameters_rejected(self, fixture_file):
        with pytest.raises(ValueError, match="candidate_fraction"):
            load_snapshot(fixture_file, candidate_fraction=0.0)
        with pytest.raises(ValueError, match="max_nodes"):
            load_snapshot(fixture_file, max_nodes=1)
        with pytest.raises(ValueError, match="capacity_unit"):
            load_snapshot(fixture_file, capacity_unit=-5)
        with pytest.raises(ValueError, match="channel_scale"):
            load_snapshot(fixture_file, channel_scale=0.0)

    def test_empty_snapshot_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"edges": []}))
        with pytest.raises(ValueError, match="no usable channels"):
            load_snapshot(str(path))


class TestInfo:
    def test_info_summary(self, fixture_file):
        info = snapshot_info(fixture_file)
        assert info["largest_component"] == 44
        assert info["merged_parallel"] == 1
        assert info["dropped_invalid"] == 2
        assert info["capacity_median"] > 0
        assert info["components"][0] == 44
