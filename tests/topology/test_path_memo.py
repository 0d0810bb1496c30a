"""The per-process memo of the hop-count path kernels (``repro.topology.csr``).

``shortest_path``, ``k_shortest_paths`` and ``edge_disjoint_shortest_paths``
read no balance, so every mirror of one topology shares their answers; the
widest-path search and the heuristic ranking read balances and must follow
them.  These tests pin what a hit may and may not change.
"""

import pytest

from repro.reference import topology as reference
from repro.routing.paths import edge_disjoint_widest_paths, heuristic_widest_paths
from repro.topology import csr
from repro.topology.generators import watts_strogatz_pcn
from repro.topology.network import PCNetwork


@pytest.fixture(autouse=True)
def _empty_memo():
    csr._PATH_MEMO.clear()
    yield
    csr._PATH_MEMO.clear()


def _watts_strogatz(seed=5):
    return watts_strogatz_pcn(
        30, nearest_neighbors=4, rewire_probability=0.3, uniform_channel_size=100.0, seed=seed
    )


def _square():
    """``s-a-t`` and ``s-b-t``: two equal-length routes, ``a`` first in every row."""
    network = PCNetwork()
    for node in ("s", "a", "b", "t"):
        network.add_node(node)
    for a, b in (("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")):
        network.add_channel(a, b, balance_a=50.0)
    return network


def _answers(network, pairs):
    arrays = network.graph_arrays()
    return [
        (
            arrays.shortest_path(source, target),
            arrays.k_shortest_paths(source, target, 3),
            arrays.edge_disjoint_shortest_paths(source, target, 3),
        )
        for source, target in pairs
    ]


@pytest.fixture()
def kernel_calls(monkeypatch):
    """How often the bidirectional BFS behind all three kernels runs."""
    calls = []
    search = csr.GraphArrays._bidirectional_path_rows

    def counted(self, *args, **kwargs):
        calls.append(args[:2])
        return search(self, *args, **kwargs)

    monkeypatch.setattr(csr.GraphArrays, "_bidirectional_path_rows", counted)
    return calls


class TestSharedAnswers:
    def test_a_second_network_of_the_same_topology_runs_no_kernel(self, kernel_calls):
        first = _watts_strogatz()
        nodes = first.nodes()
        pairs = [(nodes[i], nodes[-1 - i]) for i in range(6)]
        cold = _answers(first, pairs)
        assert kernel_calls
        kernel_calls.clear()

        second = _watts_strogatz()
        assert second.graph_arrays() is not first.graph_arrays()
        assert second.graph_arrays().digest == first.graph_arrays().digest
        assert _answers(second, pairs) == cold
        assert kernel_calls == []

    def test_answers_equal_the_reference(self):
        network = _watts_strogatz()
        nodes = network.nodes()
        pairs = [(nodes[i], nodes[-1 - i]) for i in range(6)]
        for _ in range(2):  # cold, then from the memo
            for (source, target), (path, ksp, eds) in zip(pairs, _answers(network, pairs)):
                assert path == reference.shortest_path(network, source, target)
                assert ksp == reference.k_shortest_paths(network, source, target, 3)
                assert eds == reference.edge_disjoint_shortest_paths(network, source, target, 3)

    def test_mutating_a_returned_path_leaves_the_memo_intact(self):
        arrays = _watts_strogatz().graph_arrays()
        source, target = arrays.node_ids[0], arrays.node_ids[-1]
        expected = _answers(arrays.network, [(source, target)])
        path, ksp, eds = expected[0]
        for answer in (path, ksp[0], eds[0]):
            answer.append("intruder")
            answer.reverse()
        ksp.clear()
        eds.append(["intruder"])
        assert _answers(arrays.network, [(source, target)]) == _answers(
            _watts_strogatz(), [(source, target)]
        )
        assert "intruder" not in arrays.shortest_path(source, target)


class TestTopologyKey:
    def test_close_and_reopen_misses_and_follows_the_new_order(self, kernel_calls):
        network = _square()
        assert network.shortest_path("s", "t") == ["s", "a", "t"]
        before = network.graph_arrays().digest

        balances = network.remove_channel("a", "t")
        network.add_channel("a", "t", balance_a=balances["a"], balance_b=balances["t"])
        kernel_calls.clear()
        flipped = network.shortest_path("s", "t")

        assert kernel_calls  # a miss: the adjacency order moved
        assert network.graph_arrays().digest != before
        assert flipped == ["s", "b", "t"]
        assert flipped == reference.shortest_path(network, "s", "t")
        assert network.shortest_paths("s", "t", 2) == reference.k_shortest_paths(
            network, "s", "t", 2
        )

    def test_a_second_topology_evicts_the_first(self):
        first = _watts_strogatz(seed=5)
        second = _watts_strogatz(seed=6)
        source, target = first.nodes()[0], first.nodes()[-1]
        first.shortest_path(source, target)
        assert list(csr._PATH_MEMO) == [first.graph_arrays().digest]

        second.shortest_path(source, target)
        assert list(csr._PATH_MEMO) == [second.graph_arrays().digest]
        assert len(csr._PATH_MEMO[second.graph_arrays().digest]) == 1


class TestFailingQueries:
    @staticmethod
    def _disconnected():
        network = _square()
        network.add_node("island")
        network.add_node("shore")
        network.add_channel("island", "shore", balance_a=10.0)
        return network

    @pytest.mark.parametrize(
        "query, error",
        [
            (lambda arrays: arrays.shortest_path("s", "island"), csr.NoPath),
            (lambda arrays: arrays.k_shortest_paths("s", "island", 2), csr.NoPath),
            (lambda arrays: arrays.shortest_path("s", "nowhere"), csr.NodeNotFound),
            (lambda arrays: arrays.k_shortest_paths("nowhere", "t", 2), csr.NodeNotFound),
        ],
    )
    def test_raised_alike_on_the_first_call_and_every_repeat(self, query, error):
        arrays = self._disconnected().graph_arrays()
        raised = []
        for _ in range(3):
            with pytest.raises(error) as info:
                query(arrays)
            raised.append(info.value)
        assert {str(exception) for exception in raised} == {str(raised[0])}
        assert not csr._PATH_MEMO.get(arrays.digest)  # a failing query is not kept

    def test_eds_of_an_unknown_node_is_an_empty_answer(self):
        arrays = self._disconnected().graph_arrays()
        assert arrays.edge_disjoint_shortest_paths("s", "nowhere", 2) == []
        assert arrays.edge_disjoint_shortest_paths("s", "nowhere", 2) == []
        assert arrays.edge_disjoint_shortest_paths("s", "island", 2) == []


class TestBalanceReadersStayLive:
    @staticmethod
    def _tilt(network, narrow, wide):
        """Drain ``s``'s side of the ``s-narrow`` hop; fill the ``s-wide`` one."""
        network.channel("s", narrow).transfer("s", 45.0)
        network.channel(wide, "s").transfer(wide, 45.0)

    def test_edw_follows_a_balance_change(self):
        network = _square()
        self._tilt(network, "a", "b")
        assert edge_disjoint_widest_paths(network, "s", "t", 1) == [["s", "b", "t"]]
        self._tilt(network, "b", "a")
        self._tilt(network, "b", "a")
        after = edge_disjoint_widest_paths(network, "s", "t", 1)
        assert after == [["s", "a", "t"]]
        assert after == reference.edge_disjoint_widest_paths(network, "s", "t", 1)

    def test_heuristic_follows_a_balance_change(self):
        network = _square()
        self._tilt(network, "a", "b")
        assert heuristic_widest_paths(network, "s", "t", 1) == [["s", "b", "t"]]
        self._tilt(network, "b", "a")
        self._tilt(network, "b", "a")
        after = heuristic_widest_paths(network, "s", "t", 1)
        assert after == [["s", "a", "t"]]
        assert after == reference.heuristic_widest_paths(network, "s", "t", 1)
