"""The per-mirror memo of the hop-count path kernels (``repro.topology.csr``).

``shortest_path``, ``k_shortest_paths`` and ``edge_disjoint_shortest_paths``
read no balance, so a mirror answers a repeated query from its own dict
(``GraphArrays.memo``), which lives and dies with the mirror; the
widest-path search and the heuristic ranking read balances and must follow
them.  The same dict keeps the atomic baselines' catalog rows once a scheme
routes again on one mirror.  These tests pin what a hit may and may not
change.
"""

import pytest

from repro.baselines import (
    FlashScheme,
    LandmarkScheme,
    ShortestPathScheme,
    SpeedyMurmursScheme,
    WaterfillingScheme,
)
from repro.baselines.batch import PathCatalog
from repro.data.lightning import load_snapshot
from repro.reference import topology as reference
from repro.routing.paths import (
    edge_disjoint_shortest_paths,
    edge_disjoint_widest_paths,
    heuristic_widest_paths,
    k_shortest_paths,
)
from repro.topology import csr, pathcsr
from repro.topology.generators import watts_strogatz_pcn
from repro.topology.network import PCNetwork


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


class TestMirrorAnswers:
    def test_a_repeated_query_runs_no_kernel_until_the_mirror_is_rebuilt(self, kernel_calls):
        network = _watts_strogatz()
        nodes = network.nodes()
        pairs = [(nodes[i], nodes[-1 - i]) for i in range(6)]
        cold = _answers(network, pairs)
        assert kernel_calls
        kernel_calls.clear()

        assert _answers(network, pairs) == cold
        assert kernel_calls == []

        network._graph_arrays = None  # a new mirror starts with an empty memo
        assert _answers(network, pairs) == cold
        assert kernel_calls
        kernel_calls.clear()
        assert _answers(_watts_strogatz(), pairs) == cold
        assert kernel_calls  # nor does another network of the same topology share it

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


class TestMirrorLifetime:
    def test_close_and_reopen_misses_and_follows_the_new_order(self, kernel_calls):
        network = _square()
        assert network.shortest_path("s", "t") == ["s", "a", "t"]
        before = network.graph_arrays()

        balances = network.remove_channel("a", "t")
        network.add_channel("a", "t", balance_a=balances["a"], balance_b=balances["t"])
        kernel_calls.clear()
        flipped = network.shortest_path("s", "t")

        assert kernel_calls  # a miss: the adjacency order moved
        assert network.graph_arrays() is not before
        assert flipped == ["s", "b", "t"]
        assert flipped == reference.shortest_path(network, "s", "t")
        assert network.shortest_paths("s", "t", 2) == reference.k_shortest_paths(
            network, "s", "t", 2
        )


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
        assert arrays.memo == {}  # a failing query is not kept

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


# ---------------------------------------------------------------------- #
# catalog rows
# ---------------------------------------------------------------------- #
def _kept_rows(network):
    """Every catalog row the network's mirror holds, as ``{query: {pair: row}}``."""
    return {
        key[1]: rows
        for key, rows in network.graph_arrays().memo.items()
        if key[0] == "rows" and rows
    }


@pytest.fixture()
def slot_walks(monkeypatch):
    """The paths :func:`pathcsr.hop_slots` walked."""
    walks = []
    walk = pathcsr.hop_slots

    def counted(network, path):
        walks.append(tuple(path))
        return walk(network, path)

    monkeypatch.setattr(pathcsr, "hop_slots", counted)
    return walks


def _resolve(network, pair, query=("ksp", 2)):
    """A fresh catalog's entry for ``pair`` (what one shard's scheme builds)."""
    entry, computed = PathCatalog(network).resolve(
        pair, lambda: k_shortest_paths(network, *pair, 2), query=query
    )
    assert computed
    return entry


def _rows_of(entry):
    return [(path, entry.row_slots(row)) for row, path in enumerate(entry.paths)]


#: The four schemes that name a query; 5.0 is a mouse payment for Flash.
CATALOG_SCHEMES = {
    "shortest-path": ShortestPathScheme,
    "landmark": LandmarkScheme,
    "waterfilling": WaterfillingScheme,
    "flash": FlashScheme,
}


class TestCatalogRows:
    @pytest.mark.parametrize("name", sorted(CATALOG_SCHEMES))
    def test_third_shard_is_served_from_the_memo_and_equals_a_fresh_generation(
        self, name, slot_walks
    ):
        factory = CATALOG_SCHEMES[name]
        network = load_snapshot()
        nodes = network.nodes()
        pairs = [(nodes[i], nodes[-1 - i]) for i in range(12)]
        shards = []
        for _ in range(3):  # three shards of one kept network in one worker
            scheme = factory()
            scheme.prepare(network)
            slot_walks.clear()
            routed = [scheme._paths(source, target, 5.0) for source, target in pairs]
            shards.append(
                ([_rows_of(paths) for paths in routed], scheme.overhead_messages(), len(slot_walks))
            )
            for paths in routed:
                for path, slots in _rows_of(paths):
                    assert slots == tuple(pathcsr.hop_slots(network, path))
        (cold, cold_messages, cold_walks), _second, (warm, warm_messages, warm_walks) = shards
        assert cold_walks > 0
        assert warm_walks == 0  # neither compute's answer nor a slot walk
        assert warm == cold
        # A hit counts as computed: Flash's pool probes are charged again.
        assert warm_messages == cold_messages
        assert _kept_rows(network)

    def test_a_hit_returns_computed_and_the_fresh_rows(self):
        network = _watts_strogatz()
        pair = (network.nodes()[0], network.nodes()[-1])
        for _ in range(3):
            entry = _resolve(network, pair)
            fresh = [tuple(path) for path in k_shortest_paths(network, *pair, 2)]
            assert entry.paths == fresh
            assert _rows_of(entry) == [
                (path, tuple(pathcsr.hop_slots(network, path))) for path in fresh
            ]
        assert len(_kept_rows(network)) == 1

    def test_a_new_network_keeps_no_rows_of_another(self):
        first, second = _watts_strogatz(), _watts_strogatz()
        pair = (first.nodes()[0], first.nodes()[-1])
        for _ in range(3):
            _resolve(first, pair)
        _resolve(second, pair)
        assert _kept_rows(first) and not _kept_rows(second)

    def test_queries_resolved_once_each_keep_no_rows(self):
        network = _watts_strogatz()
        source, target = network.nodes()[0], network.nodes()[-1]
        PathCatalog(network).resolve(
            (source, target), lambda: k_shortest_paths(network, source, target, 1),
            query=("ksp", 1),
        )
        PathCatalog(network).resolve(
            (source, target),
            lambda: edge_disjoint_shortest_paths(network, source, target, 3),
            query=("eds", 3),
        )
        assert _kept_rows(network) == {}

    def test_a_channel_closed_mid_run_never_gets_the_old_layouts_rows(self):
        network = _watts_strogatz()
        nodes = network.nodes()
        pairs = [(nodes[i], nodes[-1 - i]) for i in range(8)]
        for _ in range(2):
            for pair in pairs:
                _resolve(network, pair)
        catalog = PathCatalog(network)
        compute = {pair: (lambda p=pair: k_shortest_paths(network, *p, 2)) for pair in pairs}
        before = [catalog.resolve(pair, compute[pair], query=("ksp", 2))[0] for pair in pairs]
        assert _kept_rows(network)  # the third catalog was served from the memo
        path = next(entry.paths[0] for entry in before if entry.paths)
        network.remove_channel(path[0], path[1])
        for pair in pairs:
            entry, computed = catalog.resolve(pair, compute[pair], query=("ksp", 2))
            assert computed
            fresh = [tuple(path) for path in k_shortest_paths(network, *pair, 2)]
            assert _rows_of(entry) == [
                (path, tuple(pathcsr.hop_slots(network, path))) for path in fresh
            ]

    def test_speedymurmurs_adds_no_rows(self):
        network = load_snapshot()
        nodes = network.nodes()
        for _ in range(3):
            scheme = SpeedyMurmursScheme()
            scheme.prepare(network)
            for i in range(12):
                scheme._paths(nodes[i], nodes[-1 - i], 5.0)
        assert not any(key[0] == "rows" for key in network.graph_arrays().memo)
