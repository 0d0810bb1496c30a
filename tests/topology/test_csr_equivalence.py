"""Differential suite: the CSR graph kernels vs the networkx scalar reference.

The topology layer's CSR kernels must return *identical* results to the
networkx walks of :mod:`repro.reference.topology` -- path lists including order and
tie-breaks, hop-count dicts including disconnected pairs -- across all four
Table-II selectors, before and after dynamics-driven topology mutation --
and, for the widest-path search, at sizes and forced trigger values where
its level drain runs.
A hypothesis invariant additionally pins the persistent path-catalog store:
cached catalogs equal freshly generated ones, including after
``topology_version`` bumps.
"""

import itertools
from heapq import heappop
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.batch import PathCatalog
from repro.data.lightning import load_snapshot
from repro.placement import costs
from repro.placement.compare import build_place_network
from repro.reference import topology as reference
from repro.routing.paths import (
    PATH_SELECTORS,
    edge_disjoint_widest_paths,
    k_shortest_paths,
    landmark_paths,
)
from repro.routing.prices import PriceTable
from repro.scenarios.dynamics import churn_events, jamming_events
from repro.scenarios.registry import build_comparison_spec
from repro.topology import csr
from repro.topology.generators import watts_strogatz_pcn
from repro.topology.network import PCNetwork
from repro.topology.pathcsr import PathCSR, hop_slots

SELECTORS = sorted(PATH_SELECTORS)


def _build_network(seed, nodes=40, skew_seed=None):
    network = watts_strogatz_pcn(
        nodes,
        nearest_neighbors=6,
        rewire_probability=0.3,
        uniform_channel_size=120.0,
        candidate_fraction=0.2,
        seed=seed,
    )
    if skew_seed is not None:
        rng = np.random.default_rng(skew_seed)
        for channel in network.channels():
            channel.transfer(
                channel.node_a,
                float(rng.uniform(0.0, 0.9 * channel.balance(channel.node_a))),
            )
    return network


def _sample_pairs(network, count, seed):
    nodes = network.nodes()
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        source = nodes[int(rng.integers(len(nodes)))]
        target = nodes[int(rng.integers(len(nodes)))]
        if source != target:
            pairs.append((source, target))
    return pairs


def _assert_selectors_identical(network, pairs, ks=(1, 3, 5)):
    for name in SELECTORS:
        selector = PATH_SELECTORS[name]
        for source, target in pairs:
            for k in ks:
                scalar = reference.PATH_SELECTORS[name](network, source, target, k)
                arrays = selector(network, source, target, k)
                assert scalar == arrays, (name, source, target, k)


class TestSelectorEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_all_selectors_identical_on_skewed_balances(self, seed):
        network = _build_network(seed, skew_seed=seed + 10)
        _assert_selectors_identical(network, _sample_pairs(network, 25, seed))

    def test_uniform_balances_exercise_ties(self):
        # Uniform funding makes every width equal: the widest-path and
        # heuristic selectors are then decided purely by tie-breaks.
        network = _build_network(7)
        _assert_selectors_identical(network, _sample_pairs(network, 25, 8))

    def test_landmark_paths_identical(self):
        network = _build_network(4, skew_seed=5)
        nodes = network.nodes()
        landmarks = sorted(nodes, key=network.degree, reverse=True)[:5]
        for source, target in _sample_pairs(network, 20, 6):
            scalar = reference.landmark_paths(network, source, target, 4, landmarks)
            arrays = landmark_paths(network, source, target, 4, landmarks)
            assert scalar == arrays

    def test_disconnected_pairs_and_isolated_nodes(self):
        network = _build_network(9)
        network.add_node("island")
        network.add_node("atoll")
        network.add_channel("island", "atoll", 50.0)
        anchor = network.nodes()[0]
        for target in ("island", "atoll"):
            for name in SELECTORS:
                selector = PATH_SELECTORS[name]
                assert reference.PATH_SELECTORS[name](network, anchor, target, 3) == \
                    selector(network, anchor, target, 3)
        lonely = PCNetwork()
        lonely.add_node("a")
        lonely.add_node("b")
        for name in SELECTORS:
            selector = PATH_SELECTORS[name]
            assert selector(lonely, "a", "b", 2) == []


class TestOracleMirror:
    """``reference.nx_mirror``: the networkx export every scalar walk reads."""

    @staticmethod
    def _assert_orders_match(network):
        mirror = reference.nx_mirror(network)
        assert list(mirror.nodes) == network.nodes()
        for node in network.nodes():
            assert list(mirror.adj[node]) == network.neighbors(node)
            for neighbor in network.neighbors(node):
                assert mirror.edges[node, neighbor]["channel"] is network.channel(node, neighbor)
        assert [frozenset(edge) for edge in mirror.edges()] == [
            frozenset(channel.endpoints) for channel in network.channels()
        ]

    def test_preserves_node_and_adjacency_order(self):
        network = _build_network(41)
        network.add_node("island")
        self._assert_orders_match(network)

    def test_close_and_reopen_moves_the_edge_to_the_back_of_both_rows(self):
        network = _build_network(42)
        node_a = network.nodes()[0]
        node_b = network.neighbors(node_a)[0]
        stale = reference.nx_mirror(network)
        settlement = network.remove_channel(node_a, node_b)
        network.add_channel(node_a, node_b, settlement[node_a], settlement[node_b])
        assert network.neighbors(node_a)[-1] == node_b
        assert network.neighbors(node_b)[-1] == node_a
        assert reference.nx_mirror(network) is not stale
        self._assert_orders_match(network)

    def test_cached_until_the_topology_moves(self):
        network = _build_network(43)
        mirror = reference.nx_mirror(network)
        next(network.channels()).transfer(network.nodes()[0], 1.0)
        assert reference.nx_mirror(network) is mirror  # balances are not topology
        network.add_node("late")  # no version bump, but a new node
        grown = reference.nx_mirror(network)
        assert grown is not mirror and "late" in grown
        network.add_channel("late", network.nodes()[0], 10.0)
        assert reference.nx_mirror(network) is not grown
        self._assert_orders_match(network)


class TestDistanceHelperEquivalence:
    def test_hop_helpers_identical(self):
        network = _build_network(11)
        network.add_node("island")
        nodes = network.nodes()
        for source, target in _sample_pairs(network, 15, 12) + [(nodes[0], "island")]:
            try:
                scalar = reference.hop_count(network, source, target)
            except reference.ORACLE_EXCEPTIONS[csr.NoPath]:
                scalar = None
            try:
                arrays = network.hop_count(source, target)
            except csr.NoPath:
                arrays = None
            assert scalar == arrays
            if scalar is not None:
                assert reference.shortest_path(network, source, target) == \
                    network.shortest_path(source, target)
        for source in nodes[:10] + ["island"]:
            assert reference.hop_counts_from(network, source) == \
                network.hop_counts_from(source)
        assert reference.all_pairs_hop_counts(network) == network.all_pairs_hop_counts()

    def test_batched_rows_match_per_source_dicts(self):
        network = _build_network(13)
        candidates = network.candidates()
        node_order, matrix = network.hop_count_rows(candidates)
        for row, candidate in enumerate(candidates):
            expected = reference.hop_counts_from(network, candidate)
            reachable = {
                node_order[column]: int(matrix[row, column])
                for column in np.nonzero(np.isfinite(matrix[row]))[0]
            }
            assert reachable == expected

    def test_batched_rows_never_build_the_routing_mirror(self):
        network = _build_network(14)
        network.add_node("island")
        sources = network.candidates() + ["island"]
        node_order, bare = network.hop_count_rows(sources)
        assert network._graph_arrays is None
        mirror = network.graph_arrays()
        assert node_order == mirror.node_ids
        assert np.array_equal(mirror.distances_from(mirror.rows_of(sources)), bare)
        again_order, again = network.hop_count_rows(sources)
        assert again_order == node_order
        assert np.array_equal(again, bare)
        assert network.graph_arrays() is mirror

    def test_batched_rows_reject_an_unknown_source(self):
        network = _build_network(15)
        with pytest.raises(csr.NodeNotFound, match="ghost"):
            network.hop_count_rows(network.candidates() + ["ghost"])
        assert network._graph_arrays is None

    def test_one_flattening_feeds_the_mirror(self):
        network = _build_network(16)
        bare = csr.AdjacencyCSR(network)
        node_ids, node_row, indptr = bare.node_ids, bare.node_row, bare.indptr
        mirror = network.graph_arrays()
        assert mirror.node_ids == node_ids and mirror.node_row == node_row
        assert np.array_equal(mirror.indptr, indptr)
        assert np.array_equal(mirror.indices, bare.indices)
        for row, node in enumerate(node_ids):
            neighbors = [node_row[neighbor] for neighbor in network.neighbors(node)]
            slots = list(range(indptr[row], indptr[row + 1]))
            assert mirror.adjacency[row] == neighbors
            assert mirror.pairs[row] == list(zip(neighbors, slots))
            assert [mirror.slot(row, neighbor) for neighbor in neighbors] == slots


@st.composite
def hop_sweep_cases(draw):
    """A sparse random channel graph with isolated rows, and a source list.

    Node ids are strings (``"n0"``, ``"n1"``, ...) so rows and ids differ
    in kind.  ``last_isolated`` keeps every channel off the last row, the
    one whose slot range starts past the end of ``indices``.  Sources are
    drawn from a small pool, so long lists repeat nodes; 130 sources span
    three 64-bit words.
    """
    nodes = draw(st.integers(min_value=1, max_value=40))
    last_isolated = draw(st.booleans())
    linked = nodes - 1 if last_isolated else nodes
    possible = [(a, b) for a in range(linked) for b in range(a + 1, linked)]
    edges = (
        draw(st.lists(st.sampled_from(possible), max_size=2 * nodes, unique=True))
        if possible
        else []
    )
    pool = draw(
        st.lists(st.integers(min_value=0, max_value=nodes - 1), min_size=1, max_size=8)
    )
    count = draw(st.sampled_from([0, 1, 63, 64, 65, 130]))
    sources = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(count)]
    budget = draw(st.sampled_from([None, 8]))
    return nodes, edges, sources, budget


def _hop_sweep_network(nodes, edges):
    network = PCNetwork()
    for node in range(nodes):
        network.add_node(f"n{node}")
    for node_a, node_b in edges:
        network.add_channel(f"n{node_a}", f"n{node_b}", 10.0)
    return network


class TestBitParallelSweep:
    """``AdjacencyCSR.distances_from`` against the networkx BFS of the oracle."""

    @settings(max_examples=80, deadline=None)
    @given(case=hop_sweep_cases())
    def test_rows_equal_the_reference_bfs(self, case):
        nodes, edges, sources, budget = case
        network = _hop_sweep_network(nodes, edges)
        names = [f"n{source}" for source in sources]
        # ``budget`` 8 bytes: every sweep packs one word, so 130 sources take three.
        with mock.patch.object(costs, "_SCRATCH_BYTES", budget or costs._SCRATCH_BYTES):
            graph = csr.AdjacencyCSR(network)
            rows = graph.distances_from(graph.rows_of(names))
            node_order, batched = network.hop_count_rows(names)
        assert rows.shape == (len(sources), nodes)
        assert node_order == graph.node_ids
        assert np.array_equal(batched, rows)
        for row, name in zip(rows, names):
            expected = np.full(nodes, np.inf)
            for node, hops in reference.hop_counts_from(network, name).items():
                expected[graph.node_row[node]] = hops
            assert np.array_equal(row, expected)
        assert network.all_pairs_hop_counts() == reference.all_pairs_hop_counts(network)

    def test_an_empty_network(self):
        network = PCNetwork()
        graph = csr.AdjacencyCSR(network)
        assert graph.distances_from([]).shape == (0, 0)
        node_order, matrix = network.hop_count_rows([])
        assert node_order == [] and matrix.shape == (0, 0)
        assert network.all_pairs_hop_counts() == {}

    def test_paper_scale_all_pairs_sweep_in_budgeted_chunks(self, monkeypatch):
        network = build_place_network({"nodes": 3000}, 1)
        graph = csr.AdjacencyCSR(network)
        swept = []
        sweep = csr.AdjacencyCSR._sweep

        def spy(self, sources, *args):
            swept.append(len(sources))
            return sweep(self, sources, *args)

        monkeypatch.setattr(csr.AdjacencyCSR, "_sweep", spy)
        rows = graph.distances_from(range(graph.node_count))
        words = costs.scratch_rows(graph.slot_count)
        assert graph.slot_count * words * 8 <= costs._SCRATCH_BYTES
        assert len(swept) > 1 and sum(swept) == graph.node_count
        assert max(swept) == 64 * words
        assert np.array_equal(rows, rows.T)
        assert not np.diagonal(rows).any()
        sample = graph.node_ids[::997]
        for source in sample:
            hops = reference.hop_counts_from(network, source)
            expected = np.full(graph.node_count, np.inf)
            expected[graph.rows_of(list(hops))] = list(hops.values())
            assert np.array_equal(rows[graph.node_row[source]], expected)


class TestMutationEquivalence:
    def test_churn_mutation_mid_sequence(self):
        network = _build_network(21, skew_seed=22)
        pairs = _sample_pairs(network, 10, 23)
        rng = np.random.default_rng(24)
        _assert_selectors_identical(network, pairs, ks=(3,))
        for _ in range(4):
            channels = list(network.channels())
            victim = channels[int(rng.integers(len(channels)))]
            node_a, node_b = victim.endpoints
            settlement = network.remove_channel(node_a, node_b)
            _assert_selectors_identical(network, pairs, ks=(3,))
            network.add_channel(node_a, node_b, settlement[node_a], settlement[node_b])
            _assert_selectors_identical(network, pairs, ks=(3,))

    def test_churn_events_drive_identical_paths(self):
        network = _build_network(25, skew_seed=26)
        pairs = _sample_pairs(network, 8, 27)
        rng = np.random.default_rng(28)
        events = churn_events(network, rng, count=5, start=0.0, end=1.0, down_time=1.0)
        undos = []
        for event in events:
            undo = event.apply(network)
            if undo is not None:
                undos.append(undo)
            _assert_selectors_identical(network, pairs, ks=(3,))
        for undo in reversed(undos):
            undo()
        _assert_selectors_identical(network, pairs, ks=(3,))

    def test_jamming_locks_shift_widest_paths_identically(self):
        network = _build_network(31, skew_seed=32)
        pairs = _sample_pairs(network, 10, 33)
        before = [
            edge_disjoint_widest_paths(network, s, t, 3) for s, t in pairs
        ]
        events = jamming_events(network, at=0.0, duration=None, count=8, fraction=0.95)
        undos = [undo for undo in (event.apply(network) for event in events) if undo]
        # Jamming only locks balances (no topology bump): the balance
        # refresh must still observe it.
        _assert_selectors_identical(network, pairs, ks=(3,))
        after = [
            edge_disjoint_widest_paths(network, s, t, 3) for s, t in pairs
        ]
        assert before != after, "jamming 95% of the top channels should move some path"
        for undo in reversed(undos):
            undo()
        _assert_selectors_identical(network, pairs, ks=(3,))


class TestWorkingAdjacency:
    """The EDS working graph is a view of the primary adjacency, not a copy."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_comparison_spec("paper", ["splicer"]).topology.build(1),
            load_snapshot,
        ],
        ids=["paper-watts-strogatz", "lightning-snapshot"],
    )
    def test_fresh_topology_shares_every_row(self, build):
        arrays = build().graph_arrays()
        rows, pairs = arrays._working_adjacency()
        assert all(row is primary for row, primary in zip(rows, arrays.adjacency))
        assert all(row is primary for row, primary in zip(pairs, arrays.pairs))

    def test_reopened_channel_reorders_exactly_the_rows_that_differ(self):
        network = _build_network(41)
        pairs = _sample_pairs(network, 12, 42)
        # Reopening moves the channel to the back of both endpoints' rows.
        node_a, node_b = next(network.channels()).endpoints
        settlement = network.remove_channel(node_a, node_b)
        network.add_channel(node_a, node_b, settlement[node_a], settlement[node_b])
        arrays = network.graph_arrays()
        node_row = arrays.node_row
        rebuilt = nx.Graph(reference.nx_mirror(network).edges())
        expected = {
            node_row[node]: [node_row[neighbor] for neighbor in rebuilt.adj[node]]
            for node in rebuilt
        }
        differing = {row for row, order in expected.items() if order != arrays.adjacency[row]}
        assert differing

        rows, row_pairs = arrays._working_adjacency()
        for row, primary in enumerate(arrays.adjacency):
            assert (rows[row] is primary) == (row not in differing)
            assert (row_pairs[row] is arrays.pairs[row]) == (row not in differing)
            assert rows[row] == expected.get(row, [])
            slots = [arrays.slot(row, neighbor) for neighbor in rows[row]]
            assert row_pairs[row] == list(zip(rows[row], slots))
        for source, target in pairs + [(node_a, node) for node in network.nodes()]:
            for k in (1, 4):
                assert arrays.edge_disjoint_shortest_paths(source, target, k) == \
                    reference.edge_disjoint_shortest_paths(network, source, target, k)


# ---------------------------------------------------------------------- #
# widest-path level drain
# ---------------------------------------------------------------------- #
def _build_drain_network(nodes, seed, balances):
    """A network big enough for a width level to reach the drain trigger.

    ``skewed``: every hop its own width (one giant level somewhere in the
    middle); ``uniform``: every hop the same width (the whole graph is one
    tie level); ``quantised``: five widths (a handful of giant tie levels).
    """
    assert balances in ("skewed", "uniform", "quantised")
    network = _build_network(
        seed, nodes=nodes, skew_seed=seed + 100 if balances == "skewed" else None
    )
    if balances == "quantised":
        rng = np.random.default_rng(seed + 100)
        for channel in network.channels():
            channel.transfer(channel.node_a, 10.0 * int(rng.integers(0, 5)))
    return network


class _DrainSpy:
    """Counts :meth:`GraphArrays._drain_level` calls and their outcomes.

    ``early_exits`` counts the drains that decided a search whose target was
    *not* in the level (it then holds less than the level's width).
    """

    def __init__(self, monkeypatch):
        self.outcomes = []
        self.early_exits = 0
        original = csr.GraphArrays._drain_level

        def spied(arrays, width, target, heap, pushed_node, visited, best_width, *state):
            before = visited.count(1)
            found = original(
                arrays, width, target, heap, pushed_node, visited, best_width, *state
            )
            self.outcomes.append((found, visited.count(1) - before))
            self.early_exits += found and best_width[target] < width
            return found

        monkeypatch.setattr(csr.GraphArrays, "_drain_level", spied)


def _assert_edw_identical(network, pairs, k=5):
    for source, target in pairs:
        expected = reference.edge_disjoint_widest_paths(network, source, target, k)
        assert edge_disjoint_widest_paths(network, source, target, k) == expected, (
            source, target,
        )


class TestLevelDrainEquivalence:
    """EDW at sizes where a width level reaches the drain trigger.

    The 40-node networks of the suites above never do, so they pin the heap
    loop only; every case here asserts that drains actually ran.
    """

    @pytest.mark.parametrize("balances", ["skewed", "uniform", "quantised"])
    @pytest.mark.parametrize("nodes,pair_count", [(400, 8), (1000, 4)])
    def test_edw_identical_where_levels_drain(self, monkeypatch, nodes, pair_count, balances):
        spy = _DrainSpy(monkeypatch)
        network = _build_drain_network(nodes, seed=nodes + 1, balances=balances)
        _assert_edw_identical(network, _sample_pairs(network, pair_count, nodes + 2))
        assert spy.outcomes, "no width level reached the drain trigger"

    def test_edw_identical_after_jamming_locks(self, monkeypatch):
        spy = _DrainSpy(monkeypatch)
        network = _build_drain_network(400, seed=41, balances="skewed")
        pairs = _sample_pairs(network, 6, 42)
        before = [edge_disjoint_widest_paths(network, s, t, 5) for s, t in pairs]
        events = jamming_events(network, at=0.0, duration=None, count=60, fraction=0.95)
        undos = [undo for undo in (event.apply(network) for event in events) if undo]
        _assert_edw_identical(network, pairs)
        after = [edge_disjoint_widest_paths(network, s, t, 5) for s, t in pairs]
        assert before != after, "jamming the top channels should move some path"
        for undo in reversed(undos):
            undo()
        _assert_edw_identical(network, pairs)
        assert spy.outcomes

    def test_edw_identical_after_a_churn_mutation(self, monkeypatch):
        spy = _DrainSpy(monkeypatch)
        network = _build_drain_network(400, seed=43, balances="quantised")
        pairs = _sample_pairs(network, 5, 44)
        rng = np.random.default_rng(45)
        for _ in range(2):
            channels = list(network.channels())
            node_a, node_b = channels[int(rng.integers(len(channels)))].endpoints
            settlement = network.remove_channel(node_a, node_b)
            _assert_edw_identical(network, pairs)
            # Reopening moves the hop to the back of both adjacencies.
            network.add_channel(node_a, node_b, settlement[node_a], settlement[node_b])
            _assert_edw_identical(network, pairs)
        assert spy.outcomes


@st.composite
def small_widest_path_cases(draw):
    """A small random channel graph with tie-heavy balances, and drain triggers.

    Balances come from four values including 0 (zero-balance hops, equal
    widths reaching one row over several hops); edges are sparse enough for
    disconnected targets and dense enough for levels of several rows.
    """
    nodes = draw(st.integers(min_value=3, max_value=12))
    possible = [(a, b) for a in range(nodes) for b in range(a + 1, nodes)]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=2, max_size=3 * nodes, unique=True)
    )
    widths = st.sampled_from([0.0, 10.0, 20.0, 30.0])
    funded = [(a, b, draw(widths), draw(widths)) for a, b in edges]
    level_pops = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1, max_value=5))
    return nodes, funded, level_pops, k


def _small_network(nodes, funded):
    network = PCNetwork()
    for node in range(nodes):
        network.add_node(node)
    for node_a, node_b, balance_a, balance_b in funded:
        network.add_channel(node_a, node_b, balance_a, balance_b)
    return network


class TestLevelDrainProperty:
    @settings(max_examples=120, deadline=None)
    @given(case=small_widest_path_cases())
    def test_edw_equals_the_reference_with_the_trigger_forced_down(self, case):
        nodes, funded, level_pops, k = case
        network = _small_network(nodes, funded)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(csr, "_DRAIN_LEVEL_POPS", level_pops)
            patch.setattr(csr, "_DRAIN_MIN_UNVISITED", 1)
            _assert_edw_identical(network, itertools.permutations(range(nodes), 2), k)

    def test_forced_drains_reach_every_situation(self, monkeypatch):
        """The situations the property test is there for do occur.

        Seeded sweep over the same graph family with the trigger at 1: a
        search with several drains, a target found inside the drained level,
        a target found only after a drain that missed it, a target no search
        reaches, and zero-balance hops on the way.
        """
        monkeypatch.setattr(csr, "_DRAIN_LEVEL_POPS", 1)
        monkeypatch.setattr(csr, "_DRAIN_MIN_UNVISITED", 1)
        spy = _DrainSpy(monkeypatch)
        searches = []
        original = csr.GraphArrays._widest_path_rows

        def counted(arrays, source, target):
            start = len(spy.outcomes)
            rows = original(arrays, source, target)
            searches.append((rows is not None, [found for found, _ in spy.outcomes[start:]]))
            return rows

        monkeypatch.setattr(csr.GraphArrays, "_widest_path_rows", counted)
        rng = np.random.default_rng(7)
        widths = np.array([0.0, 10.0, 20.0, 30.0])
        saw_zero_hop = False
        for _ in range(40):
            nodes = int(rng.integers(6, 13))
            funded = [
                (a, b, float(rng.choice(widths)), float(rng.choice(widths)))
                for a in range(nodes)
                for b in range(a + 1, nodes)
                if rng.random() < 0.3
            ]
            saw_zero_hop = saw_zero_hop or any(0.0 in edge[2:] for edge in funded)
            network = _small_network(nodes, funded)
            _assert_edw_identical(network, itertools.permutations(range(nodes), 2), k=3)
        assert saw_zero_hop
        assert any(len(drains) >= 2 for _, drains in searches), "no multi-drain search"
        assert any(drains and drains[-1] for _, drains in searches), "no target inside a level"
        assert any(
            reached and drains and not drains[-1] for reached, drains in searches
        ), "no target reached after a drain that missed it"
        assert any(not reached and drains for reached, drains in searches), "no unreachable target"
        assert spy.early_exits, "no drain decided a search whose target it missed"


class TestEarlyExit:
    """The widest-path search stops once the target's predecessor is final."""

    @settings(max_examples=150, deadline=None)
    @given(case=small_widest_path_cases(), data=st.data())
    def test_kernel_equals_the_reference_search_with_zeroed_hops(self, case, data):
        """One search, some hops excluded: zeroed slots here, a set there."""
        nodes, funded, _, _ = case
        network = _small_network(nodes, funded)
        excluded = data.draw(
            st.lists(st.sampled_from([edge[:2] for edge in funded]), unique=True, max_size=4)
        )
        arrays = network.graph_arrays()
        arrays.refresh_balances()
        slots = [arrays.slot(*hop) for a, b in excluded for hop in ((a, b), (b, a))]
        arrays._write_balances(slots, [0.0] * len(slots))
        graph = reference.nx_mirror(network)
        excluded_keys = {frozenset(edge) for edge in excluded}
        for source, target in itertools.permutations(range(nodes), 2):
            expected = reference._widest_path(graph, network, source, target, excluded_keys)
            assert arrays._widest_path_rows(source, target) == expected, (source, target)

    def test_the_heap_loop_stops_at_the_last_hop_into_the_target(self, monkeypatch):
        """``0 -> 1 -> 2`` is decided when row 1 pops: it is the target's only
        in-neighbor.  The 30 wider rows behind row 0 never pop."""
        chain = [(0, 3, 50.0, 50.0)] + [(row, row + 1, 50.0, 50.0) for row in range(3, 32)]
        network = _small_network(33, [(0, 1, 100.0, 100.0), (1, 2, 5.0, 5.0)] + chain)
        pops = []

        def counting_pop(heap):
            pops.append(heap[0])
            return heappop(heap)

        monkeypatch.setattr(csr, "heappop", counting_pop)
        assert edge_disjoint_widest_paths(network, 0, 2, 1) == [[0, 1, 2]]
        assert len(pops) == 2
        monkeypatch.undo()
        assert reference.edge_disjoint_widest_paths(network, 0, 2, 1) == [[0, 1, 2]]


class TestBalanceVectorIntegrity:
    """The balance vector's list and ndarray survive a failing EDW search."""

    def test_both_representations_restored_when_a_search_raises(self, monkeypatch):
        network = _build_network(17, skew_seed=18)
        arrays = network.graph_arrays()
        source, target = _sample_pairs(network, 1, 19)[0]
        assert len(edge_disjoint_widest_paths(network, source, target, 5)) >= 2

        original = csr.GraphArrays._widest_path_rows
        calls = []

        def second_search_fails(self, source_row, target_row):
            calls.append((source_row, target_row))
            if len(calls) == 2:
                # By now the first path's slots are zeroed in both places.
                assert 0.0 in self.balance and not self.balance_array.all()
                raise RuntimeError("injected search failure")
            return original(self, source_row, target_row)

        with monkeypatch.context() as patch:
            patch.setattr(csr.GraphArrays, "_widest_path_rows", second_search_fails)
            with pytest.raises(RuntimeError, match="injected"):
                edge_disjoint_widest_paths(network, source, target, 5)
        assert len(calls) == 2

        fresh = [None] * arrays.slot_count
        for channel in network.channels():
            node_a, node_b = channel.endpoints
            row_a, row_b = arrays.node_row[node_a], arrays.node_row[node_b]
            fresh[arrays.slot(row_a, row_b)] = channel.balance(node_a)
            fresh[arrays.slot(row_b, row_a)] = channel.balance(node_b)
        assert arrays.balance == fresh
        assert arrays.balance_array.tolist() == fresh

        # No balance moved, so the next calls skip the refresh and read the
        # restored vector as it is.
        for pair in [(source, target)] + _sample_pairs(network, 5, 20):
            for name in ("edw", "heuristic"):
                assert PATH_SELECTORS[name](network, *pair, 5) == \
                    reference.PATH_SELECTORS[name](network, *pair, 5)


# ---------------------------------------------------------------------- #
# in-memory path-catalog invariant
# ---------------------------------------------------------------------- #
@st.composite
def catalog_scenarios(draw):
    """A seeded network plus an interleaved query/mutation schedule."""
    seed = draw(st.integers(min_value=0, max_value=50))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["query", "mutate"]),
                st.integers(min_value=0, max_value=10_000),
            ),
            min_size=2,
            max_size=8,
        )
    )
    k = draw(st.integers(min_value=1, max_value=4))
    return seed, steps, k


def _assert_capacities_match_oracle(network, csr_paths):
    """Vector and scalar bottleneck reads of a PathCSR equal the dict walk."""
    expected = [reference.path_capacity(network, path) for path in csr_paths.paths]
    assert csr_paths.capacities().tolist() == expected
    assert [csr_paths.capacity(row) for row in range(len(csr_paths))] == expected
    rows = np.arange(len(csr_paths))[::-2]
    assert csr_paths.capacities(rows).tolist() == [expected[row] for row in rows]


class TestCatalogInvariant:
    @settings(max_examples=25, deadline=None)
    @given(scenario=catalog_scenarios())
    def test_catalog_entries_equal_fresh_generation_across_version_bumps(self, scenario):
        seed, steps, k = scenario
        network = _build_network(seed, nodes=18)
        catalog = PathCatalog(network)
        table = PriceTable(network, kappa=0.01, eta=0.01, t_fee=0.01)
        pairs = _sample_pairs(network, 6, seed + 1)

        def query_all():
            for source, target in pairs:
                entry, _ = catalog.resolve(
                    (source, target),
                    lambda s=source, t=target: k_shortest_paths(network, s, t, k),
                )
                fresh = [tuple(p) for p in k_shortest_paths(network, source, target, k)]
                assert entry.paths == fresh
                # Removals move store slots: every entry must follow them,
                # pinned ones (which keep their first path list) included.
                pinned, _ = catalog.resolve(
                    ("pinned", source, target),
                    lambda s=source, t=target: k_shortest_paths(network, s, t, k),
                    pinned=True,
                )
                for cached in (entry, pinned):
                    for row, path in enumerate(cached.paths):
                        slots = cached.row_slots(row)
                        # A tuple: a caller cannot corrupt the entry it was handed.
                        assert isinstance(slots, tuple)
                        assert slots == tuple(hop_slots(network, path))
                    _assert_capacities_match_oracle(network, cached)
                # The router's index registers the pinned (possibly dead)
                # paths too and keeps every row it ever saw.
                paths = entry.paths + pinned.paths
                assert table.path_capacities(paths).tolist() == [
                    reference.path_capacity(network, path) for path in paths
                ]
                assert [table.path_capacity(path) for path in paths] == [
                    reference.path_capacity(network, path) for path in paths
                ]
            _assert_capacities_match_oracle(network, table._paths)

        removed = []
        for action, value in steps:
            if action == "query":
                query_all()
            else:
                if removed and value % 2:
                    node_a, node_b, settlement = removed.pop()
                    if not network.has_channel(node_a, node_b):
                        network.add_channel(
                            node_a, node_b, settlement[node_a], settlement[node_b]
                        )
                else:
                    channels = list(network.channels())
                    if len(channels) > 1:
                        victim = channels[value % len(channels)]
                        node_a, node_b = victim.endpoints
                        settlement = network.remove_channel(node_a, node_b)
                        removed.append((node_a, node_b, settlement))
        query_all()

    def test_growth_past_the_first_allocation_with_a_dead_hop(self):
        network = _build_network(3, nodes=30)
        pairs = _sample_pairs(network, 40, 4)
        paths = [p for s, t in pairs for p in k_shortest_paths(network, s, t, 3)]
        (node_a, node_b), *_ = [channel.endpoints for channel in network.channels()]
        paths.append((node_a, node_b))
        assert len(paths) > 64
        csr_paths = PathCSR(network, paths)
        # The router's index grows its flattened hop columns past the first
        # allocation while registering the same paths.
        table = PriceTable(network, kappa=0.01, eta=0.01, t_fee=0.01)
        table.path_rows(paths)
        assert int(table._paths.ptr[-1]) > 64
        for indexed in (csr_paths, table._paths):
            _assert_capacities_match_oracle(network, indexed)
        network.remove_channel(node_a, node_b)
        assert csr_paths.capacity(len(paths) - 1) == 0.0
        for indexed in (csr_paths, table._paths):
            _assert_capacities_match_oracle(network, indexed)

    def test_resolve_recomputes_a_refreshed_non_pinned_entry(self):
        """Reading an entry re-resolves its slots on the new topology, but its
        path list is still the old topology's: resolve must recompute it."""
        network = _build_network(5, nodes=18)
        catalog = PathCatalog(network)
        source, target = _sample_pairs(network, 1, 6)[0]
        compute = lambda: k_shortest_paths(network, source, target, 1)  # noqa: E731
        entry, computed = catalog.resolve((source, target), compute)
        assert computed
        path = entry.paths[0]
        network.remove_channel(path[0], path[1])
        assert entry.capacities().tolist() == [0.0]  # slots refreshed: dead hop
        fresh, computed = catalog.resolve((source, target), compute)
        assert computed and fresh is not entry
        assert fresh.paths == [tuple(p) for p in compute()]


class TestUnknownNodeParity:
    def test_selectors_degrade_identically_for_unknown_nodes(self):
        # The scalar reference raises nx.NodeNotFound inside networkx and the
        # catching selectors (ksp/heuristic/eds) return []; the CSR kernels
        # raise their own NodeNotFound from the row lookup to the same effect.  EDW mirrors the
        # scalar's asymmetric shape: an unknown target is simply never
        # reached, an unknown source raises on both sides.
        network = _build_network(2)
        anchor = network.nodes()[0]
        for name in ("ksp", "heuristic", "eds"):
            selector, scalar = PATH_SELECTORS[name], reference.PATH_SELECTORS[name]
            assert scalar(network, anchor, "ghost", 3) == \
                selector(network, anchor, "ghost", 3) == []
            assert scalar(network, "ghost", anchor, 3) == \
                selector(network, "ghost", anchor, 3) == []
        edw, scalar_edw = PATH_SELECTORS["edw"], reference.PATH_SELECTORS["edw"]
        assert scalar_edw(network, anchor, "ghost", 3) == \
            edw(network, anchor, "ghost", 3) == []
        with pytest.raises(reference.ORACLE_EXCEPTIONS[csr.NodeNotFound]):
            scalar_edw(network, "ghost", anchor, 3)
        with pytest.raises(csr.NodeNotFound):
            edw(network, "ghost", anchor, 3)
        assert reference.landmark_paths(network, anchor, network.nodes()[1], 2, ["ghost"]) == \
            landmark_paths(network, anchor, network.nodes()[1], 2, ["ghost"])
