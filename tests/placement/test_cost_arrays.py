"""Pins of the array-first cost model.

* The probe kernel (row gather on ``zeta_t``, ``cumsum`` synchronization
  parts) returns the *same floats* as the column-gather + hub-by-hub loop it
  replaced -- ``==``, not ``approx`` -- at a size where the difference would
  show.
* The matrices built straight from the hop rows equal the nested-dict loop
  over the oracle's per-candidate BFS probe, cell for cell.
* A probe of more hubs than one scratch block folds only the cells that can
  hold a client's minimum, and still equals the full-matrix
  ``min(axis=0).sum()``, ``==``, ties included.
* At paper scale set-up holds one dense ``(Z, M)`` block plus bounded
  scratch: the traced peaks of the cost build and of an all-hub probe, and
  no routing mirror built on the way.  The routing mirror, once built,
  holds its adjacency once: the traced peak of the mirror plus one query
  per path kernel.
* No production solver materialises the nested-dict views -- not the double
  greedy, not ``exact``, not ``milp``; the oracle reads them and agrees.
* A cost model is immutable: arrays and views both refuse writes.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import costs
from repro.placement.assignment import hub_sync_parts, vectorized_placement_cost
from repro.placement.compare import build_place_network
from repro.placement.costs import (
    PAPER_DELTA_PER_HOP,
    PAPER_EPSILON_PER_HOP,
    PAPER_ZETA_PER_HOP,
    PlacementCostModel,
    cost_model_from_network,
)
from repro.placement.problem import PlacementProblem
from repro.placement.solver import build_problem, solve_placement
from repro.placement.supermodular import objective_upper_bound
from repro.reference import placement as reference
from repro.topology.csr import NodeNotFound
from repro.topology.generators import watts_strogatz_pcn


# ---------------------------------------------------------------------- #
# the formulation this kernel replaced, kept verbatim as the bitwise oracle
# ---------------------------------------------------------------------- #
def _loop_sync_parts(arrays, omega, hub_rows):
    acc = np.zeros(len(hub_rows))
    for l in hub_rows:
        acc += arrays.delta[hub_rows, l]
    return omega * acc


def _column_gather_cost(arrays, zeta, omega, hub_rows):
    scores = zeta[:, hub_rows] + _loop_sync_parts(arrays, omega, hub_rows)[None, :]
    per_client = scores.min(axis=1)
    epsilon_total = float(arrays.epsilon[np.ix_(hub_rows, hub_rows)].sum())
    return float(per_client.sum()) + omega * epsilon_total


def _dict_loop_upper_bound(problem):
    costs = problem.costs
    management_bound = sum(
        max(costs.zeta[client][candidate] for candidate in problem.candidates)
        for client in problem.clients
    )
    client_count = len(problem.clients)
    synchronization_bound = sum(
        costs.delta[n][l] * client_count + costs.epsilon[n][l]
        for n in problem.candidates
        for l in problem.candidates
    )
    return management_bound + problem.omega * synchronization_bound + 1.0


@pytest.fixture(scope="module")
def thousand_node_model():
    network = watts_strogatz_pcn(
        1000,
        nearest_neighbors=8,
        rewire_probability=0.25,
        uniform_channel_size=200.0,
        candidate_fraction=0.08,
        seed=4,
    )
    model = cost_model_from_network(network)
    assert len(model.candidates) == 80
    return model


class TestKernelIsBitIdentical:
    @pytest.mark.parametrize("omega", [0.0, 0.02, 0.5])
    def test_probe_values_equal_the_column_gather_loop(self, thousand_node_model, omega):
        problem = PlacementProblem(thousand_node_model, omega=omega)
        arrays = problem.arrays
        zeta = np.ascontiguousarray(arrays.zeta)  # the old (M, Z) row-major layout
        count = arrays.candidate_count
        rng = np.random.default_rng(17)
        subsets = [np.array([0]), np.array([count - 1]), np.arange(count)]
        for density in (0.05, 0.3, 0.6, 0.9):
            for _ in range(10):
                rows = np.flatnonzero(rng.random(count) < density)
                if len(rows):
                    subsets.append(rows.astype(np.intp))
        for rows in subsets:
            assert np.array_equal(
                hub_sync_parts(problem, rows), _loop_sync_parts(arrays, omega, rows)
            )
            assert vectorized_placement_cost(problem, rows) == _column_gather_cost(
                arrays, zeta, omega, rows
            )

    def test_upper_bound_equals_the_dict_loop(self, thousand_node_model):
        for omega in (0.0, 0.02, 0.5):
            problem = PlacementProblem(thousand_node_model, omega=omega)
            assert objective_upper_bound(problem) == _dict_loop_upper_bound(problem)


def _full_matrix_cost(problem, hub_rows):
    """The unblocked probe: the whole ``(hubs, clients)`` score matrix at once."""
    arrays = problem.arrays
    scores = arrays.zeta_t[hub_rows] + hub_sync_parts(problem, hub_rows)[:, None]
    epsilon_total = float(arrays.epsilon[hub_rows[:, None], hub_rows].sum())
    return float(scores.min(axis=0).sum()) + problem.omega * epsilon_total


def _tied_model(clients=300, candidates=23, seed=5):
    """Small-integer costs: every client's minimum is tied across many hubs."""
    rng = np.random.default_rng(seed)
    hops = rng.integers(1, 4, size=(candidates, candidates)).astype(float)
    np.fill_diagonal(hops, 0.0)
    return PlacementCostModel(
        [f"c{i}" for i in range(clients)],
        [f"h{j}" for j in range(candidates)],
        0.02 * rng.integers(1, 4, size=(clients, candidates)),
        0.01 * hops,
        0.05 * hops,
    )


class TestProbeRowBlocks:
    @pytest.mark.parametrize("block_rows", [1, 3, 7, 40])
    def test_blocked_cost_equals_the_full_matrix_min(
        self, monkeypatch, thousand_node_model, block_rows
    ):
        for model in (thousand_node_model, _tied_model()):
            clients = model.as_arrays().client_count
            monkeypatch.setattr(costs, "_SCRATCH_BYTES", 8 * clients * block_rows)
            assert costs.scratch_rows(clients) == block_rows
            count = model.as_arrays().candidate_count
            rng = np.random.default_rng(block_rows)
            subsets = [np.arange(count), np.arange(0, count, 2), np.array([count - 1])]
            subsets += [np.flatnonzero(rng.random(count) < 0.6) for _ in range(5)]
            for omega in (0.0, 0.05, 0.5):
                problem = PlacementProblem(model, omega=omega)
                for rows in subsets:
                    rows = rows.astype(np.intp)
                    assert vectorized_placement_cost(problem, rows) == _full_matrix_cost(
                        problem, rows
                    )


def _level_model(rng, candidates, clients, hub_rows, omega):
    """Scores within noise of one level: ``zeta = K - sync + noise`` on the hubs.

    A client's minimum is then at any hub.  ``zeta`` falls as the
    synchronization part rises, so with ``B + R + 1`` hubs the first fold
    takes the ``B`` lowest parts, the second the ``R`` highest, and the
    bound's threshold is the score of the one hub in between: the cell a
    looser bound would skip.
    """
    between = np.repeat((rng.permutation(candidates) + 1.0)[:, None], candidates, axis=1)
    np.fill_diagonal(between, 0.0)
    delta = PAPER_DELTA_PER_HOP * between
    flat = PlacementCostModel(
        range(clients), range(candidates), np.zeros((clients, candidates)), delta, delta
    )
    sync = hub_sync_parts(PlacementProblem(flat, omega=omega), hub_rows)
    level = 1.0 + sync.max()
    spacing = np.diff(np.sort(sync)).min(initial=1.0) or 1.0
    zeta = level + rng.random((clients, candidates))
    zeta[:, hub_rows] = level - sync + 0.5 * spacing * rng.random((clients, len(hub_rows)))
    return PlacementCostModel(
        [f"c{i}" for i in range(clients)], [f"h{j}" for j in range(candidates)], zeta, delta, delta
    )


@st.composite
def bounded_probes(draw):
    """A random cost model, a hub subset and a scratch block smaller than it.

    Three cost shapes, ``Z`` on both sides of ``BOUND_ROWS``: float costs;
    small-integer ones whose minima tie across many hubs (the
    :func:`_tied_model` shape); and level ones (:func:`_level_model`).
    """
    shape = draw(st.sampled_from(["float", "tied", "level"]))
    bound = costs.BOUND_ROWS
    hubs = 2 * bound + 1
    candidates = draw(st.integers(min_value=hubs if shape == "level" else 2, max_value=60))
    clients = draw(st.integers(min_value=1, max_value=300))
    omega = draw(st.sampled_from([0.0, 0.02, 0.5]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if shape == "level":
        rows = np.sort(rng.choice(candidates, size=hubs, replace=False))
        model = _level_model(rng, candidates, clients, rows, omega)
    else:
        if shape == "tied":
            to_clients = rng.integers(1, 4, size=(clients, candidates)).astype(float)
            between = rng.integers(1, 4, size=(candidates, candidates)).astype(float)
        else:
            to_clients = rng.random((clients, candidates)) * 5.0
            between = rng.random((candidates, candidates)) * 5.0
        np.fill_diagonal(between, 0.0)
        model = PlacementCostModel(
            [f"c{i}" for i in range(clients)],
            [f"h{j}" for j in range(candidates)],
            PAPER_ZETA_PER_HOP * to_clients,
            PAPER_DELTA_PER_HOP * between,
            PAPER_EPSILON_PER_HOP * between,
        )
        rows = np.flatnonzero(rng.random(candidates) < draw(st.floats(0.1, 1.0)))
        if len(rows) < 2:
            rows = np.arange(candidates)
    block = draw(st.integers(min_value=1, max_value=len(rows) - 1))
    return PlacementProblem(model, omega=omega), rows.astype(np.intp), block


def _bounded_cost(problem, rows, block):
    """The probe with a scratch budget of ``block`` score rows (< ``len(rows)``)."""
    clients = problem.arrays.client_count
    with mock.patch.object(costs, "_SCRATCH_BYTES", 8 * clients * block):
        assert costs.scratch_rows(clients) == block < len(rows)
        return vectorized_placement_cost(problem, rows)


def _open_model():
    """Every client's 16 nearest candidates are off the hub set at 0 cost, and
    its cheapest hub is not among the 16 that sort first at ``omega = 0``."""
    zeta = np.zeros((40, 48))
    zeta[:, 16:32] = 2.0  # the 16 hubs step 1 folds
    zeta[:, 32:] = 1.0  # the minimum, at the 17th zeta and beyond the bound
    between = np.ones((48, 48))
    np.fill_diagonal(between, 0.0)
    return PlacementCostModel(
        [f"c{i}" for i in range(40)], [f"h{j}" for j in range(48)], zeta, between, between
    )


class TestBoundedProbe:
    """Hub sets larger than one scratch block take the bounded fold: it must
    equal the full-matrix ``min(axis=0).sum()``, ``==``."""

    @settings(max_examples=150, deadline=None)
    @given(bounded_probes())
    def test_bounded_cost_equals_the_full_matrix_min(self, case):
        problem, rows, block = case
        assert _bounded_cost(problem, rows, block) == _full_matrix_cost(problem, rows)

    @pytest.mark.parametrize("omega", [0.0, 0.02, 0.5])
    def test_edge_cases(self, omega):
        tied = PlacementProblem(_tied_model(candidates=40), omega=omega)
        few = PlacementProblem(_tied_model(candidates=12), omega=omega)
        assert few.arrays.nearest_candidates[2].tolist() == [np.inf] * 300  # Z <= R
        cases = [
            (tied, np.arange(0, 40, 4), 3),  # h <= B: the first fold covers every hub
            (few, np.arange(1, 12), 3),
            (tied, np.arange(40), 7),
        ]
        for problem, rows, block in cases:
            rows = rows.astype(np.intp)
            assert _bounded_cost(problem, rows, block) == _full_matrix_cost(problem, rows)

    def test_every_client_left_open_gets_the_exact_fold(self):
        problem = PlacementProblem(_open_model(), omega=0.0)
        rows = np.arange(16, 48, dtype=np.intp)
        near_rows, _, beyond = problem.arrays.nearest_candidates
        assert (near_rows < 16).all() and (beyond == 1.0).all()
        cost = _bounded_cost(problem, rows, 4)
        assert cost == _full_matrix_cost(problem, rows) == 40.0

    def test_table_is_shared_across_omegas(self, thousand_node_model):
        problem = PlacementProblem(thousand_node_model, omega=0.02)
        table = problem.arrays.nearest_candidates
        assert problem.with_omega(0.5).arrays.nearest_candidates is table
        rows, values, beyond = table
        assert rows.shape == values.shape == (costs.BOUND_ROWS, 920)
        assert rows.dtype == np.int32
        zeta = np.sort(thousand_node_model.as_arrays().zeta, axis=1)
        assert np.array_equal(values, zeta[:, : costs.BOUND_ROWS].T)
        assert np.array_equal(beyond, zeta[:, costs.BOUND_ROWS])


# ---------------------------------------------------------------------- #
# set-up memory at paper scale
# ---------------------------------------------------------------------- #
def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def paper_network():
    return build_place_network({"nodes": 3000}, 1)


class TestSetupMemory:
    """Set-up holds one dense ``(Z, M)`` block plus bounded scratch."""

    @pytest.mark.parametrize("mirror", [False, True])
    def test_cost_model_peak_is_under_two_blocks(self, paper_network, mirror):
        paper_network._graph_arrays = None
        if mirror:
            paper_network.graph_arrays()
        model, peak = _traced_peak(lambda: cost_model_from_network(paper_network))
        arrays = model.as_arrays()
        assert (arrays.candidate_count, arrays.client_count) == (240, 2760)
        assert peak <= 2 * arrays.zeta_t.nbytes
        assert np.shares_memory(arrays.zeta, arrays.zeta_t)

    def test_probe_peak_is_under_one_block(self, paper_network):
        problem = build_problem(paper_network, omega=0.05)
        rows = np.arange(problem.arrays.candidate_count, dtype=np.intp)
        cost, peak = _traced_peak(lambda: vectorized_placement_cost(problem, rows))
        assert peak < problem.arrays.zeta_t.nbytes
        assert cost == _full_matrix_cost(problem, rows)

    def test_build_problem_leaves_the_routing_mirror_unbuilt(self, paper_network):
        paper_network._graph_arrays = None
        build_problem(paper_network)
        assert paper_network._graph_arrays is None

    def test_unknown_candidate_raises_before_any_block(self, paper_network):
        with pytest.raises(NodeNotFound, match="ghost"):
            cost_model_from_network(paper_network, candidates=["ghost"])


class TestRoutingMirrorMemory:
    """The routing mirror keeps one adjacency; EDS and slot lookups are views of it."""

    @staticmethod
    def _mirror_and_queries(network):
        network._graph_arrays = None
        nodes = network.nodes()
        source, target = nodes[1], nodes[-7]
        arrays = network.graph_arrays()
        arrays.shortest_path(source, target)
        arrays.edge_disjoint_shortest_paths(source, target, 4)
        arrays.edge_disjoint_widest_paths(source, target, 4)

    def test_mirror_plus_one_query_per_kernel_is_under_8_mib(self, paper_network):
        # Warm imports (scipy for the widest-path drain) outside the trace.
        self._mirror_and_queries(build_place_network({"nodes": 200}, 1))
        try:
            _, peak = _traced_peak(lambda: self._mirror_and_queries(paper_network))
        finally:
            paper_network._graph_arrays = None
        assert peak <= 8 * 2**20


# ---------------------------------------------------------------------- #
# build: hop rows -> matrices == the nested-dict loop over the BFS probe
# ---------------------------------------------------------------------- #
def _dict_loop_model(network, clients, candidates):
    """The dict-first builder this PR removed, over the oracle's probe."""
    hops = reference.hop_probe(network, candidates)
    fallback = max(network.node_count(), 2)
    zeta = {
        m: {n: PAPER_ZETA_PER_HOP * hops[n].get(m, fallback) for n in candidates}
        for m in clients
    }
    between = {
        n: {l: 0 if n == l else hops[n].get(l, fallback) for l in candidates}
        for n in candidates
    }
    delta = {
        n: {l: PAPER_DELTA_PER_HOP * h for l, h in row.items()} for n, row in between.items()
    }
    epsilon = {
        n: {l: PAPER_EPSILON_PER_HOP * h for l, h in row.items()} for n, row in between.items()
    }
    return PlacementCostModel(clients, candidates, zeta, delta, epsilon)


def _island_network():
    network = watts_strogatz_pcn(
        60, nearest_neighbors=4, rewire_probability=0.3, candidate_fraction=0.2, seed=8
    )
    network.add_node("island-client")
    network.add_node("far-hub", role="candidate")
    network.add_node("far-client")
    network.add_channel("far-hub", "far-client", 50.0, 50.0)
    return network


class TestBuildFromHopRows:
    def test_matrices_equal_the_dict_loop_with_disconnected_parts(self):
        network = _island_network()
        clients = network.clients() + ["island-client", "not-in-the-network"]
        candidates = network.candidates()
        assert "far-hub" in candidates
        expected = _dict_loop_model(network, clients, candidates).as_arrays()
        for hops in (None, reference.hop_probe(network, candidates)):
            arrays = cost_model_from_network(
                network, clients=clients, candidates=candidates, hops=hops
            ).as_arrays()
            assert arrays.clients == tuple(clients)
            assert arrays.candidates == tuple(candidates)
            for name in ("zeta", "delta", "epsilon"):
                assert np.array_equal(getattr(arrays, name), getattr(expected, name)), name
        fallback = PAPER_ZETA_PER_HOP * network.node_count()
        island = arrays.zeta[arrays.client_index["island-client"]]
        assert island.tolist() == [fallback] * len(candidates)
        far_pair = arrays.client_index["far-client"], arrays.candidate_index["far-hub"]
        assert arrays.zeta[far_pair] == PAPER_ZETA_PER_HOP

    def test_views_mirror_the_arrays(self):
        model = cost_model_from_network(_island_network())
        arrays = model.as_arrays()
        assert arrays.zeta_t.flags.c_contiguous
        assert np.array_equal(arrays.zeta_t, arrays.zeta.T)
        assert list(model.zeta) == model.clients
        for name in ("zeta", "delta", "epsilon"):
            view = getattr(model, name)
            rebuilt = [[view[row][column] for column in model.candidates] for row in view]
            assert rebuilt == getattr(arrays, name).tolist()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not fit"):
            PlacementCostModel(
                ["c0"], ["h0", "h1"], np.zeros((2, 1)), np.zeros((2, 2)), np.zeros((2, 2))
            )


# ---------------------------------------------------------------------- #
# structure: who reads the nested-dict views
# ---------------------------------------------------------------------- #
@pytest.fixture
def view_reads(monkeypatch):
    reads = []
    materialise = PlacementCostModel._view

    def spy(self, name):
        reads.append(name)
        return materialise(self, name)

    monkeypatch.setattr(PlacementCostModel, "_view", spy)
    return reads


class TestWhoReadsTheViews:
    def _network(self):
        return watts_strogatz_pcn(
            24, nearest_neighbors=4, rewire_probability=0.3, candidate_fraction=0.25, seed=1
        )

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_double_greedy_never_materialises_them(self, view_reads, deterministic):
        problem = build_problem(self._network(), omega=0.05)
        plan = solve_placement(
            problem, method="greedy", seed=3, deterministic_greedy=deterministic
        )
        assert plan.hub_count >= 1 and plan.balance_cost > 0
        assert view_reads == []

    @pytest.mark.parametrize("method", ["exact", "milp"])
    def test_only_the_oracle_still_does(self, view_reads, method):
        network = self._network()
        plan = solve_placement(build_problem(network, omega=0.05), method=method, seed=0)
        assert view_reads == []
        oracle = reference.brute_force_placement(build_problem(network, omega=0.05))
        assert view_reads
        assert (plan.hubs, plan.assignment) == (oracle.hubs, oracle.assignment)
        assert plan.balance_cost == pytest.approx(oracle.balance_cost, abs=1e-9)


# ---------------------------------------------------------------------- #
# immutability
# ---------------------------------------------------------------------- #
class TestCostModelIsImmutable:
    def test_arrays_refuse_writes(self, tiny_placement_problem):
        arrays = tiny_placement_problem.arrays
        for matrix in (arrays.zeta, arrays.zeta_t, arrays.delta, arrays.epsilon):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 1.0

    def test_views_refuse_writes(self, tiny_placement_problem):
        costs = tiny_placement_problem.costs
        with pytest.raises(TypeError):
            costs.epsilon["h0"]["h1"] = 0.0
        with pytest.raises(TypeError):
            costs.zeta["c0"] = {}
