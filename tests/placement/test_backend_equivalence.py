"""Differential suite: vectorized placement kernels vs the scalar reference.

Mirrors the routing and baseline equivalence suites one subsystem over: for
every solver method the production placement path must produce the
*identical plan* (hub set and client assignment) as the nested-dict,
from-scratch solvers of :mod:`repro.reference.placement` (built over the
per-candidate networkx hop probe), with objective values at most 1e-9
apart, across seeds, omegas and the degenerate corners (single candidate,
disconnected clients).  A hypothesis invariant additionally pins the
incremental :class:`~repro.placement.supermodular.ObjectiveEngine` to the
from-scratch objective on random cost models.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement.assignment import optimal_assignment, placement_cost
from repro.placement.costs import PlacementCostModel, cost_model_from_network
from repro.placement.problem import PlacementProblem
from repro.placement.solver import build_problem, solve_placement
from repro.placement.supermodular import (
    ObjectiveEngine,
    double_greedy_placement,
    greedy_descent_placement,
    placement_objective,
)
from repro.reference import placement as reference
from repro.topology.generators import watts_strogatz_pcn
from repro.topology.network import PCNetwork

TOL = 1e-9


def _network(seed, nodes=40, candidate_fraction=0.25):
    return watts_strogatz_pcn(
        nodes,
        nearest_neighbors=4,
        rewire_probability=0.3,
        uniform_channel_size=100.0,
        candidate_fraction=candidate_fraction,
        seed=seed,
    )


def _reference_problem(network, **options):
    """The same cost model, built over the per-candidate networkx hop probe."""
    hops = reference.hop_probe(network, options.get("candidates"))
    return build_problem(network, hops=hops, **options)


def _assert_plans_identical(plan_python, plan_numpy):
    assert plan_numpy.hubs == plan_python.hubs
    assert plan_numpy.assignment == plan_python.assignment
    assert plan_numpy.balance_cost == pytest.approx(plan_python.balance_cost, abs=TOL)
    assert plan_numpy.management_cost == pytest.approx(plan_python.management_cost, abs=TOL)
    assert plan_numpy.synchronization_cost == pytest.approx(
        plan_python.synchronization_cost, abs=TOL
    )


class TestSolverMethodEquivalence:
    """Every facade method produces the plan the reference solvers produce."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("omega", [0.0, 0.05, 0.5])
    def test_greedy_randomized(self, seed, omega):
        network = _network(seed)
        _assert_plans_identical(
            reference.double_greedy_placement(
                _reference_problem(network, omega=omega), seed=7
            ),
            solve_placement(network, omega=omega, method="greedy", seed=7),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_greedy_deterministic(self, seed):
        network = _network(seed)
        _assert_plans_identical(
            reference.double_greedy_placement(
                _reference_problem(network, omega=0.05), deterministic=True
            ),
            solve_placement(network, omega=0.05, method="greedy", deterministic_greedy=True),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_greedy_without_local_search(self, seed):
        network = _network(seed)
        _assert_plans_identical(
            reference.double_greedy_placement(
                _reference_problem(network, omega=0.1), seed=0, local_search=False
            ),
            solve_placement(network, omega=0.1, method="greedy", seed=0, local_search=False),
        )

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("method", ["exact", "milp"])
    def test_exact_methods(self, seed, method):
        """Each exact method returns the exhaustive optimum the reference
        enumerates, attached by the reference's Lemma-1 assignment."""
        network = _network(seed, nodes=24, candidate_fraction=0.25)
        _assert_plans_identical(
            reference.brute_force_placement(_reference_problem(network, omega=0.05)),
            solve_placement(network, omega=0.05, method=method, seed=0),
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_greedy_descent(self, seed):
        network = _network(seed)
        _assert_plans_identical(
            reference.greedy_descent_placement(_reference_problem(network)),
            greedy_descent_placement(build_problem(network)),
        )

    def test_uniform_delta_lemma2_case(self):
        network = _network(5)
        _assert_plans_identical(
            reference.double_greedy_placement(
                _reference_problem(network, omega=0.1, uniform_delta=True), seed=0
            ),
            solve_placement(
                build_problem(network, omega=0.1, uniform_delta=True), method="greedy", seed=0
            ),
        )


class TestDegenerateCases:
    """The corners the issue calls out: single candidate, disconnected clients."""

    def test_single_candidate(self):
        network = _network(2, nodes=20)
        candidates = network.candidates()[:1]
        plan = solve_placement(
            build_problem(network, candidates=candidates), method="greedy", seed=0
        )
        _assert_plans_identical(
            reference.double_greedy_placement(
                _reference_problem(network, candidates=candidates), seed=0
            ),
            plan,
        )
        assert plan.hub_count == 1

    def test_disconnected_clients_fall_back_to_uniform_hops(self):
        network = _network(3, nodes=20)
        for island in ("island-a", "island-b"):
            network.add_node(island)
        clients = network.clients() + ["island-a", "island-b"]
        plan = solve_placement(build_problem(network, clients=clients), method="greedy", seed=0)
        _assert_plans_identical(
            reference.double_greedy_placement(
                _reference_problem(network, clients=clients), seed=0
            ),
            plan,
        )
        # The islands are assigned somewhere (Lemma 1 never strands a client).
        for island in ("island-a", "island-b"):
            assert plan.assignment[island] in plan.hubs

    def test_non_candidate_hubs_raise_the_canonical_error(self):
        """A placement disjoint from the candidate set fails loudly, not with
        an opaque min()/KeyError crash, on every evaluation path."""
        problem = build_problem(_network(1, nodes=20))
        for assign in (optimal_assignment, reference.optimal_assignment):
            with pytest.raises(ValueError, match="placement is empty"):
                assign(problem, ["not-a-candidate"])
        for cost in (placement_cost, reference.placement_cost):
            with pytest.raises(ValueError, match="placement is empty"):
                cost(problem, ["not-a-candidate"])

    def test_disconnected_candidate_component(self):
        """A candidate pair unreachable from the rest probes fallback hops."""
        network = _network(4, nodes=20)
        network.add_node("far-hub", role="candidate")
        network.add_node("far-client")
        network.add_channel("far-hub", "far-client", 50.0, 50.0)
        _assert_plans_identical(
            reference.double_greedy_placement(
                _reference_problem(network, omega=0.05), seed=1
            ),
            solve_placement(network, omega=0.05, method="greedy", seed=1),
        )


class TestKernelEquivalence:
    """Assignment, f(X) and the hop probe against their scalar counterparts."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_assignment_and_costs_match_on_random_subsets(self, seed):
        network = _network(seed)
        problem = build_problem(network, omega=0.05)
        rng = np.random.default_rng(seed)
        for _ in range(12):
            mask = rng.random(problem.candidate_count) < 0.4
            hubs = [c for c, take in zip(problem.candidates, mask) if take]
            if not hubs:
                continue
            assert optimal_assignment(problem, hubs) == reference.optimal_assignment(
                problem, hubs
            )
            expected = reference.placement_cost(problem, hubs)
            assert placement_cost(problem, hubs) == pytest.approx(expected, abs=TOL)

    def test_batched_hop_probe_matches_per_candidate_bfs(self):
        network = _network(6, nodes=30)
        network.add_node("island")
        produced = cost_model_from_network(network)
        expected = _reference_problem(network).costs
        assert produced.zeta == expected.zeta
        assert produced.delta == expected.delta
        assert produced.epsilon == expected.epsilon


# ---------------------------------------------------------------------- #
# hypothesis: incremental engine == from-scratch objective
# ---------------------------------------------------------------------- #
@st.composite
def cost_models(draw):
    """Random small cost models (arbitrary non-negative matrices)."""
    client_count = draw(st.integers(min_value=1, max_value=6))
    candidate_count = draw(st.integers(min_value=1, max_value=5))
    clients = [f"m{i}" for i in range(client_count)]
    candidates = [f"n{j}" for j in range(candidate_count)]
    value = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, width=32)
    zeta = {
        m: {n: float(draw(value)) for n in candidates} for m in clients
    }
    delta = {
        n: {l: (0.0 if n == l else float(draw(value))) for l in candidates}
        for n in candidates
    }
    epsilon = {
        n: {l: (0.0 if n == l else float(draw(value))) for l in candidates}
        for n in candidates
    }
    return PlacementCostModel(clients, candidates, zeta, delta, epsilon)


@settings(max_examples=60, deadline=None)
@given(
    model=cost_models(),
    omega=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    toggles=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=12),
)
def test_incremental_gains_match_from_scratch(model, omega, toggles):
    """After any toggle sequence, every cached/incremental value the engine
    reports equals the from-scratch objective of its current subset, and each
    probe gain equals the from-scratch objective difference -- both against
    production's own from-scratch evaluation and against the scalar
    reference objective."""
    problem = PlacementProblem(model, omega=omega)
    engine = ObjectiveEngine(problem)
    for index in toggles:
        candidate = model.candidates[index % len(model.candidates)]
        gain = engine.toggle_gain(candidate)
        if gain is None:
            continue
        toggled = engine.members ^ {candidate}
        for objective in (placement_objective, reference.placement_objective):
            before = objective(problem, engine.members)
            after = objective(problem, toggled)
            assert gain == pytest.approx(after - before, abs=TOL)
        engine.apply_toggle(candidate)
        assert engine.members == toggled
        for objective in (placement_objective, reference.placement_objective):
            assert engine.value == pytest.approx(objective(problem, engine.members), abs=TOL)


@settings(max_examples=30, deadline=None)
@given(model=cost_models(), omega=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_double_greedy_backends_agree_on_random_models(model, omega):
    """Full Algorithm 1 plan identity on arbitrary random cost models."""
    problem = PlacementProblem(model, omega=omega)
    _assert_plans_identical(
        reference.double_greedy_placement(problem, seed=11),
        double_greedy_placement(problem, seed=11),
    )


def test_engine_probe_is_cached_per_version():
    """A probe at an unchanged version is served from the cache (no re-eval)."""
    network = _network(1, nodes=20)
    problem = build_problem(network)
    engine = ObjectiveEngine(problem)
    first_candidate, probed = problem.candidates[0], problem.candidates[1]
    first_gain = engine.toggle_gain(probed)
    calls = {"count": 0}
    original = engine._evaluate_rows

    def counting(rows):
        calls["count"] += 1
        return original(rows)

    engine._evaluate_rows = counting
    assert engine.toggle_gain(probed) == first_gain
    assert calls["count"] == 0  # cache hit: no evaluation ran
    engine.apply_toggle(first_candidate)  # bumps the version (1 probe eval)
    engine.toggle_gain(probed)
    assert calls["count"] == 2  # the stale cached gain was lazily re-evaluated


def test_network_probe_matches_manual_costs():
    """`cost_model_from_network` arrays mirror the dicts exactly."""
    network = _network(6, nodes=16)
    model = cost_model_from_network(network)
    arrays = model.as_arrays()
    for i, client in enumerate(model.clients):
        for j, candidate in enumerate(model.candidates):
            assert arrays.zeta[i, j] == model.zeta[client][candidate]
    for i, n in enumerate(model.candidates):
        for j, l in enumerate(model.candidates):
            assert arrays.delta[i, j] == model.delta[n][l]
            assert arrays.epsilon[i, j] == model.epsilon[n][l]


def test_empty_network_candidates_rejected():
    network = PCNetwork()
    network.add_node("a")
    network.add_node("b")
    network.add_channel("a", "b", 10.0, 10.0)
    with pytest.raises(ValueError):
        build_problem(network)
