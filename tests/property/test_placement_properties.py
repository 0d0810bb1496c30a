"""Property-based tests of the placement layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itertools import combinations

import numpy as np

from repro.placement.assignment import plan_for_placement, sequential_placement_cost
from repro.placement.compare import DEFAULT_OMEGAS
from repro.placement.costs import (
    PAPER_DELTA_PER_HOP,
    PAPER_EPSILON_PER_HOP,
    PAPER_ZETA_PER_HOP,
    PlacementCostModel,
)
from repro.placement.milp import solve_placement_milp
from repro.placement.problem import PlacementProblem
from repro.placement.solver import solve_placement
from repro.placement.supermodular import double_greedy_placement
from repro.reference import placement as reference


@st.composite
def placement_problems(draw, max_candidates=4, max_clients=6):
    """Random small placement instances with non-negative costs."""
    candidate_count = draw(st.integers(min_value=1, max_value=max_candidates))
    client_count = draw(st.integers(min_value=1, max_value=max_clients))
    candidates = [f"h{i}" for i in range(candidate_count)]
    clients = [f"c{i}" for i in range(client_count)]
    cost = st.floats(min_value=0.0, max_value=5.0)
    zeta = {c: {h: draw(cost) for h in candidates} for c in clients}
    sym = {}
    for i, n in enumerate(candidates):
        for j, l in enumerate(candidates):
            if j < i:
                continue
            value = 0.0 if i == j else draw(cost)
            sym[(n, l)] = value
            sym[(l, n)] = value
    delta = {n: {l: sym[(n, l)] for l in candidates} for n in candidates}
    epsilon = {n: {l: sym[(n, l)] * draw(st.floats(min_value=0.0, max_value=2.0)) if n != l else 0.0 for l in candidates} for n in candidates}
    omega = draw(st.floats(min_value=0.0, max_value=2.0))
    model = PlacementCostModel(clients, candidates, zeta, delta, epsilon)
    return PlacementProblem(model, omega=omega)


@st.composite
def hop_count_problems(draw, max_candidates=10, max_clients=8):
    """Integer hop counts times the paper's coefficients, at a paper omega.

    The shape every network-probed instance has, and the one where subsets
    tie: mathematically equal costs that differ in the last float digit, or
    not at all (``omega = 0``, interchangeable candidates).
    """
    candidate_count = draw(st.integers(min_value=1, max_value=max_candidates))
    client_count = draw(st.integers(min_value=1, max_value=max_clients))
    hops = st.integers(min_value=1, max_value=4)
    to_clients = np.array(
        [[draw(hops) for _ in range(candidate_count)] for _ in range(client_count)], dtype=float
    )
    between = np.zeros((candidate_count, candidate_count))
    for i in range(candidate_count):
        for j in range(i + 1, candidate_count):
            between[i, j] = between[j, i] = draw(hops)
    model = PlacementCostModel(
        [f"c{i}" for i in range(client_count)],
        [f"h{i}" for i in range(candidate_count)],
        PAPER_ZETA_PER_HOP * to_clients,
        PAPER_DELTA_PER_HOP * between,
        PAPER_EPSILON_PER_HOP * between,
    )
    return PlacementProblem(model, omega=draw(st.sampled_from(DEFAULT_OMEGAS)))


def _oracle_costs(problem):
    """The oracle's ``f(X)`` of every non-empty candidate subset."""
    return {
        frozenset(subset): reference.placement_cost(problem, subset)
        for size in range(1, problem.candidate_count + 1)
        for subset in combinations(problem.candidates, size)
    }


def _assert_is_the_oracle_optimum(problem, plan, oracle_costs, tolerance):
    """``plan`` is optimal; where the optimum is unique it names the oracle's hubs."""
    ranked = sorted(oracle_costs.values())
    assert plan.balance_cost == pytest.approx(ranked[0], abs=tolerance)
    assert oracle_costs[plan.hubs] == pytest.approx(ranked[0], abs=tolerance)
    unique = len(ranked) == 1 or ranked[1] - ranked[0] > 1e-9
    if unique:
        oracle = reference.brute_force_placement(problem)
        assert (plan.hubs, plan.assignment) == (oracle.hubs, oracle.assignment)
    return unique


@settings(max_examples=60, deadline=None)
@given(problem=placement_problems())
def test_lemma1_assignment_is_singleswap_optimal(problem):
    """For any placement, the Lemma-1 assignment admits no improving swap."""
    hubs = problem.candidates  # place everything
    plan = plan_for_placement(problem, hubs)
    assert reference.is_assignment_optimal(problem, plan)


@settings(max_examples=50, deadline=None)
@given(problem=st.one_of(placement_problems(), hop_count_problems()))
def test_exact_search_and_its_kernel_equal_the_oracle(problem):
    """Subset for subset the row-indexed kernel returns the oracle's float
    (``==``), and the branch-and-bound built on it returns the exhaustive
    optimum: the same hubs, assignment and ``balance_cost`` (``==``) whenever
    one subset is strictly cheapest, a subset tied with it (to the search's
    1e-12 pruning slack) otherwise."""
    oracle_costs = _oracle_costs(problem)
    rows = problem.arrays.candidate_rows
    for subset, expected in oracle_costs.items():
        assert sequential_placement_cost(problem, rows(subset)) == expected
    plan = solve_placement(problem, method="exact")
    if _assert_is_the_oracle_optimum(problem, plan, oracle_costs, tolerance=1e-11):
        assert plan.balance_cost == reference.brute_force_placement(problem).balance_cost


@settings(max_examples=15, deadline=None)
@given(
    problem=st.one_of(
        placement_problems(max_candidates=3, max_clients=4),
        hop_count_problems(max_candidates=5, max_clients=8),
    )
)
def test_milp_matches_the_oracle(problem):
    """HiGHS may return any of several tied optima, so hub-set equality is
    asserted only where the optimum is unique."""
    plan = solve_placement_milp(problem)
    _assert_is_the_oracle_optimum(problem, plan, _oracle_costs(problem), tolerance=1e-6)


@settings(max_examples=40, deadline=None)
@given(problem=placement_problems(max_candidates=5, max_clients=6), seed=st.integers(0, 2**16))
def test_double_greedy_always_returns_a_valid_plan(problem, seed):
    plan = double_greedy_placement(problem, seed=seed)
    problem.validate(plan.hubs, plan.assignment)
    # The greedy plan is never worse than placing every candidate.
    full = plan_for_placement(problem, problem.candidates)
    assert plan.balance_cost <= full.balance_cost + 1e-9
