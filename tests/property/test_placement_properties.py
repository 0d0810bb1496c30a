"""Property-based tests of the placement layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement.assignment import is_assignment_optimal, plan_for_placement
from repro.placement.bruteforce import brute_force_placement
from repro.placement.costs import PlacementCostModel
from repro.placement.milp import solve_placement_milp
from repro.placement.problem import PlacementProblem
from repro.placement.solver import CombinatorialBranchAndBound
from repro.placement.supermodular import double_greedy_placement


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


@settings(max_examples=60, deadline=None)
@given(problem=placement_problems())
def test_lemma1_assignment_is_singleswap_optimal(problem):
    """For any placement, the Lemma-1 assignment admits no improving swap."""
    hubs = problem.candidates  # place everything
    plan = plan_for_placement(problem, hubs)
    assert is_assignment_optimal(problem, plan)


@settings(max_examples=40, deadline=None)
@given(problem=placement_problems())
def test_exact_solvers_agree_with_brute_force(problem):
    """The combinatorial branch and bound always matches exhaustive search."""
    exact = brute_force_placement(problem)
    bnb = CombinatorialBranchAndBound(problem).solve()
    assert bnb.balance_cost == pytest.approx(exact.balance_cost, rel=1e-9, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(problem=placement_problems(max_candidates=3, max_clients=4))
def test_milp_matches_brute_force(problem):
    exact = brute_force_placement(problem)
    milp = solve_placement_milp(problem)
    assert milp.plan.balance_cost == pytest.approx(exact.balance_cost, rel=1e-6, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(problem=placement_problems(max_candidates=5, max_clients=6), seed=st.integers(0, 2**16))
def test_double_greedy_always_returns_a_valid_plan(problem, seed):
    plan = double_greedy_placement(problem, seed=seed)
    problem.validate(plan.hubs, plan.assignment)
    # The greedy plan is never worse than placing every candidate.
    full = plan_for_placement(problem, problem.candidates)
    assert plan.balance_cost <= full.balance_cost + 1e-9
