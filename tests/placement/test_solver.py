"""Tests for the unified placement solver facade."""

import pytest

from repro.placement.assignment import placement_cost
from repro.placement.costs import PlacementCostModel
from repro.placement.problem import PlacementProblem
from repro.placement.solver import (
    MAX_EXACT_CANDIDATES,
    METHODS,
    CombinatorialBranchAndBound,
    PlacementSolver,
    build_problem,
    solve_placement,
)
from repro.reference.placement import brute_force_placement
from repro.topology.generators import watts_strogatz_pcn


def _flat_problem(candidate_count):
    """One client, ``candidate_count`` interchangeable candidates."""
    candidates = [f"h{i}" for i in range(candidate_count)]
    zeta = {"c0": {h: 1.0 for h in candidates}}
    zero = {h: {l: 0.0 for l in candidates} for h in candidates}
    return PlacementProblem(PlacementCostModel(["c0"], candidates, zeta, zero, zero))


class TestCombinatorialBranchAndBound:
    def test_matches_brute_force(self, tiny_placement_problem):
        exact = brute_force_placement(tiny_placement_problem)
        plan = CombinatorialBranchAndBound(tiny_placement_problem).solve()
        assert plan.balance_cost == pytest.approx(exact.balance_cost, abs=1e-9)

    def test_matches_brute_force_on_network_instance(self, small_placement_problem):
        exact = brute_force_placement(small_placement_problem)
        plan = CombinatorialBranchAndBound(small_placement_problem).solve()
        assert plan.balance_cost == pytest.approx(exact.balance_cost, rel=1e-9)

    def test_warm_start(self, tiny_placement_problem):
        warm = tuple(tiny_placement_problem.candidates)
        plan = CombinatorialBranchAndBound(tiny_placement_problem).solve(initial_hubs=warm)
        exact = brute_force_placement(tiny_placement_problem)
        assert plan.balance_cost == pytest.approx(exact.balance_cost, abs=1e-9)

    def test_optimum_beats_all_subsets(self, tiny_placement_problem):
        from itertools import combinations

        plan = CombinatorialBranchAndBound(tiny_placement_problem).solve()
        candidates = tiny_placement_problem.candidates
        for size in range(1, len(candidates) + 1):
            for subset in combinations(candidates, size):
                assert plan.balance_cost <= placement_cost(tiny_placement_problem, subset) + 1e-12

    def test_omega_zero_places_hubs_near_every_client(self, tiny_placement_problem):
        # Without synchronization cost, adding hubs can only help management
        # cost, so the optimum assigns every client to its cheapest candidate.
        problem = tiny_placement_problem.with_omega(0.0)
        plan = CombinatorialBranchAndBound(problem).solve()
        expected = sum(
            min(problem.costs.zeta[c][h] for h in problem.candidates) for c in problem.clients
        )
        assert plan.balance_cost == pytest.approx(expected)
        assert plan.method == "exact-bnb"

    def test_search_tree_is_bounded_by_the_candidate_count(self, small_placement_problem):
        """No budget to run out of: the whole tree has 2^(z+1) - 1 nodes."""
        solver = CombinatorialBranchAndBound(small_placement_problem)
        solver.solve()
        z = small_placement_problem.candidate_count
        assert 1 <= solver.nodes_explored <= 2 ** (z + 1) - 1

    def test_too_many_candidates_rejected_up_front(self, monkeypatch):
        """``exact`` never returns an unproven plan: it refuses the instance,
        naming the count and the limit, before the warm start is computed."""
        from repro.placement import solver as solver_module

        monkeypatch.setattr(
            solver_module, "double_greedy_placement", lambda *a, **k: pytest.fail("ran")
        )
        count = MAX_EXACT_CANDIDATES + 1
        message = f"limited to {MAX_EXACT_CANDIDATES} candidates, got {count}"
        with pytest.raises(ValueError, match=message):
            solve_placement(_flat_problem(count), method="exact")

    def test_the_limit_itself_is_accepted(self):
        plan = solve_placement(_flat_problem(MAX_EXACT_CANDIDATES), method="exact")
        assert plan.balance_cost == 1.0


class TestPlacementSolverFacade:
    def test_exact_method(self, tiny_placement_problem):
        plan = PlacementSolver(tiny_placement_problem, method="exact").solve()
        exact = brute_force_placement(tiny_placement_problem)
        assert plan.balance_cost == pytest.approx(exact.balance_cost, abs=1e-9)

    def test_milp_method(self, tiny_placement_problem):
        plan = PlacementSolver(tiny_placement_problem, method="milp").solve()
        exact = brute_force_placement(tiny_placement_problem)
        assert plan.balance_cost == pytest.approx(exact.balance_cost, abs=1e-6)

    def test_greedy_method(self, small_placement_problem):
        plan = PlacementSolver(small_placement_problem, method="greedy", seed=0).solve()
        small_placement_problem.validate(plan.hubs, plan.assignment)

    def test_auto_uses_exact_for_small_instances(self, tiny_placement_problem):
        plan = PlacementSolver(tiny_placement_problem, method="auto").solve()
        exact = brute_force_placement(tiny_placement_problem)
        assert plan.balance_cost == pytest.approx(exact.balance_cost, abs=1e-9)

    def test_auto_uses_greedy_for_large_instances(self):
        network = watts_strogatz_pcn(120, nearest_neighbors=6, candidate_fraction=0.2, seed=23)
        problem = build_problem(network, omega=0.05)
        plan = PlacementSolver(problem, method="auto", seed=0).solve()
        assert plan.method == "double-greedy"

    @pytest.mark.parametrize("method", ["quantum", "brute"])
    def test_unknown_method_rejected(self, tiny_placement_problem, method):
        assert METHODS == ("auto", "milp", "exact", "greedy")
        with pytest.raises(ValueError, match="unknown placement method"):
            PlacementSolver(tiny_placement_problem, method=method)

    @pytest.mark.parametrize("option", ["small_scale_limit", "max_hubs", "node_limit"])
    def test_removed_options_stay_removed(self, tiny_placement_problem, option):
        with pytest.raises(TypeError):
            solve_placement(tiny_placement_problem, method="exact", **{option: 4})


class TestSolvePlacementEntryPoint:
    def test_from_network(self, small_ws_network):
        plan = solve_placement(small_ws_network, omega=0.05, method="exact")
        assert plan.hub_count >= 1
        assert set(plan.assignment) == set(small_ws_network.clients())

    def test_from_problem(self, tiny_placement_problem):
        plan = solve_placement(tiny_placement_problem, method="exact")
        assert plan.hub_count >= 1

    def test_omega_changes_hub_count_direction(self, small_ws_network):
        """Higher omega (synchronization dearer) never increases the hub count."""
        few = solve_placement(small_ws_network, omega=2.0, method="exact")
        many = solve_placement(small_ws_network, omega=0.0, method="exact")
        assert many.hub_count >= few.hub_count

    def test_solver_options_forwarded(self, small_ws_network):
        plan = solve_placement(
            small_ws_network, method="greedy", seed=1, deterministic_greedy=True
        )
        assert plan.hub_count >= 1
