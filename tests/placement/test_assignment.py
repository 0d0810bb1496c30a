"""Tests for the Lemma-1 optimal assignment."""

import pytest

from repro.placement.assignment import (
    optimal_assignment,
    placement_cost,
    plan_for_placement,
)
from repro.reference.placement import is_assignment_optimal


class TestOptimalAssignment:
    def test_every_client_assigned(self, tiny_placement_problem):
        assignment = optimal_assignment(tiny_placement_problem, ["h0", "h1", "h2"])
        assert set(assignment) == set(tiny_placement_problem.clients)
        assert set(assignment.values()) <= {"h0", "h1", "h2"}

    def test_single_hub_assignment(self, tiny_placement_problem):
        assignment = optimal_assignment(tiny_placement_problem, ["h1"])
        assert set(assignment.values()) == {"h1"}

    def test_assignment_minimizes_lemma1_cost(self, tiny_placement_problem):
        plan = plan_for_placement(tiny_placement_problem, ["h0", "h2"])
        assert is_assignment_optimal(tiny_placement_problem, plan)

    def test_no_single_swap_improves_cost(self, small_placement_problem):
        hubs = small_placement_problem.candidates[:3]
        plan = plan_for_placement(small_placement_problem, hubs)
        baseline = plan.balance_cost
        for client in small_placement_problem.clients:
            for hub in hubs:
                if hub == plan.assignment[client]:
                    continue
                trial = dict(plan.assignment)
                trial[client] = hub
                trial_cost = small_placement_problem.balance_cost(hubs, trial)
                assert trial_cost >= baseline - 1e-9

    def test_empty_placement_rejected(self, tiny_placement_problem):
        with pytest.raises(ValueError):
            optimal_assignment(tiny_placement_problem, [])

    def test_deterministic(self, small_placement_problem):
        hubs = small_placement_problem.candidates[:3]
        first = optimal_assignment(small_placement_problem, hubs)
        second = optimal_assignment(small_placement_problem, hubs)
        assert first == second


class TestPlacementCost:
    def test_empty_placement_is_infinite(self, tiny_placement_problem):
        assert placement_cost(tiny_placement_problem, []) == float("inf")

    def test_matches_plan_cost(self, tiny_placement_problem):
        cost = placement_cost(tiny_placement_problem, ["h0", "h1"])
        plan = plan_for_placement(tiny_placement_problem, ["h0", "h1"])
        assert cost == pytest.approx(plan.balance_cost)

    def test_plan_records_method(self, tiny_placement_problem):
        plan = plan_for_placement(tiny_placement_problem, ["h0"], method="custom")
        assert plan.method == "custom"

    def test_adding_a_far_hub_can_increase_cost(self, tiny_placement_problem):
        # With a large omega, placing every candidate is more expensive than
        # a well-chosen single hub because of synchronization costs.
        single = min(
            placement_cost(tiny_placement_problem, [hub])
            for hub in tiny_placement_problem.candidates
        )
        everything = placement_cost(tiny_placement_problem, tiny_placement_problem.candidates)
        assert everything > single
