"""Tests for the double-greedy approximation and supermodularity checks."""

import pytest

from repro.placement.costs import cost_model_from_network, uniformize_delta
from repro.placement.problem import PlacementProblem
from repro.placement.supermodular import (
    double_greedy_placement,
    greedy_descent_placement,
    is_supermodular,
    objective_upper_bound,
    placement_objective,
)
from repro.reference.placement import brute_force_placement
from repro.topology.generators import watts_strogatz_pcn


class TestObjective:
    def test_empty_set_maps_to_upper_bound(self, tiny_placement_problem):
        assert placement_objective(tiny_placement_problem, []) == pytest.approx(
            objective_upper_bound(tiny_placement_problem)
        )

    def test_upper_bound_dominates_all_subsets(self, tiny_placement_problem):
        from itertools import combinations

        bound = objective_upper_bound(tiny_placement_problem)
        candidates = tiny_placement_problem.candidates
        for size in range(1, len(candidates) + 1):
            for subset in combinations(candidates, size):
                assert placement_objective(tiny_placement_problem, subset) <= bound


class TestDoubleGreedy:
    def test_returns_valid_plan(self, small_placement_problem):
        plan = double_greedy_placement(small_placement_problem, seed=0)
        small_placement_problem.validate(plan.hubs, plan.assignment)
        assert plan.method == "double-greedy"

    def test_deterministic_variant_is_reproducible(self, small_placement_problem):
        first = double_greedy_placement(small_placement_problem, deterministic=True)
        second = double_greedy_placement(small_placement_problem, deterministic=True)
        assert first.hubs == second.hubs

    def test_randomized_variant_reproducible_with_seed(self, small_placement_problem):
        first = double_greedy_placement(small_placement_problem, seed=42)
        second = double_greedy_placement(small_placement_problem, seed=42)
        assert first.hubs == second.hubs

    def test_close_to_optimal_on_small_instance(self, tiny_placement_problem):
        exact = brute_force_placement(tiny_placement_problem)
        approx = double_greedy_placement(tiny_placement_problem, seed=1)
        assert approx.balance_cost <= exact.balance_cost * 1.5 + 1e-9

    def test_local_search_never_hurts(self, small_placement_problem):
        raw = double_greedy_placement(small_placement_problem, seed=3, local_search=False)
        polished = double_greedy_placement(small_placement_problem, seed=3, local_search=True)
        assert polished.balance_cost <= raw.balance_cost + 1e-9

    def test_invalid_element_order_rejected(self, tiny_placement_problem):
        with pytest.raises(ValueError):
            double_greedy_placement(tiny_placement_problem, element_order=["h0"])

    def test_element_order_permutation_accepted(self, tiny_placement_problem):
        plan = double_greedy_placement(
            tiny_placement_problem,
            deterministic=True,
            element_order=["h2", "h0", "h1"],
        )
        tiny_placement_problem.validate(plan.hubs, plan.assignment)

    def test_scales_to_many_candidates(self):
        network = watts_strogatz_pcn(120, nearest_neighbors=6, candidate_fraction=0.25, seed=5)
        problem = PlacementProblem(cost_model_from_network(network), omega=0.05)
        plan = double_greedy_placement(problem, seed=0, local_search=False)
        problem.validate(plan.hubs, plan.assignment)

    def test_approximation_quality_on_uniform_instances(self):
        """On uniform-delta (provably supermodular) instances the greedy stays close to optimal."""
        network = watts_strogatz_pcn(24, nearest_neighbors=4, candidate_fraction=0.25, seed=9)
        model = uniformize_delta(cost_model_from_network(network))
        problem = PlacementProblem(model, omega=0.1)
        exact = brute_force_placement(problem)
        approx = double_greedy_placement(problem, seed=2)
        assert approx.balance_cost <= exact.balance_cost * 1.25 + 1e-9


class TestGreedyDescent:
    def test_returns_valid_plan(self, small_placement_problem):
        plan = greedy_descent_placement(small_placement_problem)
        small_placement_problem.validate(plan.hubs, plan.assignment)
        assert plan.method == "greedy-descent"

    def test_never_worse_than_full_placement(self, small_placement_problem):
        full_cost = placement_objective(small_placement_problem, small_placement_problem.candidates)
        plan = greedy_descent_placement(small_placement_problem)
        assert plan.balance_cost <= full_cost + 1e-9


class TestSupermodularity:
    def test_uniform_delta_objective_is_supermodular(self):
        """Lemma 2: with uniform synchronization costs the objective is supermodular."""
        network = watts_strogatz_pcn(18, nearest_neighbors=4, candidate_fraction=0.3, seed=13)
        # Zero epsilon as well so only the uniform-delta structure remains
        # (cost models are immutable, so it is zero from construction).
        model = uniformize_delta(cost_model_from_network(network, epsilon_per_hop=0.0))
        problem = PlacementProblem(model, omega=0.2)
        assert is_supermodular(problem)

    def test_sampled_check_agrees_on_uniform_instance(self):
        network = watts_strogatz_pcn(40, nearest_neighbors=4, candidate_fraction=0.3, seed=17)
        model = uniformize_delta(cost_model_from_network(network, epsilon_per_hop=0.0))
        problem = PlacementProblem(model, omega=0.2)
        assert is_supermodular(problem, sample_checks=200)

    def test_exhaustive_check_rejects_large_instances(self):
        network = watts_strogatz_pcn(100, nearest_neighbors=6, candidate_fraction=0.2, seed=19)
        problem = PlacementProblem(cost_model_from_network(network), omega=0.05)
        with pytest.raises(ValueError):
            is_supermodular(problem)
