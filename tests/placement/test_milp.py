"""Tests for the MILP linearization and its HiGHS solve."""

import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.placement.bruteforce import brute_force_placement
from repro.placement.costs import cost_model_from_network
from repro.placement.milp import linearize_placement, solve_placement_milp
from repro.placement.problem import PlacementProblem
from repro.topology.generators import watts_strogatz_pcn


@pytest.fixture
def medium_problem():
    """A placement instance with 5 candidates and 15 clients."""
    network = watts_strogatz_pcn(20, nearest_neighbors=4, candidate_fraction=0.25, seed=21)
    model = cost_model_from_network(network)
    return PlacementProblem(model, omega=0.1)


class TestLinearization:
    def test_variable_counts(self, tiny_placement_problem):
        model = linearize_placement(tiny_placement_problem)
        z = tiny_placement_problem.candidate_count
        m = tiny_placement_problem.client_count
        expected = z + z * m + z * z + z * z * m
        assert model.variable_count == expected

    def test_constraint_counts(self, tiny_placement_problem):
        model = linearize_placement(tiny_placement_problem)
        z = tiny_placement_problem.candidate_count
        m = tiny_placement_problem.client_count
        # y<=x per (m,n), 3 per theta, 3 per phi, plus the at-least-one-hub row.
        expected_ub = m * z + 3 * z * z + 3 * z * z * m + 1
        assert model.a_ub.shape[0] == expected_ub
        assert model.a_eq.shape[0] == m

    def test_objective_contains_all_costs(self, tiny_placement_problem):
        model = linearize_placement(tiny_placement_problem)
        index = model.index
        costs = tiny_placement_problem.costs
        omega = tiny_placement_problem.omega
        assert model.objective[index[("y", "c0", "h0")]] == pytest.approx(costs.zeta["c0"]["h0"])
        assert model.objective[index[("theta", "h0", "h1")]] == pytest.approx(
            omega * costs.epsilon["h0"]["h1"]
        )
        assert model.objective[index[("phi", "h0", "h1", "c0")]] == pytest.approx(
            omega * costs.delta["h0"]["h1"]
        )

    def test_decode_placement(self, tiny_placement_problem):
        model = linearize_placement(tiny_placement_problem)
        solution = np.zeros(model.variable_count)
        solution[model.index[("x", "h1")]] = 1.0
        assert model.decode_placement(solution) == ["h1"]


class TestSolvers:
    def test_takes_only_the_problem(self):
        assert list(inspect.signature(solve_placement_milp).parameters) == ["problem"]

    def test_matches_brute_force(self, tiny_placement_problem):
        exact = brute_force_placement(tiny_placement_problem)
        result = solve_placement_milp(tiny_placement_problem)
        assert result.plan.balance_cost == pytest.approx(exact.balance_cost, abs=1e-6)
        assert result.objective_value == result.plan.balance_cost

    def test_medium_instance_optimal(self, medium_problem):
        exact = brute_force_placement(medium_problem)
        result = solve_placement_milp(medium_problem)
        assert result.plan.balance_cost == pytest.approx(exact.balance_cost, rel=1e-6)

    def test_plans_are_valid(self, medium_problem):
        result = solve_placement_milp(medium_problem)
        medium_problem.validate(result.plan.hubs, result.plan.assignment)

    def test_failed_solve_raises(self, tiny_placement_problem, monkeypatch):
        from scipy import optimize

        failed = optimize.OptimizeResult(success=False, x=None)
        monkeypatch.setattr(optimize, "milp", lambda **kwargs: failed)
        with pytest.raises(RuntimeError, match="failed to solve the placement MILP"):
            solve_placement_milp(tiny_placement_problem)


def test_cli_import_does_not_load_scipy_optimize():
    """Only a MILP solve pays for ``scipy.optimize`` (~0.1 s of CLI start-up)."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    # Building the parser imports every sweep command's stack.
    probe = (
        "import sys, repro.__main__ as cli; cli._build_parser(); "
        "sys.exit('scipy.optimize' in sys.modules or 'repro.placement.milp' not in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src_dir), timeout=120
    )
    assert result.returncode == 0
