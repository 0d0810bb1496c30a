"""Tests for the MILP linearization and its HiGHS solve."""

import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.placement.costs import PlacementCostModel, cost_model_from_network
from repro.placement.milp import linearize_placement, solve_placement_milp
from repro.placement.problem import PlacementProblem
from repro.placement.solver import solve_placement
from repro.reference.placement import brute_force_placement
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
        assert model.variable_count == z + z * m + 2 * z * z
        # Branch-and-cut decides x and y only; theta and s follow from them.
        assert int(model.integrality.sum()) == z + z * m
        assert model.upper.tolist() == [1.0] * (z + z * m + z * z) + [float(m)] * (z * z)

    def test_constraint_counts(self, tiny_placement_problem):
        model = linearize_placement(tiny_placement_problem)
        z = tiny_placement_problem.candidate_count
        m = tiny_placement_problem.client_count
        # y<=x per (m,n), one lower-bound row per theta and per s, plus the
        # at-least-one-hub row.
        assert model.a_ub.shape[0] == m * z + 2 * z * z + 1
        assert model.a_eq.shape[0] == m

    def test_objective_contains_all_costs(self, tiny_placement_problem):
        model = linearize_placement(tiny_placement_problem)
        costs = tiny_placement_problem.costs
        omega = tiny_placement_problem.omega
        assert model.objective[model.column("x", "h2")] == 0.0
        assert model.objective[model.column("y", "c3", "h2")] == costs.zeta["c3"]["h2"]
        assert model.objective[model.column("theta", "h0", "h2")] == (
            omega * costs.epsilon["h0"]["h2"]
        )
        assert model.objective[model.column("s", "h2", "h1")] == omega * costs.delta["h2"]["h1"]

    def test_load_row_couples_a_hub_s_clients_to_its_peer(self, tiny_placement_problem):
        """``sum_m y_mn + M x_l - s_nl <= M`` for (n, l) = (h0, h2)."""
        model = linearize_placement(tiny_placement_problem)
        z, m = 3, 4
        row = model.a_ub[m * z + z * z + 0 * z + 2].toarray().ravel()
        expected = np.zeros(model.variable_count)
        for client in tiny_placement_problem.clients:
            expected[model.column("y", client, "h0")] = 1.0
        expected[model.column("x", "h2")] = float(m)
        expected[model.column("s", "h0", "h2")] = -1.0
        assert row.tolist() == expected.tolist()
        assert model.b_ub[m * z + z * z + 2] == float(m)

    @pytest.mark.parametrize("matrix", ["delta", "epsilon"])
    def test_negative_synchronization_cost_rejected(self, matrix):
        """Dropping the products' upper-bound rows needs non-negative costs."""
        costs = {"delta": np.zeros((2, 2)), "epsilon": np.zeros((2, 2))}
        costs[matrix] = np.array([[0.0, -0.01], [0.01, 0.0]])
        model = PlacementCostModel(["c0"], ["h0", "h1"], np.ones((1, 2)), **costs)
        with pytest.raises(ValueError, match="non-negative delta and epsilon"):
            linearize_placement(PlacementProblem(model))

    def test_decode_placement(self, tiny_placement_problem):
        """The placement is the candidates a client attaches to; a placed
        candidate serving no client is left out."""
        model = linearize_placement(tiny_placement_problem)
        solution = np.zeros(model.variable_count)
        solution[model.column("x", "h1")] = 1.0
        solution[model.column("x", "h2")] = 1.0
        for client in tiny_placement_problem.clients:
            solution[model.column("y", client, "h1")] = 1.0
        assert model.decode_placement(solution) == ["h1"]


class TestSolvers:
    def test_takes_only_the_problem(self):
        assert list(inspect.signature(solve_placement_milp).parameters) == ["problem"]

    def test_matches_brute_force(self, tiny_placement_problem):
        exact = brute_force_placement(tiny_placement_problem)
        plan = solve_placement_milp(tiny_placement_problem)
        assert plan.balance_cost == pytest.approx(exact.balance_cost, abs=1e-6)
        assert plan.method == "milp-highs"

    def test_no_hub_without_a_client(self):
        """At ``omega = 1e-9`` opening ``h0`` costs less than HiGHS resolves;
        the plan still names the unique optimum, which leaves it out."""
        model = PlacementCostModel(
            ["c0", "c1"],
            ["h0", "h1", "h2"],
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]),
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        )
        problem = PlacementProblem(model, omega=1e-9)
        plan = solve_placement_milp(problem)
        exact = brute_force_placement(problem)
        assert (plan.hubs, plan.assignment) == (exact.hubs, exact.assignment)
        assert plan.balance_cost == exact.balance_cost == 0.0

    def test_medium_instance_optimal(self, medium_problem):
        """The oracle, the branch-and-bound and HiGHS agree (the 9-candidate
        ``place-compare --scale small`` instance is CI's scenario-smoke step)."""
        exact = brute_force_placement(medium_problem)
        plan = solve_placement_milp(medium_problem)
        assert plan.balance_cost == pytest.approx(exact.balance_cost, rel=1e-6)
        bnb = solve_placement(medium_problem, method="exact")
        assert plan.balance_cost == pytest.approx(bnb.balance_cost, rel=1e-6)

    def test_plans_are_valid(self, medium_problem):
        plan = solve_placement_milp(medium_problem)
        medium_problem.validate(plan.hubs, plan.assignment)

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
