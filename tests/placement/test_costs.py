"""Tests for the placement cost model."""

import os
import subprocess
import sys

import pytest

import repro
from repro.placement.costs import (
    PAPER_DELTA_PER_HOP,
    PAPER_EPSILON_PER_HOP,
    PAPER_ZETA_PER_HOP,
    PlacementCostModel,
    cost_model_from_network,
    uniformize_delta,
)


class TestCostModelFromNetwork:
    def test_zeta_follows_hop_counts(self, line_network):
        line_network.set_role("n2", "candidate")
        model = cost_model_from_network(line_network)
        assert model.zeta["n0"]["n2"] == pytest.approx(PAPER_ZETA_PER_HOP * 2)
        assert model.zeta["n4"]["n2"] == pytest.approx(PAPER_ZETA_PER_HOP * 2)
        assert model.zeta["n1"]["n2"] == pytest.approx(PAPER_ZETA_PER_HOP * 1)

    def test_delta_and_epsilon_follow_hop_counts(self, line_network):
        line_network.set_role("n0", "candidate")
        line_network.set_role("n3", "candidate")
        model = cost_model_from_network(line_network)
        assert model.delta["n0"]["n3"] == pytest.approx(PAPER_DELTA_PER_HOP * 3)
        assert model.epsilon["n0"]["n3"] == pytest.approx(PAPER_EPSILON_PER_HOP * 3)
        assert model.delta["n0"]["n0"] == 0.0
        assert model.epsilon["n3"]["n3"] == 0.0

    def test_requires_candidates(self, line_network):
        with pytest.raises(ValueError):
            cost_model_from_network(line_network)

    def test_explicit_clients_and_candidates(self, line_network):
        model = cost_model_from_network(
            line_network, clients=["n0", "n1"], candidates=["n3", "n4"]
        )
        assert model.clients == ["n0", "n1"]
        assert model.candidates == ["n3", "n4"]

    def test_custom_coefficients(self, line_network):
        line_network.set_role("n2", "candidate")
        model = cost_model_from_network(line_network, zeta_per_hop=1.0, delta_per_hop=2.0, epsilon_per_hop=3.0)
        assert model.zeta["n0"]["n2"] == pytest.approx(2.0)

    def test_uniform_delta_option(self, small_ws_network):
        model = cost_model_from_network(small_ws_network, uniform_delta=True)
        assert model.has_uniform_delta()


class TestCostEvaluation:
    def test_management_cost(self, tiny_placement_problem):
        costs = tiny_placement_problem.costs
        assignment = {"c0": "h0", "c1": "h0", "c2": "h2", "c3": "h2"}
        expected = 0.02 + 0.04 + 0.02 + 0.04
        assert costs.management_cost(assignment) == pytest.approx(expected)

    def test_synchronization_cost_single_hub(self, tiny_placement_problem):
        costs = tiny_placement_problem.costs
        assignment = {c: "h0" for c in costs.clients}
        # A single hub only pays its (zero) diagonal terms.
        assert costs.synchronization_cost(["h0"], assignment) == pytest.approx(0.0)

    def test_synchronization_cost_two_hubs(self, tiny_placement_problem):
        costs = tiny_placement_problem.costs
        assignment = {"c0": "h0", "c1": "h0", "c2": "h1", "c3": "h1"}
        # Pairs (h0,h1) and (h1,h0): delta terms 0.01*2 clients each + epsilon 0.05 each.
        expected = (0.01 * 2 + 0.05) + (0.01 * 2 + 0.05)
        assert costs.synchronization_cost(["h0", "h1"], assignment) == pytest.approx(expected)

    def test_balance_cost_combines_both(self, tiny_placement_problem):
        costs = tiny_placement_problem.costs
        assignment = {"c0": "h0", "c1": "h0", "c2": "h1", "c3": "h1"}
        management = costs.management_cost(assignment)
        sync = costs.synchronization_cost(["h0", "h1"], assignment)
        assert costs.balance_cost(["h0", "h1"], assignment, omega=0.5) == pytest.approx(
            management + 0.5 * sync
        )

    def test_synchronization_cost_does_not_depend_on_the_hash_seed(self):
        # The bundled snapshot's string node ids iterate a plan's frozenset
        # of hubs in hash order; the cost must be summed in candidate order.
        code = (
            "from repro.data.lightning import load_snapshot\n"
            "from repro.placement.solver import solve_placement\n"
            "plan = solve_placement(load_snapshot(), omega=0.02, deterministic_greedy=True)\n"
            "print(len(plan.hubs), plan.synchronization_cost.hex())\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for hash_seed in ("0", "1")
        ]
        assert int(outputs[0].split()[0]) > 1  # several hubs, so the order matters
        assert outputs[0] == outputs[1]

    def test_oracle_assignment_key_is_lemma1_quantity(self, tiny_placement_problem):
        from repro.reference.placement import assignment_key

        value = assignment_key(tiny_placement_problem, ["h0", "h1"], "h0")
        value += tiny_placement_problem.costs.zeta["c0"]["h0"]
        assert value == pytest.approx(0.5 * (0.0 + 0.01) + 0.02)

    def test_has_uniform_delta(self, tiny_placement_problem):
        assert not tiny_placement_problem.costs.has_uniform_delta()
        uniform = uniformize_delta(tiny_placement_problem.costs)
        assert uniform.has_uniform_delta()

    def test_uniformize_preserves_other_matrices(self, tiny_placement_problem):
        uniform = uniformize_delta(tiny_placement_problem.costs)
        assert uniform.zeta == tiny_placement_problem.costs.zeta
        assert uniform.epsilon == tiny_placement_problem.costs.epsilon


class TestValidation:
    def test_missing_zeta_entry_rejected(self):
        with pytest.raises(ValueError):
            PlacementCostModel(
                clients=["c0"],
                candidates=["h0", "h1"],
                zeta={"c0": {"h0": 1.0}},
                delta={"h0": {"h0": 0.0, "h1": 0.0}, "h1": {"h0": 0.0, "h1": 0.0}},
                epsilon={"h0": {"h0": 0.0, "h1": 0.0}, "h1": {"h0": 0.0, "h1": 0.0}},
            )

    def test_missing_delta_entry_rejected(self):
        with pytest.raises(ValueError):
            PlacementCostModel(
                clients=[],
                candidates=["h0", "h1"],
                zeta={},
                delta={"h0": {"h0": 0.0}},
                epsilon={"h0": {"h0": 0.0, "h1": 0.0}, "h1": {"h0": 0.0, "h1": 0.0}},
            )

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            PlacementCostModel(clients=[], candidates=[], zeta={}, delta={}, epsilon={})
