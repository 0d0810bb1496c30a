"""Tests for the sharded figure-9 placement comparison pipeline and its CLI."""

import os

import pytest

from repro.__main__ import main as cli_main
from repro.analysis.tables import fig9_table
from repro.placement import compare
from repro.placement.compare import (
    DEFAULT_OMEGAS,
    PLACEMENT_SCALES,
    PlacementCompareRunner,
    build_place_network,
    build_place_spec,
)
from repro.placement.solver import build_problem
from repro.reference import placement as reference
from repro.scenarios.spec import derive_seed


class TestPlacementCompareSpec:
    def test_grid_is_methods_by_omegas_by_seeds(self):
        spec = build_place_spec("small", omegas=[0.0, 0.1], seeds=[1, 2])
        runs = spec.expand_runs()
        assert len(runs) == 2 * 2 * 2  # methods x omegas x seeds
        assert {run[1]["method"] for run in runs} == {"exact", "greedy"}
        assert {run[1]["omega"] for run in runs} == {0.0, 0.1}

    def test_scale_defaults(self):
        assert PLACEMENT_SCALES["paper"]["nodes"] == 3000
        spec = build_place_spec("paper")
        assert spec.omegas == list(DEFAULT_OMEGAS)
        assert "exact" not in spec.methods  # intractable at paper scale

    def test_unknown_scale_and_method_rejected(self):
        with pytest.raises(KeyError):
            build_place_spec("galactic")
        with pytest.raises(ValueError):
            build_place_spec("small", methods=["simulated-annealing"])

    def test_fingerprint_tracks_configuration_not_grid(self):
        base = build_place_spec("small")
        relabeled = build_place_spec("small", omegas=[0.3], seeds=[9])
        resized = build_place_spec("small", nodes=48)
        assert base.fingerprint() == relabeled.fingerprint()
        assert base.fingerprint() != resized.fingerprint()


class TestPlacementCompareRuns:
    def _tiny_spec(self, **kwargs):
        kwargs.setdefault("omegas", [0.02, 0.2])
        kwargs.setdefault("seeds", [1])
        kwargs.setdefault("nodes", 24)
        return build_place_spec("small", **kwargs)

    def test_rows_carry_plan_shape(self, tmp_path):
        spec = self._tiny_spec()
        runner = PlacementCompareRunner(spec, results_dir=str(tmp_path), workers=1)
        report = runner.run()
        assert report.executed == 4  # 2 methods x 2 omegas
        for row in report.rows:
            assert row["hub_count"] >= 1
            assert row["balance_cost"] > 0
            assert row["method"] in spec.methods
        # The exact optimum is never beaten by the model.
        by_key = {(row["method"], row["omega"]): row for row in report.rows}
        for omega in spec.omegas:
            assert (
                by_key[("greedy", omega)]["balance_cost"]
                >= by_key[("exact", omega)]["balance_cost"] - 1e-9
            )

    def test_resume_skips_completed_shards(self, tmp_path):
        spec = self._tiny_spec()
        runner = PlacementCompareRunner(spec, results_dir=str(tmp_path), workers=1)
        assert runner.run().executed == 4
        again = runner.run()
        assert again.executed == 0
        assert again.skipped == 4

    def test_rows_match_the_reference_solvers(self, tmp_path):
        """Every row of the pipeline equals the scalar oracle's plan for the
        same (topology, omega, solver seed)."""
        spec = self._tiny_spec()
        runner = PlacementCompareRunner(spec, results_dir=str(tmp_path), workers=1)
        rows = runner.run().rows
        assert len(rows) == 4
        for row in rows:
            network = build_place_network(spec.to_dict(), row["seed"])
            problem = build_problem(
                network, omega=row["omega"], hops=reference.hop_probe(network)
            )
            if row["method"] == "exact":
                plan = reference.brute_force_placement(problem)
            else:
                plan = reference.double_greedy_placement(
                    problem, seed=derive_seed(row["seed"], "place-solver")
                )
            assert (row["hub_count"], row["balance_cost"]) == (
                plan.hub_count,
                round(plan.balance_cost, 6),
            )

    def test_fig9_table_pivots_by_omega(self, tmp_path):
        spec = self._tiny_spec()
        runner = PlacementCompareRunner(spec, results_dir=str(tmp_path), workers=1)
        table = fig9_table(runner.run().rows, spec.methods)
        assert "exact_cost" in table
        assert "greedy_cost" in table
        assert "greedy_gap%" in table
        assert "0.0200" in table and "0.2000" in table


class TestPlaceCompareCli:
    def test_cli_runs_and_writes_table(self, tmp_path, capsys):
        results_dir = str(tmp_path / "place")
        code = cli_main(
            [
                "place-compare",
                "--scale",
                "small",
                "--nodes",
                "24",
                "--omegas",
                "0.02,0.2",
                "--workers",
                "2",
                "--results-dir",
                results_dir,
                "--quiet",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Figure 9 placement comparison" in output
        assert os.path.exists(os.path.join(results_dir, "fig9-small.txt"))
        assert os.path.exists(os.path.join(results_dir, "place-small.jsonl"))

    def test_cli_rejects_unknown_scale(self, capsys):
        assert cli_main(["place-compare", "--scale", "galactic"]) == 2
        assert "unknown placement scale" in capsys.readouterr().err

    def test_cli_has_no_backend_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["place-compare", "--backend", "numpy", "--scale", "small"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err


def _plan_fields(row):
    """A row without its wall-clock diagnostic."""
    return {key: value for key, value in row.items() if key != "solve_seconds"}


class TestSeedProblemMemo:
    """Siblings of one seed share the topology, the probe and the matrices."""

    @pytest.fixture
    def network_builds(self, monkeypatch):
        monkeypatch.setattr(compare, "_SEED_PROBLEM", {})
        builds = []
        build = compare.build_place_network

        def spy(spec_dict, seed):
            builds.append(seed)
            return build(spec_dict, seed)

        monkeypatch.setattr(compare, "build_place_network", spy)
        return builds

    def _tasks(self, seeds):
        spec = build_place_spec(
            "small", methods=["greedy"], omegas=[0.02, 0.2], seeds=seeds, nodes=24
        )
        return [(spec.to_dict(), seed, overrides) for seed, overrides in spec.expand_runs()]

    def test_two_omegas_of_a_seed_build_the_network_once(self, network_builds):
        rows = [compare.execute_place_run(task) for task in self._tasks([1])]
        assert network_builds == [1]
        assert rows[0]["omega"] != rows[1]["omega"]
        assert rows[0]["balance_cost"] != rows[1]["balance_cost"]  # omega applied per shard

    def test_a_different_seed_evicts(self, network_builds):
        first, _, other, _ = self._tasks([1, 2])
        for task in (first, other, first):
            compare.execute_place_run(task)
        assert network_builds == [1, 2, 1]
        assert len(compare._SEED_PROBLEM) == 1

    def test_rows_equal_a_fresh_process_per_shard(self, network_builds):
        shared = [compare.execute_place_run(task) for task in self._tasks([1, 2])]
        fresh = []
        for task in self._tasks([1, 2]):
            compare._SEED_PROBLEM.clear()  # what a new worker process starts with
            fresh.append(compare.execute_place_run(task))
        assert network_builds == [1, 2] + [1, 1, 2, 2]
        assert [_plan_fields(row) for row in shared] == [_plan_fields(row) for row in fresh]

