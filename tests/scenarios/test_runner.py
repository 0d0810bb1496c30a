"""Tests for the parallel scenario runner: determinism, resume, CLI."""

import json

import pytest

from repro.__main__ import main as cli_main
from repro.analysis.tables import scenario_summary_rows
from repro.scenarios import registry
from repro.scenarios.runner import (
    ScenarioRunner,
    clear_seed_runner,
    execute_run,
    load_result_rows,
    run_key,
    spec_fingerprint,
)
from repro.scenarios.spec import ScenarioSpec, SchemeSpec, TopologySpec, WorkloadSpec


def tiny_spec(name: str = "tiny-runner-test", **kwargs) -> ScenarioSpec:
    """A scenario small enough that a full grid runs in well under a second."""
    defaults = dict(
        name=name,
        topology=TopologySpec(
            params={"node_count": 16, "nearest_neighbors": 4, "candidate_fraction": 0.2}
        ),
        workload=WorkloadSpec(duration=1.0, arrival_rate=8.0),
        schemes=[SchemeSpec(name="shortest-path"), SchemeSpec(name="landmark")],
        seeds=[1, 2],
        drain_time=0.5,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def rows_by_key(rows):
    return {row["run_key"]: row for row in rows}


class TestExecuteRun:
    def test_row_shape(self):
        spec = tiny_spec()
        row = execute_run((spec.to_dict(), 1, {}))
        assert row["run_key"] == run_key(spec.name, 1, {}, spec_fingerprint(spec.to_dict()))
        assert row["scenario"] == spec.name
        assert set(row["metrics"]) == {"shortest-path", "landmark"}
        assert row["workload_count"] > 0
        json.dumps(row)  # JSONL-safe

    def test_deterministic(self):
        spec_dict = tiny_spec().to_dict()
        first = execute_run((spec_dict, 3, {}))
        clear_seed_runner()  # two builds, not one build replayed
        assert execute_run((spec_dict, 3, {})) == first

    def test_overrides_applied(self):
        spec_dict = tiny_spec().to_dict()
        base = execute_run((spec_dict, 1, {}))
        scaled = execute_run((spec_dict, 1, {"workload.value_scale": 3.0}))
        assert scaled["workload_value"] == pytest.approx(3.0 * base["workload_value"], rel=1e-3)


class TestParallelDeterminism:
    def test_workers_1_vs_4_identical_rows(self, tmp_path):
        spec = tiny_spec(seeds=[1, 2, 3, 4])
        serial = ScenarioRunner(spec, results_dir=str(tmp_path / "serial"), workers=1).run()
        parallel = ScenarioRunner(spec, results_dir=str(tmp_path / "parallel"), workers=4).run()
        assert serial.executed == parallel.executed == 4
        assert rows_by_key(serial.rows) == rows_by_key(parallel.rows)


class TestResume:
    def test_second_run_does_zero_work(self, tmp_path):
        spec = tiny_spec()
        runner = ScenarioRunner(spec, results_dir=str(tmp_path))
        first = runner.run()
        assert (first.executed, first.skipped) == (2, 0)
        second = runner.run()
        assert (second.executed, second.skipped) == (0, 2)
        assert rows_by_key(second.rows) == rows_by_key(first.rows)
        assert len(load_result_rows(runner.results_path)) == 2

    def test_only_missing_runs_execute(self, tmp_path):
        spec = tiny_spec()
        runner = ScenarioRunner(spec, results_dir=str(tmp_path))
        runner.run()
        spec_more = tiny_spec(seeds=[1, 2, 3])
        report = ScenarioRunner(spec_more, results_dir=str(tmp_path)).run()
        assert (report.executed, report.skipped) == (1, 2)
        assert {row["seed"] for row in report.rows} == {1, 2, 3}

    def test_corrupt_trailing_line_reruns_that_run(self, tmp_path):
        spec = tiny_spec()
        runner = ScenarioRunner(spec, results_dir=str(tmp_path))
        runner.run()
        with open(runner.results_path, "r+", encoding="utf-8") as handle:
            content = handle.read()
            handle.seek(0)
            handle.truncate()
            handle.write(content[: len(content) // 2])  # simulate a mid-write crash
        report = runner.run()
        assert report.executed >= 1
        assert len({row["run_key"] for row in report.rows}) == 2

    def test_changed_parameters_rerun_instead_of_skipping(self, tmp_path):
        """A --nodes/--duration style override must not be satisfied by stale rows."""
        spec = tiny_spec(seeds=[1])
        runner = ScenarioRunner(spec, results_dir=str(tmp_path))
        first = runner.run()
        assert first.executed == 1

        changed = spec.with_overrides({"workload.duration": 0.5})
        changed_runner = ScenarioRunner(changed, results_dir=str(tmp_path))
        second = changed_runner.run()
        assert (second.executed, second.skipped) == (1, 0)
        # The report must carry only the changed-parameter rows, not mix in
        # the stale ones that still live in the same file.
        assert len(second.rows) == 1
        assert second.rows[0]["workload_count"] < first.rows[0]["workload_count"]
        # The original configuration still resumes cleanly.
        assert ScenarioRunner(spec, results_dir=str(tmp_path)).run().executed == 0

    def test_seeds_and_description_do_not_change_fingerprint(self):
        base = tiny_spec().to_dict()
        relabeled = tiny_spec(seeds=[9, 10], description="renamed").to_dict()
        assert spec_fingerprint(base) == spec_fingerprint(relabeled)
        changed = tiny_spec(workload=WorkloadSpec(duration=0.5)).to_dict()
        assert spec_fingerprint(base) != spec_fingerprint(changed)

    def test_grid_runs_keyed_independently(self, tmp_path):
        spec = tiny_spec(seeds=[1], grid={"workload.value_scale": [1.0, 2.0]})
        runner = ScenarioRunner(spec, results_dir=str(tmp_path))
        first = runner.run()
        assert first.executed == 2
        keys = {row["run_key"] for row in first.rows}
        assert len(keys) == 2
        assert runner.run().executed == 0


class TestAggregation:
    def test_summary_rows(self, tmp_path):
        spec = tiny_spec()
        report = ScenarioRunner(spec, results_dir=str(tmp_path)).run()
        summary = scenario_summary_rows(report.rows)
        assert {row["scheme"] for row in summary} == {"shortest-path", "landmark"}
        for row in summary:
            assert row["runs"] == 2
            assert 0.0 <= row["success_ratio"] <= 1.0


@pytest.fixture
def cli_test_scenario(monkeypatch):
    """``cli-test-scenario``, registered for one test only."""
    monkeypatch.setitem(
        registry._REGISTRY,
        "cli-test-scenario",
        lambda: tiny_spec(name="cli-test-scenario", description="tiny grid for CLI tests"),
    )


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "paper-default" in out
        assert "channel-jamming" in out

    def test_show_round_trips(self, capsys):
        assert cli_main(["show", "hub-failure"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert ScenarioSpec.from_dict(data).name == "hub-failure"

    def test_unknown_scenario_exit_code(self, capsys):
        assert cli_main(["show", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    @pytest.mark.usefixtures("cli_test_scenario")
    def test_run_and_resume(self, tmp_path, capsys):
        args = [
            "run", "cli-test-scenario",
            "--workers", "2",
            "--results-dir", str(tmp_path),
            "--quiet",
        ]
        assert cli_main(args) == 0
        out = capsys.readouterr().out
        assert "executed 2 run(s)" in out
        assert "shortest-path" in out

        assert cli_main(args) == 0
        assert "executed 0 run(s), skipped 2" in capsys.readouterr().out

    @pytest.mark.usefixtures("cli_test_scenario")
    def test_run_cli_overrides(self, tmp_path, capsys):
        assert (
            cli_main(
                [
                    "run", "cli-test-scenario",
                    "--results-dir", str(tmp_path),
                    "--seeds", "5",
                    "--schemes", "shortest-path",
                    "--duration", "0.5",
                    "--set", "workload.arrival_rate=5.0",
                    "--quiet",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "executed 1 run(s)" in out
        rows = load_result_rows(str(tmp_path / "cli-test-scenario.jsonl"))
        assert len(rows) == 1
        assert set(rows[0]["metrics"]) == {"shortest-path"}
