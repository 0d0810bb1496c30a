"""Configuration errors are not shard faults.

One rule in ``JsonlGridRunner._handle_failure``: a ``ValueError`` /
``TypeError`` / ``KeyError`` that a retry reproduces with the same traceback
digest stops the sweep (``ShardFailure(deterministic=True)``, CLI exit 2) and
is never quarantined.  Everything that is not exactly that -- a different
class, a digest that moved, no second attempt to compare with -- keeps the
retry -> quarantine behaviour the chaos suite pins.
"""

import functools
import json
import os

import pytest

from repro.__main__ import main as cli_main
from repro.scenarios.faults import FaultDirective, FaultPlan
from repro.scenarios.jsonl import RESULT_SCHEMA_VERSION, ShardFailure, load_result_rows

KEYS = ["shard-a", "shard-b", "shard-c", "shard-d"]
BAD = KEYS[1]


def toy_execute(task):
    key, value = task
    return {"schema_version": RESULT_SCHEMA_VERSION, "run_key": key, "value": value * value}


def misconfigured(task):
    """Shard ``BAD`` rejects its input the same way on every attempt."""
    if task[0] == BAD:
        raise ValueError("omega must be non-negative")
    return toy_execute(task)


def _attempts_so_far(scratch, task):
    """Count (and record) the attempts of ``task`` across worker processes."""
    marker = os.path.join(scratch, task[0])
    with open(marker, "a", encoding="utf-8") as handle:
        handle.write("x")
    return os.path.getsize(marker)


def fails_once(scratch, task):
    """Shard ``BAD`` raises a ``ValueError`` on its first attempt only."""
    if task[0] == BAD and _attempts_so_far(scratch, task) == 1:
        raise ValueError("torn cache file")
    return toy_execute(task)


def fails_differently(scratch, task):
    """Shard ``BAD`` raises a ``ValueError`` whose text moves per attempt."""
    if task[0] == BAD:
        raise ValueError(f"bad read #{_attempts_so_far(scratch, task)}")
    return toy_execute(task)


@pytest.fixture
def Runner(toy_runner_cls, no_backoff):
    """The toy grid over ``KEYS`` with a chosen executor and no backoff."""

    class Runner(toy_runner_cls):
        def __init__(self, results_dir, execute, **kwargs):
            super().__init__(str(results_dir), KEYS, **kwargs)
            self._execute = execute

        def executor(self):
            return self._execute

    return Runner


def failure_rows(runner):
    return [
        row for row in load_result_rows(runner.results_path) if row.get("status") == "failed"
    ]


@pytest.mark.parametrize("workers", [1, 2])
class TestTheRule:
    def test_same_config_error_twice_stops_the_sweep(self, Runner, tmp_path, workers):
        runner = Runner(tmp_path, misconfigured, workers=workers, max_retries=3)
        with pytest.raises(ShardFailure, match="omega must be non-negative") as raised:
            runner.run()
        assert raised.value.deterministic
        assert raised.value.run_key == BAD and raised.value.kind == "exception"
        # Exactly two attempts although the retry budget was three.
        rows = failure_rows(runner)
        assert [(row["run_key"], row["attempt"], row["final"]) for row in rows] == [
            (BAD, 0, False),
            (BAD, 1, True),
        ]
        assert rows[0]["traceback_digest"] == rows[1]["traceback_digest"]
        assert not os.path.exists(runner.quarantine_path)
        with open(runner.results_path, "rb") as handle:
            lines = handle.read().split(b"\n")
        assert lines[-1] == b""  # newline-clean: nothing torn by the teardown
        assert all(json.loads(line) for line in lines[:-1])

    def test_the_fixed_grid_resumes_without_clearing_anything(self, Runner, tmp_path, workers):
        with pytest.raises(ShardFailure):
            Runner(tmp_path, misconfigured, workers=workers).run()
        report = Runner(tmp_path, toy_execute, workers=workers).run()
        assert {row["run_key"] for row in report.rows} == set(KEYS)
        assert report.executed >= 1  # at least the shard that could not run before
        assert report.quarantined == []

    def test_value_error_once_then_success_recovers(self, Runner, tmp_path, workers):
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        runner = Runner(
            tmp_path / "out", functools.partial(fails_once, str(scratch)), workers=workers
        )
        report = runner.run()
        assert report.executed == len(KEYS)
        assert report.retries == 1
        assert [row["error"] for row in report.failures] == ["ValueError"]
        assert report.quarantined == []

    def test_value_error_with_a_moving_traceback_is_quarantined(self, Runner, tmp_path, workers):
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        runner = Runner(
            tmp_path / "out",
            functools.partial(fails_differently, str(scratch)),
            workers=workers,
        )
        report = runner.run()
        assert report.executed == len(KEYS) - 1
        assert report.quarantined == [BAD]
        digests = [row["traceback_digest"] for row in report.failures]
        assert len(digests) == 2 and digests[0] != digests[1]

    def test_injected_fault_twice_is_quarantined(self, Runner, tmp_path, workers):
        plan = FaultPlan([FaultDirective(action="raise", shard=1, attempts=(0, 1))])
        runner = Runner(tmp_path, toy_execute, workers=workers, fault_plan=plan)
        report = runner.run()
        assert report.quarantined == [BAD]
        assert [row["error"] for row in report.failures] == ["FaultInjected"] * 2
        assert report.failures[0]["traceback_digest"] == report.failures[1]["traceback_digest"]

    def test_no_retry_means_nothing_to_compare(self, Runner, tmp_path, workers):
        runner = Runner(tmp_path, misconfigured, workers=workers, max_retries=0)
        report = runner.run()
        assert report.quarantined == [BAD]
        assert report.executed == len(KEYS) - 1

    def test_skip_policy_is_unchanged(self, Runner, tmp_path, workers):
        runner = Runner(tmp_path, misconfigured, workers=workers, on_error="skip")
        report = runner.run()
        assert report.executed == len(KEYS) - 1
        assert [row["final"] for row in report.failures] == [True]
        assert not os.path.exists(runner.quarantine_path)


#: Per pipeline: the shared arguments, what breaks the command, what fixes it.
_PIPELINES = {
    "run": (
        ["run", "paper-default", "--seeds", "1", "--schemes", "shortest-path"],
        ["--set", "workload.duration=-1"],
        ["--duration", "1"],
        "duration must be positive",
    ),
    "compare": (
        ["compare", "--scale", "small", "--nodes", "20", "--schemes", "shortest-path"],
        ["--duration", "-1"],
        ["--duration", "1"],
        "duration must be positive",
    ),
    "place-compare": (
        ["place-compare", "--scale", "small", "--nodes", "24", "--methods", "greedy"],
        ["--omegas", "-1"],
        ["--omegas", "0.05"],
        "omega must be non-negative",
    ),
    # 48 candidates: ``exact`` refuses instead of returning an unproven plan.
    "place-compare-exact": (
        ["place-compare", "--scale", "large", "--omegas", "0.05"],
        ["--methods", "exact"],
        ["--methods", "greedy"],
        "exact placement search limited to 16 candidates, got 48",
    ),
}


@pytest.mark.parametrize("pipeline", sorted(_PIPELINES))
def test_bad_command_exits_2_and_the_corrected_one_runs(pipeline, tmp_path, capsys):
    """They used to be retried, quarantined and exit 0 with a ``(no rows)`` table."""
    shared, broken, fixed, message = _PIPELINES[pipeline]
    argv = [*shared, "--quiet", "--results-dir", str(tmp_path)]
    assert cli_main([*argv, *broken]) == 2
    captured = capsys.readouterr()
    assert f"failed (exception): {message}" in captured.err
    assert "Traceback" not in captured.err
    assert not list(tmp_path.rglob("*quarantine*"))
    assert cli_main([*argv, *fixed]) == 0
    assert "executed 1 run(s), skipped 0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "paper-default", "--seeds", ","],
        ["run", "paper-default", "--schemes", ","],
        ["place-compare", "--scale", "small", "--omegas", ","],
        ["place-compare", "--scale", "small", "--methods", ","],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_an_empty_list_flag_is_a_usage_error(argv, tmp_path, capsys):
    """They used to run an empty sweep, a scheme-less one or the default one."""
    assert cli_main([*argv, "--quiet", "--results-dir", str(tmp_path)]) == 2
    assert f"{argv[-2]} must name at least one value" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
