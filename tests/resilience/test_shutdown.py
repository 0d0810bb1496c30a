"""CLI supervision tests: SIGTERM checkpoints cleanly and resumes, and one
worker gets the timeout and death handling that two get."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.scenarios.jsonl import load_result_rows

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def cli_env(**extra):
    """A subprocess environment that can import the in-tree package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


COMPARE_ARGS = [
    "compare",
    "--scale",
    "small",
    "--nodes",
    "16",
    "--duration",
    "1",
    "--seeds",
    "1,2",
    "--schemes",
    "shortest-path,landmark",
    "--quiet",
]


def run_cli(results_dir, *extra, env=None, workers=2, timeout=120):
    return subprocess.run(
        [
            sys.executable, "-m", "repro", *COMPARE_ARGS, "--workers", str(workers),
            "--results-dir", str(results_dir), *extra,
        ],
        env=env or cli_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def success_lines(results_dir):
    rows = load_result_rows(os.path.join(str(results_dir), "compare-small.jsonl"))
    return sorted(
        json.dumps(row, sort_keys=True)
        for row in rows
        if row.get("status") != "failed"
    )


class TestSigtermShutdown:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigterm_checkpoints_and_resumes_byte_identical(self, tmp_path, workers):
        """SIGTERM mid-sweep: exit 143, clean results file, exact resume.

        One shard hangs (so the sweep is reliably in flight when the signal
        lands), the parent is SIGTERMed and kills it, and the rerun without
        the fault plan must resume to rows byte-identical to an
        uninterrupted run in a fresh directory.
        """
        interrupted_dir = tmp_path / "interrupted"
        # The last shard hangs, so one worker has rows on disk first.
        plan = json.dumps(
            {"directives": [{"action": "hang", "shard": 3, "seconds": 600}]}
        )
        merged = cli_env(REPRO_FAULT_PLAN=plan)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                *COMPARE_ARGS,
                "--workers",
                str(workers),
                "--results-dir",
                str(interrupted_dir),
            ],
            env=merged,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        results = interrupted_dir / "compare-small.jsonl"
        deadline = time.monotonic() + 90
        try:
            # Wait until at least one healthy shard's row is on disk, so the
            # interruption happens mid-sweep with real progress to preserve.
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                if results.exists() and results.read_text().count("\n") >= 1:
                    break
                time.sleep(0.2)
            assert proc.poll() is None, (
                f"sweep finished before the signal: {proc.communicate()}"
            )
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            # A CLI that ignored the signal must not outlive the test.
            proc.kill()
            proc.wait()
        assert proc.returncode == 128 + signal.SIGTERM, (stdout, stderr)
        assert "interrupted" in stderr
        # The results file was left newline-clean: every line parses.
        for line in results.read_text().splitlines():
            json.loads(line)

        # Plain rerun (no fault plan) resumes the missing shards only.
        resumed = run_cli(interrupted_dir)
        assert resumed.returncode == 0, resumed.stderr

        clean_dir = tmp_path / "clean"
        fresh = run_cli(clean_dir)
        assert fresh.returncode == 0, fresh.stderr
        assert success_lines(interrupted_dir) == success_lines(clean_dir)


class TestShardFailureExitCode:
    def test_on_shard_error_fail_exits_one(self, tmp_path):
        plan = json.dumps({"directives": [{"action": "raise", "shard": 0}]})
        result = run_cli(
            tmp_path, "--on-shard-error", "fail", env=cli_env(REPRO_FAULT_PLAN=plan)
        )
        assert result.returncode == 1
        assert "failed (exception" in result.stderr


def assert_one_retried_failure(results_dir, kind):
    """The results hold one ``kind`` failure row, and its shard's retried success row."""
    rows = load_result_rows(os.path.join(str(results_dir), "compare-small.jsonl"))
    (failed,) = [row for row in rows if row.get("status") == "failed"]
    assert failed["failure"] == kind and failed["final"] is False
    assert failed["run_key"] in {row["run_key"] for row in rows if row.get("status") != "failed"}


class TestOneWorkerSupervision:
    """``--workers 1`` runs its shard in a supervised worker, like ``--workers 2``."""

    def test_a_hung_shard_times_out_and_retries(self, tmp_path):
        plan = json.dumps({"directives": [{"action": "hang", "shard": 0, "seconds": 600}]})
        result = run_cli(
            tmp_path, "--shard-timeout", "2", workers=1, env=cli_env(REPRO_FAULT_PLAN=plan)
        )
        assert result.returncode == 0, result.stderr
        assert "retry 1/1" in result.stderr
        assert_one_retried_failure(tmp_path, "timeout")

    def test_a_killed_worker_is_replaced_and_its_shard_retried(self, tmp_path):
        plan = json.dumps({"directives": [{"action": "kill", "shard": 1}]})
        result = run_cli(tmp_path, workers=1, env=cli_env(REPRO_FAULT_PLAN=plan))
        assert result.returncode == 0, result.stderr
        assert_one_retried_failure(tmp_path, "worker-death")
        assert len(success_lines(tmp_path)) == 4
