"""Graceful-shutdown tests: SIGINT/SIGTERM checkpoint cleanly and resume."""

import json
import os
import signal
import subprocess
import sys
import time

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
    "--workers",
    "2",
    "--quiet",
]


def run_cli(results_dir, env=None, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro", *COMPARE_ARGS, "--results-dir", str(results_dir)],
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
    def test_sigterm_checkpoints_and_resumes_byte_identical(self, tmp_path):
        """SIGTERM mid-sweep: exit 143, clean results file, exact resume.

        One shard hangs (so the sweep is reliably in flight when the signal
        lands), the parent is SIGTERMed, and the rerun without the fault
        plan must resume to rows byte-identical to an uninterrupted run in
        a fresh directory.
        """
        interrupted_dir = tmp_path / "interrupted"
        plan = json.dumps(
            {"directives": [{"action": "hang", "shard": 0, "seconds": 600}]}
        )
        merged = cli_env(REPRO_FAULT_PLAN=plan)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                *COMPARE_ARGS,
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
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                *COMPARE_ARGS,
                "--results-dir",
                str(tmp_path),
                "--on-shard-error",
                "fail",
            ],
            env=cli_env(REPRO_FAULT_PLAN=plan),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 1
        assert "failed (exception" in result.stderr
