"""End-to-end test of ``python -m repro perf`` (report, baseline, gate)."""

import glob
import json
import os

from repro.__main__ import main as cli_main


def test_perf_cli_emits_report_updates_baseline_and_gates(tmp_path, capsys):
    out_dir = str(tmp_path / "reports")
    baseline = str(tmp_path / "baseline.json")
    base_args = [
        "perf",
        "--suite",
        "small",
        "--repeats",
        "1",
        "--output-dir",
        out_dir,
        "--baseline",
        baseline,
    ]

    assert cli_main(base_args + ["--update-baseline"]) == 0
    reports = glob.glob(os.path.join(out_dir, "BENCH_*.json"))
    assert len(reports) == 1
    payload = json.load(open(reports[0]))
    names = {record["name"] for record in payload["records"]}
    assert names == {
        "routing-step/small",
        "scenario-run/small",
        "path-generation/small",
        "fig8-compare/small",
        "scheme-zoo/small",
        "placement-solver/small",
        "topology-state/small",
    }
    assert "speedups" not in payload
    assert all("variant" not in record for record in payload["records"])
    assert payload["calibration_seconds"] > 0
    assert os.path.exists(baseline)

    # Same machine, huge tolerance: the gate must pass against itself.
    capsys.readouterr()
    assert cli_main(base_args + ["--check", "--tolerance", "5.0"]) == 0
    gate_output = capsys.readouterr().out
    assert "REGRESSION" not in gate_output

    # A memory-only regression is re-measured like a slow one, then fails.
    with open(baseline, encoding="utf-8") as handle:
        stored = json.load(handle)
    stored["entries"]["routing-step/small"]["peak_mib"] = 1e-6
    with open(baseline, "w", encoding="utf-8") as handle:
        json.dump(stored, handle)
    assert cli_main(base_args + ["--check", "--tolerance", "5.0"]) == 1
    gate_output = capsys.readouterr().out
    assert "re-measuring 1 regressed benchmark(s)" in gate_output
    assert "REGRESSION routing-step/small [memory]" in gate_output

    # No baseline file is a usage error, not a silent pass.
    missing = str(tmp_path / "absent.json")
    assert (
        cli_main(
            [
                "perf",
                "--suite",
                "small",
                "--repeats",
                "1",
                "--output-dir",
                out_dir,
                "--baseline",
                missing,
                "--check",
            ]
        )
        == 2
    )


def test_perf_cli_profile_mode_prints_hot_functions(capsys):
    assert cli_main(["perf", "--suite", "small", "--profile", "--profile-top", "5"]) == 0
    output = capsys.readouterr().out
    # One profile block per benchmark, with pstats' cumulative-time table.
    assert "=== routing-step/small" in output
    assert "=== path-generation/small" in output
    assert "cumulative" in output
    assert "ncalls" in output


def test_perf_cli_json_mode_owns_stdout(tmp_path, capsys):
    out_dir = str(tmp_path / "reports")
    assert (
        cli_main(
            [
                "perf",
                "--suite",
                "small",
                "--repeats",
                "1",
                "--output-dir",
                out_dir,
                "--json",
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    # stdout is one parseable JSON document; progress lines moved to stderr.
    payload = json.loads(captured.out)
    assert payload["schema"] == 1
    assert {record["name"] for record in payload["records"]} >= {
        "routing-step/small",
        "scenario-run/small",
    }
    assert "wrote" in captured.err


def test_perf_cli_json_check_embeds_gate_outcome(tmp_path, capsys):
    out_dir = str(tmp_path / "reports")
    baseline = str(tmp_path / "baseline.json")
    base_args = [
        "perf",
        "--suite",
        "small",
        "--repeats",
        "1",
        "--output-dir",
        out_dir,
        "--baseline",
        baseline,
    ]
    assert cli_main(base_args + ["--update-baseline"]) == 0
    capsys.readouterr()
    assert cli_main(base_args + ["--check", "--tolerance", "5.0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["check"]["ok"] is True
    assert payload["check"]["regressions"] == []


def test_perf_cli_json_rejects_profile(capsys):
    assert cli_main(["perf", "--suite", "small", "--json", "--profile"]) == 2
    assert "--json is not available with --profile" in capsys.readouterr().err
