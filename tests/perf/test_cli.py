"""End-to-end tests of ``python -m benchmarks.perf`` (report, baseline, gate)."""

import glob
import json
import os

import numpy as np

from benchmarks.perf import __main__ as perf_cli
from benchmarks.perf.harness import BenchmarkSpec


def _alloc_suite(scales):
    """One fast benchmark per scale that allocates 0.5 MiB per call."""

    def fn(state):
        state["kept"] = np.ones(64 * 1024, dtype=np.float64)

    return [
        BenchmarkSpec(name=f"alloc/{scale}", group="alloc", scale=scale, setup=dict, fn=fn)
        for scale in scales
    ]


def test_small_suite_writes_a_kernels_report_only_where_asked(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out_dir = str(tmp_path / "reports")
    assert perf_cli.main(["--suite", "small", "--output-dir", out_dir]) == 0
    assert os.listdir(tmp_path) == ["reports"]
    (report,) = glob.glob(os.path.join(out_dir, "kernels_*.json"))
    with open(report, encoding="utf-8") as handle:
        payload = json.load(handle)
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
    assert os.path.basename(report) == f"kernels_{payload['revision']}.json"
    assert payload["calibration_seconds"] > 0
    assert "topology-state/small" in capsys.readouterr().out


def test_update_baseline_then_gate(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(perf_cli, "build_suites", _alloc_suite)
    baseline = str(tmp_path / "baseline.json")
    base_args = ["--suite", "small", "--baseline", baseline]

    # No baseline file is a usage error, not a silent pass.
    assert perf_cli.main(base_args + ["--check"]) == 2
    assert "no baseline at" in capsys.readouterr().err
    assert not os.path.exists(baseline)

    # --check --update-baseline with nothing to gate against bootstraps it.
    assert perf_cli.main(base_args + ["--check", "--update-baseline"]) == 0
    with open(baseline, encoding="utf-8") as handle:
        stored = json.load(handle)
    assert sorted(stored["entries"]) == ["alloc/small"]

    # A generous stored time leaves only the memory gate able to trip.
    stored["entries"]["alloc/small"]["normalized"] *= 100.0
    with open(baseline, "w", encoding="utf-8") as handle:
        json.dump(stored, handle)
    capsys.readouterr()
    assert perf_cli.main(base_args + ["--check"]) == 0
    assert "REGRESSION" not in capsys.readouterr().out

    # A memory-only regression is re-measured like a slow one, then fails,
    # and is never written into the baseline.
    stored["entries"]["alloc/small"]["peak_mib"] = 1e-6
    with open(baseline, "w", encoding="utf-8") as handle:
        json.dump(stored, handle)
    assert perf_cli.main(base_args + ["--check", "--update-baseline"]) == 1
    gate_output = capsys.readouterr().out
    assert "re-measuring 1 regressed benchmark(s)" in gate_output
    assert "REGRESSION alloc/small [memory]" in gate_output
    assert "baseline NOT updated" in gate_output
    with open(baseline, encoding="utf-8") as handle:
        assert json.load(handle)["entries"]["alloc/small"]["peak_mib"] == 1e-6


def test_a_benchmark_dropped_from_the_run_fails_the_gate(tmp_path, monkeypatch, capsys):
    baseline = str(tmp_path / "baseline.json")
    args = ["--suite", "small", "--baseline", baseline]
    renamed = BenchmarkSpec(name="gone/small", group="gone", scale="small", setup=dict, fn=len)
    monkeypatch.setattr(perf_cli, "build_suites", lambda scales: [renamed, *_alloc_suite(scales)])
    assert perf_cli.main(args + ["--update-baseline"]) == 0
    monkeypatch.setattr(perf_cli, "build_suites", _alloc_suite)
    assert perf_cli.main(args + ["--check"]) == 1
    assert "MISSING gone/small" in capsys.readouterr().out


def test_the_gate_has_five_options():
    options = {
        flag
        for action in perf_cli._build_parser()._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }
    assert options == {"--suite", "--output-dir", "--baseline", "--check", "--update-baseline"}
