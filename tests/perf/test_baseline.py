"""Tests for baseline load/compare/update and the regression gate logic."""

import json

import pytest

from benchmarks.perf.baseline import (
    BaselineEntry,
    compare_report,
    filter_entries,
    load_baseline,
    update_baseline,
)
from benchmarks.perf.harness import BenchmarkRecord, BenchmarkReport


def _record(name, normalized, best=0.01):
    group, scale = name.split("/")
    return BenchmarkRecord(
        name=name,
        group=group,
        scale=scale,
        repeats=3,
        inner=1,
        best_seconds=best,
        mean_seconds=best * 1.1,
        normalized=normalized,
    )


def _report(records):
    return BenchmarkReport(
        records=records, calibration_seconds=0.002, revision="testrev", environment={}
    )


def _baseline(**normals):
    return {
        name: BaselineEntry(name=name, normalized=value, best_seconds=0.01)
        for name, value in normals.items()
    }


class TestCompare:
    def test_within_tolerance_passes(self):
        report = _report([_record("r/small", 1.1)])
        comparison = compare_report(report, _baseline(**{"r/small": 1.0}))
        assert comparison.ok
        assert comparison.unchanged == ["r/small"]

    def test_regression_detected(self):
        report = _report([_record("r/small", 1.4)])
        comparison = compare_report(report, _baseline(**{"r/small": 1.0}))
        assert not comparison.ok
        (name, base, current, ratio) = comparison.regressions[0]
        assert name == "r/small"
        assert ratio == pytest.approx(1.4)
        assert any("REGRESSION" in line for line in comparison.summary_lines())

    def test_improvement_reported_but_passing(self):
        report = _report([_record("r/small", 0.5)])
        comparison = compare_report(report, _baseline(**{"r/small": 1.0}))
        assert comparison.ok
        assert comparison.improvements[0][0] == "r/small"

    def test_missing_baseline_entry_fails_gate(self):
        report = _report([_record("r/small", 1.0)])
        baseline = _baseline(**{"r/small": 1.0, "gone/small": 2.0})
        comparison = compare_report(report, baseline)
        assert not comparison.ok
        assert comparison.missing == ["gone/small"]

    def test_new_benchmark_is_informational(self):
        report = _report([_record("fresh/small", 1.0)])
        comparison = compare_report(report, _baseline())
        assert comparison.ok
        assert comparison.new == ["fresh/small"]


class TestFilter:
    def test_restricts_to_executed_scales(self):
        baseline = _baseline(
            **{"r/small": 1.0, "r/large": 2.0, "s/medium": 3.0}
        )
        filtered = filter_entries(baseline, ["small", "medium"])
        assert sorted(filtered) == ["r/small", "s/medium"]


    def test_pre_rename_three_part_names_report_missing_and_new(self, tmp_path):
        # A user's baseline written while names still ended in /<variant>:
        # the gate must say what to do (missing + new), and an update of the
        # executed scale must clear it.
        path = str(tmp_path / "baseline.json")
        stored = {"normalized": 1.0, "best_seconds": 0.01}
        with open(path, "w") as handle:
            json.dump({"entries": {"r/small/numpy": stored, "r/large/numpy": stored}}, handle)
        report = _report([_record("r/small", 1.0)])
        comparison = compare_report(report, filter_entries(load_baseline(path), ["small"]))
        assert not comparison.ok
        assert comparison.missing == ["r/small/numpy"]
        assert comparison.new == ["r/small"]
        assert not comparison.regressions
        update_baseline(report, path)
        assert sorted(load_baseline(path)) == ["r/large/numpy", "r/small"]


class TestUpdate:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        report = _report([_record("r/small", 1.25, best=0.004)])
        update_baseline(report, path)
        entries = load_baseline(path)
        assert entries["r/small"].normalized == pytest.approx(1.25)
        assert entries["r/small"].best_seconds == pytest.approx(0.004)
        payload = json.load(open(path))
        assert payload["revision"] == "testrev"

    def test_partial_update_preserves_other_entries(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        update_baseline(_report([_record("r/small", 1.0)]), path)
        update_baseline(_report([_record("r/large", 5.0)]), path)
        entries = load_baseline(path)
        assert sorted(entries) == ["r/large", "r/small"]
        assert entries["r/small"].normalized == pytest.approx(1.0)

    def test_update_drops_renamed_entries_within_covered_scale(self, tmp_path):
        """A renamed benchmark must not wedge the gate: updating with the
        new name drops the stale entry of the same scale, while entries of
        scales the run did not execute are preserved."""
        path = str(tmp_path / "baseline.json")
        update_baseline(
            _report([_record("old-name/small", 1.0), _record("r/large", 5.0)]),
            path,
        )
        update_baseline(_report([_record("new-name/small", 2.0)]), path)
        entries = load_baseline(path)
        assert sorted(entries) == ["new-name/small", "r/large"]

    def test_load_missing_returns_none(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) is None
