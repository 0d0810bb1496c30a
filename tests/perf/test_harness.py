"""Tests for the benchmark harness (timing, report schema)."""

import json

import pytest

from benchmarks.perf.harness import BenchmarkSpec, calibrate, git_revision, run_specs


def _spec(name="demo/small", group="demo", scale="small", inner=1):
    calls = {"setup": 0, "fn": 0}

    def setup():
        calls["setup"] += 1
        return calls

    def fn(state):
        state["fn"] += 1

    return BenchmarkSpec(
        name=name,
        group=group,
        scale=scale,
        setup=setup,
        fn=fn,
        inner=inner,
        meta={"marker": name},
    ), calls


class TestTiming:
    def test_run_specs_counts_and_record_fields(self):
        spec, calls = _spec(inner=3)
        report = run_specs([spec], repeats=4)
        (record,) = report.records
        assert calls["setup"] == 1
        assert calls["fn"] == 3 * (4 + 1) + 1  # repeats, the traced warmup, one untraced call
        assert record.name == spec.name
        assert record.repeats == 4
        assert record.inner == 3
        assert record.best_seconds <= record.mean_seconds
        # Each pass divides by its own calibration; the report keeps the smallest.
        assert 0.0 < record.normalized <= record.best_seconds / report.calibration_seconds
        assert record.meta == {"marker": spec.name}

    def test_one_pass_normalizes_against_its_calibration(self):
        spec, _ = _spec()
        report = run_specs([spec], repeats=1)
        (record,) = report.records
        assert record.normalized == pytest.approx(
            record.best_seconds / report.calibration_seconds
        )

    def test_calibrate_is_positive(self):
        assert calibrate(repeats=1) > 0.0

    def test_run_specs_interleaves_all_repeats(self):
        spec_a, calls_a = _spec(name="a/small")
        spec_b, calls_b = _spec(name="b/small", group="b")
        report = run_specs([spec_a, spec_b], repeats=5)
        assert calls_a["setup"] == 1 and calls_b["setup"] == 1
        assert calls_a["fn"] == 5 + 1 + 1  # repeats, traced and untraced warmups
        assert calls_b["fn"] == 5 + 1 + 1
        assert [record.name for record in report.records] == [spec_a.name, spec_b.name]
        assert all(record.repeats == 5 for record in report.records)


class TestReport:
    def test_written_report_carries_every_record(self, tmp_path):
        spec_a, _ = _spec(name="grp/large", group="grp", scale="large")
        spec_b, _ = _spec(name="other/large", group="other", scale="large")
        report = run_specs([spec_a, spec_b], repeats=2)
        path = str(tmp_path / "kernels_test.json")
        report.write(path)
        with open(path, encoding="utf-8") as handle:
            written = json.load(handle)
        assert written["schema"] == 1
        assert written["revision"] == report.revision
        assert written["calibration_seconds"] == report.calibration_seconds
        assert [record["name"] for record in written["records"]] == ["grp/large", "other/large"]
        assert written["records"][0]["normalized"] == report.records[0].normalized

    def test_git_revision_is_never_empty(self):
        assert git_revision()
