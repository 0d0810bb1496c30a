"""Tests for the benchmark harness (timing, report schema)."""

import pytest

from repro.perf.harness import (
    BenchmarkReport,
    BenchmarkSpec,
    calibrate,
    default_report_name,
    git_revision,
    run_spec,
    run_specs,
)


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
    def test_run_spec_counts_and_record_fields(self):
        spec, calls = _spec(inner=3)
        record = run_spec(spec, calibration_seconds=0.5, repeats=4)
        assert calls["setup"] == 1
        assert calls["fn"] == 3 * (4 + 1) + 1  # repeats, the traced warmup, one untraced call
        assert record.name == spec.name
        assert record.repeats == 4
        assert record.inner == 3
        assert record.best_seconds <= record.mean_seconds
        assert record.normalized == pytest.approx(record.best_seconds / 0.5)
        assert record.meta == {"marker": spec.name}

    def test_calibrate_is_positive(self):
        assert calibrate(repeats=1) > 0.0

    def test_run_specs_interleaves_all_repeats(self):
        spec_a, calls_a = _spec(name="a/small")
        spec_b, calls_b = _spec(name="b/small", group="b")
        report = run_specs([spec_a, spec_b], repeats=5, passes=2)
        assert calls_a["setup"] == 1 and calls_b["setup"] == 1
        assert calls_a["fn"] == 5 + 1 + 1  # repeats, traced and untraced warmups
        assert calls_b["fn"] == 5 + 1 + 1
        assert [record.name for record in report.records] == [spec_a.name, spec_b.name]
        assert all(record.repeats == 5 for record in report.records)


class TestReport:
    def _report(self):
        spec_a, _ = _spec(name="grp/large", group="grp", scale="large")
        spec_b, _ = _spec(name="other/large", group="other", scale="large")
        return run_specs([spec_a, spec_b], repeats=2)

    def test_round_trip(self, tmp_path):
        report = self._report()
        path = str(tmp_path / "BENCH_test.json")
        report.write(path)
        loaded = BenchmarkReport.read(path)
        assert [r.name for r in loaded.records] == [r.name for r in report.records]
        assert loaded.calibration_seconds == pytest.approx(report.calibration_seconds)
        assert loaded.revision == report.revision
        assert loaded.record("grp/large").normalized == pytest.approx(
            report.record("grp/large").normalized
        )

    def test_record_lookup_raises_on_unknown(self):
        report = self._report()
        with pytest.raises(KeyError):
            report.record("missing/small")

    def test_report_name_embeds_revision(self):
        assert default_report_name("abc123") == "BENCH_abc123.json"
        assert default_report_name().startswith("BENCH_")
        assert git_revision()  # never empty
