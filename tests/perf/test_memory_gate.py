"""Tests for the perf harness memory probe and the memory regression gate.

The harness measures each benchmark's tracemalloc peak during an untimed
warmup that follows one untraced call, and carries it as ``peak_mib``
through records, reports and the committed baseline; ``compare_report``
then gates memory growth exactly like normalized-time growth.  These tests
pin the probe, the plumbing, the gate semantics (including back-compat with
baselines that predate the probe) and the committed xl-small ceiling.
"""

import json

import numpy as np
import pytest

from benchmarks.perf.baseline import (
    DEFAULT_BASELINE_PATH,
    DEFAULT_MEMORY_TOLERANCE,
    BaselineEntry,
    compare_report,
    filter_entries,
    load_baseline,
    update_baseline,
)
from benchmarks.perf.harness import BenchmarkRecord, BenchmarkReport, BenchmarkSpec, run_specs


def _alloc_spec(mib: float, name: str = "alloc/small"):
    group, scale = name.split("/")

    def fn(state):
        state["kept"] = np.ones(int(mib * 1024 * 1024 // 8), dtype=np.float64)

    return BenchmarkSpec(
        name=name, group=group, scale=scale, setup=dict, fn=fn
    )


#: Filled by the first call of :func:`_lazy_spec`'s benchmark, like the
#: tables a lazy import leaves behind.
_ONE_OFF = []


def _lazy_spec():
    """0.25 MiB per call, plus an 8 MiB module-level buffer the first call builds."""

    def fn(state):
        if not _ONE_OFF:
            _ONE_OFF.append(np.ones(8 * 1024 * 1024 // 8, dtype=np.float64))
        state["kept"] = np.ones(256 * 1024 // 8, dtype=np.float64)

    return BenchmarkSpec(name="lazy/small", group="lazy", scale="small", setup=dict, fn=fn)


def _record(name, normalized=1.0, peak_mib=0.0):
    group, scale = name.split("/")
    return BenchmarkRecord(
        name=name,
        group=group,
        scale=scale,
        repeats=3,
        inner=1,
        best_seconds=0.01,
        mean_seconds=0.011,
        normalized=normalized,
        peak_mib=peak_mib,
    )


def _report(records):
    return BenchmarkReport(
        records=records, calibration_seconds=0.002, revision="testrev", environment={}
    )


def _peaks(report):
    return {record.name: record.peak_mib for record in report.records}


class TestMemoryProbe:
    def test_run_specs_measures_allocation_peak(self):
        (record,) = run_specs([_alloc_spec(4.0)], repeats=1).records
        assert 3.5 < record.peak_mib < 16.0

    def test_one_time_costs_of_the_first_call_are_not_charged(self):
        # A lazy import or module cache is paid by the untraced call; the
        # traced one sees only what every call allocates.
        _ONE_OFF.clear()
        (record,) = run_specs([_lazy_spec()], repeats=1).records
        assert _ONE_OFF
        assert 0.2 < record.peak_mib < 2.0

    def test_run_specs_measures_each_benchmark_independently(self):
        report = run_specs(
            [_alloc_spec(4.0, "big/small"), _alloc_spec(0.25, "tiny/small")],
            repeats=1,
        )
        peaks = _peaks(report)
        assert peaks["big/small"] > 3.5
        assert peaks["tiny/small"] < 2.0

    def test_peak_is_written_to_the_report(self, tmp_path):
        report = _report([_record("r/small", peak_mib=12.5)])
        path = str(tmp_path / "kernels_x.json")
        report.write(path)
        with open(path, encoding="utf-8") as handle:
            (written,) = json.load(handle)["records"]
        assert written["peak_mib"] == 12.5


class TestMemoryGate:
    def _baseline(self, peak_mib):
        entry = BaselineEntry(
            name="r/small", normalized=1.0, best_seconds=0.01, peak_mib=peak_mib
        )
        return {entry.name: entry}

    def test_within_tolerance_passes(self):
        report = _report([_record("r/small", peak_mib=10.0 * (1.0 + DEFAULT_MEMORY_TOLERANCE))])
        assert compare_report(report, self._baseline(10.0)).ok

    def test_memory_regression_fails_gate(self):
        report = _report([_record("r/small", peak_mib=16.0)])
        comparison = compare_report(report, self._baseline(10.0))
        assert not comparison.ok
        name, base, current, ratio = comparison.regressions[0]
        assert name == "r/small [memory]"
        assert base == 10.0 and current == 16.0
        assert ratio == pytest.approx(1.6)
        assert any("peak MiB" in line for line in comparison.summary_lines())

    def test_time_and_memory_can_both_regress(self):
        report = _report([_record("r/small", normalized=2.0, peak_mib=16.0)])
        comparison = compare_report(report, self._baseline(10.0))
        names = [row[0] for row in comparison.regressions]
        assert names == ["r/small [memory]", "r/small"]

    def test_zero_baseline_peak_disables_memory_gate(self):
        # Entries that predate the probe gate on time only.
        report = _report([_record("r/small", peak_mib=500.0)])
        assert compare_report(report, self._baseline(0.0)).ok

    def test_zero_record_peak_disables_memory_gate(self):
        # An externally-profiled run (tracemalloc already tracing) reports 0.
        report = _report([_record("r/small", peak_mib=0.0)])
        assert compare_report(report, self._baseline(10.0)).ok


class TestBaselinePersistence:
    def test_update_stores_and_loads_peak(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        update_baseline(_report([_record("r/small", peak_mib=7.25)]), path)
        assert load_baseline(path)["r/small"].peak_mib == 7.25

    def test_zero_peak_omitted_from_file(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        update_baseline(_report([_record("r/small", peak_mib=0.0)]), path)
        stored = json.load(open(path))["entries"]["r/small"]
        assert "peak_mib" not in stored
        assert load_baseline(path)["r/small"].peak_mib == 0.0


class TestCommittedXlCeiling:
    """The repo's committed baseline must pin the xl-small row, including a
    memory ceiling, so CI gates the arrival cursor on both dimensions."""

    def test_xl_small_entry_present_with_memory_ceiling(self):
        entries = load_baseline(DEFAULT_BASELINE_PATH)
        assert entries is not None
        xl = filter_entries(entries, ["xl-small"])
        assert sorted(xl) == ["topology-state/xl-small", "xl-epoch-stepper/xl-small"]
        # The channel-state row rides the CI-checked small suite as well.
        assert "topology-state/small" in filter_entries(entries, ["small"])
        for entry in xl.values():
            assert entry.peak_mib > 0
            assert entry.normalized > 0
