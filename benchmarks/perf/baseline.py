"""Baseline load/compare/update logic for the perf regression gate.

The committed baseline (``benchmarks/perf_baseline.json``) stores, per
benchmark, the *normalized* time (best time divided by the machine-speed
calibration, see :mod:`benchmarks.perf.harness`) measured when the baseline
was last updated.  ``python -m benchmarks.perf --check`` re-runs the suite
and fails when any benchmark's normalized time exceeds its baseline by more
than :data:`DEFAULT_TOLERANCE` (25%); ``--update-baseline`` rewrites the
file from the current run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from benchmarks.perf.harness import BenchmarkReport

#: Repo-relative location of the committed baseline.
DEFAULT_BASELINE_PATH = os.path.join("benchmarks", "perf_baseline.json")

#: Allowed normalized-time growth before a benchmark counts as regressed.
DEFAULT_TOLERANCE = 0.25

#: Allowed peak-memory growth before a benchmark counts as regressed.  Peak
#: tracemalloc numbers are far more stable across machines than wall-clock
#: times (no calibration needed), but allocator and version noise still
#: exists, so the ceiling is generous: memory gating is for catching a
#: structure accidentally materialized per item, not 5% drift.
DEFAULT_MEMORY_TOLERANCE = 0.50

#: Appended to a benchmark's name in the regression row of its memory gate.
MEMORY_SUFFIX = " [memory]"


@dataclass
class BaselineEntry:
    """Stored expectation for one benchmark.

    ``peak_mib`` of 0 means the entry predates the memory probe (or the run
    was profiled externally); such entries gate on time only.
    """

    name: str
    normalized: float
    best_seconds: float
    peak_mib: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        data = {"normalized": self.normalized, "best_seconds": self.best_seconds}
        if self.peak_mib > 0:
            data["peak_mib"] = self.peak_mib
        return data


@dataclass
class BaselineComparison:
    """Outcome of comparing a report against a baseline.

    ``regressions`` carries ``(name, baseline, current, ratio)`` tuples for
    benchmarks above tolerance; ``missing`` lists baseline entries the run
    did not produce (also a gate failure: a silently-dropped benchmark must
    not pass), ``new`` lists benchmarks without a stored expectation
    (informational only).
    """

    regressions: List[tuple] = field(default_factory=list)
    improvements: List[tuple] = field(default_factory=list)
    unchanged: List[str] = field(default_factory=list)
    new: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    def summary_lines(self) -> List[str]:
        lines = []
        for name, base, current, ratio in self.regressions:
            unit = "peak MiB" if name.endswith(" [memory]") else "normalized"
            lines.append(
                f"REGRESSION {name}: {unit} {current:.3f} vs baseline {base:.3f} "
                f"({(ratio - 1.0) * 100.0:+.1f}%, tolerance {DEFAULT_TOLERANCE * 100.0:.0f}%)"
            )
        for name in self.missing:
            lines.append(f"MISSING {name}: present in baseline but not in this run")
        for name, base, current, ratio in self.improvements:
            lines.append(
                f"improved {name}: normalized {current:.3f} vs baseline {base:.3f} "
                f"({(ratio - 1.0) * 100.0:+.1f}%)"
            )
        for name in self.new:
            lines.append(f"new {name}: no baseline entry yet (run --update-baseline)")
        if not lines:
            lines.append("all benchmarks within tolerance")
        return lines


def load_baseline(path: str = DEFAULT_BASELINE_PATH) -> Optional[Dict[str, BaselineEntry]]:
    """The committed baseline entries by name, or ``None`` when absent."""
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    entries = {}
    for name, stored in data.get("entries", {}).items():
        entries[name] = BaselineEntry(
            name=name,
            normalized=float(stored["normalized"]),
            best_seconds=float(stored.get("best_seconds", 0.0)),
            peak_mib=float(stored.get("peak_mib", 0.0)),
        )
    return entries


def filter_entries(
    entries: Dict[str, BaselineEntry], scales: List[str]
) -> Dict[str, BaselineEntry]:
    """Restrict baseline entries to the given suite scales.

    Benchmark names are ``<group>/<scale>`` (older baseline files carry a
    third ``/<variant>`` part; their entries still select by scale and then
    report as missing); a partial-suite run (CI runs only ``small``) must
    not fail the gate for the scales it never executed, while a dropped
    benchmark *within* an executed scale still counts as missing.
    """
    wanted = set(scales)
    filtered = {}
    for name, entry in entries.items():
        parts = name.split("/")
        if len(parts) >= 2 and parts[1] in wanted:
            filtered[name] = entry
    return filtered


def compare_report(
    report: BenchmarkReport,
    baseline: Dict[str, BaselineEntry],
) -> BaselineComparison:
    """Compare a report's normalized times against the baseline entries.

    Only benchmarks present in the baseline gate the result; new benchmarks
    are reported informationally, baseline entries missing from the run fail
    the gate.  A benchmark slower than baseline by more than
    :data:`DEFAULT_TOLERANCE` is a regression; one faster by more than 10%
    is listed as an improvement (a hint to re-baseline so future regressions
    are caught from the new level).

    Benchmarks whose baseline entry stores a ``peak_mib`` additionally gate
    on memory: a peak above the baseline by more than
    :data:`DEFAULT_MEMORY_TOLERANCE` is a regression (reported as
    ``<name> [memory]``), so an accidental per-item materialization fails CI
    exactly like a slowdown.
    """
    comparison = BaselineComparison()
    seen = set()
    for record in report.records:
        seen.add(record.name)
        entry = baseline.get(record.name)
        if entry is None:
            comparison.new.append(record.name)
            continue
        if entry.peak_mib > 0 and record.peak_mib > 0:
            memory_ratio = record.peak_mib / entry.peak_mib
            if memory_ratio > 1.0 + DEFAULT_MEMORY_TOLERANCE:
                comparison.regressions.append(
                    (record.name + MEMORY_SUFFIX, entry.peak_mib, record.peak_mib, memory_ratio)
                )
        if entry.normalized <= 0:
            comparison.unchanged.append(record.name)
            continue
        ratio = record.normalized / entry.normalized
        row = (record.name, entry.normalized, record.normalized, ratio)
        if ratio > 1.0 + DEFAULT_TOLERANCE:
            comparison.regressions.append(row)
        elif ratio < 0.90:
            comparison.improvements.append(row)
        else:
            comparison.unchanged.append(record.name)
    comparison.missing = sorted(set(baseline) - seen)
    return comparison


def update_baseline(report: BenchmarkReport, path: str = DEFAULT_BASELINE_PATH) -> None:
    """Rewrite the baseline file from a report.

    Entries for scales the run did not execute are preserved (a partial
    ``--suite small`` update must not drop medium/large coverage), while
    stale entries *within* an executed scale -- a benchmark that was renamed
    or removed -- are dropped, so a rename never wedges the gate in a state
    no CLI invocation can clear.
    """
    existing = load_baseline(path) or {}
    covered_scales = {record.scale for record in report.records}
    fresh_names = {record.name for record in report.records}
    for name in list(existing):
        parts = name.split("/")
        if len(parts) >= 2 and parts[1] in covered_scales and name not in fresh_names:
            del existing[name]
    for record in report.records:
        existing[record.name] = BaselineEntry(
            name=record.name,
            normalized=record.normalized,
            best_seconds=record.best_seconds,
            peak_mib=record.peak_mib,
        )
    payload = {
        "schema": 1,
        "revision": report.revision,
        "calibration_seconds": report.calibration_seconds,
        "environment": dict(report.environment),
        "entries": {name: entry.as_dict() for name, entry in sorted(existing.items())},
    }
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
