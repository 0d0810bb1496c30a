"""Output checks run on the results directory of every pass.

Results are discovered by glob (``*.jsonl`` minus ``*.quarantine.jsonl``),
never by the backend-stamped file names, and shards are identified by what
they computed -- ``(seed, scheme)`` or ``(seed, method, omega)`` -- rather
than by the run-key format, so neither can drift under a refactor without
the check noticing a missing shard.
"""

from __future__ import annotations

import glob
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Set

QUARANTINE_SUFFIX = ".quarantine.jsonl"


@dataclass
class CheckReport:
    """Rows of one results directory and everything wrong with them."""

    expected: int
    rows: List[Dict[str, object]] = field(default_factory=list)
    failure_rows: List[Dict[str, object]] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    bad_shards: Set[Hashable] = field(default_factory=set)

    @property
    def failed(self) -> int:
        """Shards missing, failed, quarantined or failing a check."""
        return min(len(self.bad_shards), self.expected)

    @property
    def failed_share(self) -> float:
        return self.failed / self.expected

    def flag(self, shard: Hashable, message: str) -> None:
        self.bad_shards.add(shard)
        self.violations.append(message)


def _read_jsonl(path: str) -> List[Dict[str, object]]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def compare_identity(row: Dict[str, object]) -> Hashable:
    """``(seed, scheme)`` of a ``compare`` result row."""
    return (row.get("seed"), ",".join(row.get("metrics", {})))


def place_identity(row: Dict[str, object]) -> Hashable:
    """``(seed, method, omega)`` of a ``place-compare`` result row."""
    return (row.get("seed"), row.get("method"), row.get("omega"))


def _check_compare_row(report: CheckReport, shard: Hashable, row: Dict[str, object]) -> None:
    for scheme, metrics in row["metrics"].items():
        generated = metrics.get("generated_count")
        settled = metrics.get("completed_count", 0) + metrics.get("failed_count", 0)
        if generated != settled:
            report.flag(
                shard, f"{shard}: {scheme} generated {generated} != completed+failed {settled}"
            )
        for name in ("success_ratio", "normalized_throughput"):
            value = metrics.get(name)
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                report.flag(shard, f"{shard}: {scheme} {name}={value!r} outside [0, 1]")


def _check_place_row(report: CheckReport, shard: Hashable, row: Dict[str, object]) -> None:
    if not isinstance(row.get("hub_count"), int) or row["hub_count"] < 1:
        report.flag(shard, f"{shard}: hub_count={row.get('hub_count')!r} < 1")
    for name in ("management_cost", "synchronization_cost", "balance_cost"):
        value = row.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            report.flag(shard, f"{shard}: {name}={value!r} is not finite")


def check_results(
    results_dir: str, command: str, expected: Iterable[Hashable]
) -> CheckReport:
    """Check one pass's results directory against the shards it must hold."""
    expected = list(expected)
    report = CheckReport(expected=len(expected))
    identity = compare_identity if command == "compare" else place_identity
    check_row = _check_compare_row if command == "compare" else _check_place_row

    for path in sorted(glob.glob(os.path.join(results_dir, "*.jsonl"))):
        if path.endswith(QUARANTINE_SUFFIX):
            for entry in _read_jsonl(path):
                report.flag(
                    entry.get("run_key"),
                    f"quarantined: {entry.get('run_key')} ({entry.get('error')})",
                )
            continue
        for row in _read_jsonl(path):
            if row.get("status") == "failed":
                report.failure_rows.append(row)
            else:
                report.rows.append(row)

    for row in report.failure_rows:
        report.flag(
            row.get("run_key"),
            f"failure row: {row.get('run_key')} ({row.get('failure')} {row.get('error')})",
        )
    for key, count in Counter(row.get("run_key") for row in report.rows).items():
        if count > 1:
            report.flag(key, f"run key written {count} times: {key}")

    seen = Counter(identity(row) for row in report.rows)
    for shard in expected:
        if seen[shard] != 1:
            report.flag(shard, f"{shard}: expected exactly one row, found {seen[shard]}")
    for shard in set(seen) - set(expected):
        report.flag(shard, f"{shard}: unexpected row")
    for row in report.rows:
        check_row(report, identity(row), row)
    return report


def expected_compare(seeds: Iterable[int], schemes: Iterable[str]) -> List[Hashable]:
    return [(seed, scheme) for seed in seeds for scheme in schemes]


def expected_place(
    seeds: Iterable[int], methods: Iterable[str], omegas: Iterable[float]
) -> List[Hashable]:
    return [
        (seed, method, float(omega))
        for seed in seeds
        for method in methods
        for omega in omegas
    ]
