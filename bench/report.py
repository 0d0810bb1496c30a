"""Result records: environment stamp, printing, and comparing two records."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence

from bench.metrics import BETTER, BOUNDS, UNITS


def environment(root: str) -> Dict[str, object]:
    """Where the numbers were taken: revision, cores, interpreter, kernel."""
    import numpy

    revision = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=root, capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_rev": revision,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": platform.release(),
        "argv": sys.argv[1:],
    }


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 below two values)."""
    if len(values) < 2:
        return 0.0
    low, middle, high = statistics.quantiles(values, n=4)
    return (high - low) / middle if middle else 0.0


def describe(values: Sequence[float]) -> Dict[str, object]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": list(values),
    }


def print_end_to_end(
    workload: str, values: Dict[str, List[float]], raw: Dict[str, List[float]]
) -> None:
    for name, samples in values.items():
        stats = describe(samples)
        print(
            f"{workload:<13} {name:<14} {stats['median']:>12.4f} {UNITS[name]:<5} "
            f"(min {stats['min']:.4f} max {stats['max']:.4f} n={stats['n']}, "
            f"bound {BOUNDS[name]:.0%})"
        )
    print(
        f"{workload:<13} times are divided by the host slowdown "
        f"x{statistics.median(raw['host_slowdown']):.3f}; "
        f"raw wall_s {statistics.median(raw['raw_wall_s']):.4f}"
    )


def print_ledger(workload: str, ledger: Dict[str, float]) -> None:
    for name, value in ledger.items():
        print(f"{workload:<13} {name:<42} {value:>14.4f} {UNITS[name]}")


def verdict(name: str, before: Sequence[float], after: Sequence[float]) -> str:
    """``ok | regressed | unresolved`` for one metric on one workload.

    *unresolved* means the run-to-run spread of either side is wider than
    the bound, so a difference of that size cannot be told from noise --
    unless every run of ``after`` reads better than every run of ``before``.
    """
    sign = 1.0 if BETTER[name] == "lower" else -1.0
    base = statistics.median(before)
    worse_by = sign * (statistics.median(after) - base) / base if base else 0.0
    every_run_better = max(sign * value for value in after) < min(sign * v for v in before)
    if max(spread(before), spread(after)) > BOUNDS[name] and not every_run_better:
        return "unresolved"
    return "regressed" if worse_by > BOUNDS[name] else "ok"


def compare_sets(before: Dict[str, dict], after: Dict[str, dict]) -> List[Dict[str, object]]:
    """One row per metric x workload present in both sets."""
    rows = []
    for workload, record in before.items():
        for name, stats in record["end_to_end"].items():
            other = after.get(workload, {}).get("end_to_end", {}).get(name)
            if other is None:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "before": stats["median"],
                    "after": other["median"],
                    "bound": BOUNDS[name],
                    "verdict": verdict(name, stats["values"], other["values"]),
                }
            )
    return rows


def print_comparison(rows: List[Dict[str, object]]) -> None:
    print(f"{'workload':<13} {'metric':<14} {'before':>12} {'after':>12} {'bound':>6}  verdict")
    for row in rows:
        print(
            f"{row['workload']:<13} {row['metric']:<14} {row['before']:>12.4f} "
            f"{row['after']:>12.4f} {row['bound']:>6.0%}  {row['verdict']}"
        )


def load_first_set(path: str) -> Dict[str, dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["sets"][0]["workloads"]


def write_record(path: str, record: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")

