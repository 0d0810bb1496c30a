"""Command line of the kernel perf gate: ``python -m benchmarks.perf``.

Runs the suites (all four scales unless ``--suite`` picks one), prints one
line per benchmark and, with ``--output-dir``, writes the report there as
``kernels_<rev>.json``.  ``--check`` gates the run against the committed
baseline; ``--update-baseline`` rewrites it (after the gate, when both are
given).

Exit codes: 0 when the run (and gate) passed, 1 on a regression or a
benchmark missing from the run, 2 on a usage error such as a missing
baseline file.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from benchmarks.perf import baseline as perf_baseline
from benchmarks.perf.harness import run_specs
from benchmarks.perf.suites import SCALES, XL_SCALES, build_suites


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf", description="run the kernel perf suites"
    )
    parser.add_argument(
        "--suite",
        choices=[*SCALES, *XL_SCALES, "all"],
        default="all",
        help=(
            "which scale to run: the classic three, the xl-small "
            "arrival-cursor suite, or all of them (default all)"
        ),
    )
    parser.add_argument(
        "--output-dir",
        default=None,
        help="directory for the kernels_<rev>.json report (default: no report file)",
    )
    parser.add_argument(
        "--baseline",
        default=perf_baseline.DEFAULT_BASELINE_PATH,
        help="baseline file (default benchmarks/perf_baseline.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file from this run's measurements",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the suites and, on request, the gate; return the exit code."""
    args = _build_parser().parse_args(argv)
    entries = perf_baseline.load_baseline(args.baseline) if args.check else None
    if args.check and entries is None and not args.update_baseline:
        message = f"error: no baseline at {args.baseline}; run --update-baseline first"
        print(message, file=sys.stderr)
        return 2
    scales = [*SCALES, *XL_SCALES] if args.suite == "all" else [args.suite]
    specs = build_suites(scales)
    print(f"perf: {len(specs)} benchmark(s) across suite(s) {', '.join(scales)}")
    report = run_specs(specs)
    for record in report.records:
        print(
            f"  {record.name:<28} best {record.best_seconds * 1e3:9.3f} ms  "
            f"normalized {record.normalized:8.3f}"
        )

    ok = True
    if entries is not None:
        # Gate on the scale labels the run produced (the large suite also
        # carries the ``placement-solver/paper`` record).
        entries = perf_baseline.filter_entries(entries, sorted({spec.scale for spec in specs}))
        comparison = perf_baseline.compare_report(report, entries)
        if comparison.regressions:
            # A transient load spike (noisy neighbor, cgroup throttling) can
            # inflate one measurement pass; regressions must survive an
            # independent re-measurement before they fail the gate.
            retry_names = {
                name.removesuffix(perf_baseline.MEMORY_SUFFIX)
                for name, *_ in comparison.regressions
            }
            print(f"re-measuring {len(retry_names)} regressed benchmark(s) to rule out noise")
            retry = run_specs([spec for spec in specs if spec.name in retry_names])
            by_name = {record.name: record for record in retry.records}
            for index, record in enumerate(report.records):
                better = by_name.get(record.name)
                if better is not None and better.normalized < record.normalized:
                    # Adopt the retry's record wholesale so the report stays
                    # a self-consistent measurement, and mark it so analysts
                    # know a first pass was discarded.
                    better.meta["retried"] = True
                    report.records[index] = better
            comparison = perf_baseline.compare_report(report, entries)
        for line in comparison.summary_lines():
            print(line)
        ok = comparison.ok

    if args.output_dir is not None:
        os.makedirs(args.output_dir, exist_ok=True)
        report_path = os.path.join(args.output_dir, f"kernels_{report.revision}.json")
        report.write(report_path)
        print(f"wrote {report_path}")
    if args.update_baseline:
        # Gate first, refresh second: a regression must never be baked into
        # the baseline it would then hide from.  With --check and no baseline
        # yet, this run bootstraps it.
        if ok:
            perf_baseline.update_baseline(report, args.baseline)
            print(f"updated baseline {args.baseline}")
        else:
            print("baseline NOT updated: regressions above")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
