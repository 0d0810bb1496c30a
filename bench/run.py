#!/usr/bin/env python3
"""The repository benchmark: four CLI workloads, measured from outside.

::

    python bench/run.py                      # every workload: 3 untraced passes + traced pass
    python bench/run.py --workload W --seed N --seconds S --trace 0|1
    python bench/run.py --smoke              # tiny sizes, asserts every metric is reported
    python bench/run.py --repeat-sets 2      # two sets of the same code, compared
    python bench/run.py --compare A.json B.json

End-to-end metrics come from the real CLI in fresh subprocesses with tracing
off (``bench/e2e.py``); per-layer metrics from one separate traced in-process
pass (``bench/layers.py``).  Every metric is printed by name with its unit,
outputs are checked on every pass (``bench/checks.py``), and a failed check
makes the command exit non-zero.  With ``--workload`` the last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench import e2e, layers, report  # noqa: E402
from bench.metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from bench.spans import Tracer  # noqa: E402
from bench.workloads import WORKLOADS, Workload, make_inputs, shard_count  # noqa: E402

#: Untraced passes / set-up re-runs / import timings per workload in report mode.
REPORT_PASSES = 3
REPORT_SETUP_REPEATS = 5
#: Set-up re-runs in one ``--workload`` run (the driver makes many such runs).
RUN_SETUP_REPEATS = 3


# ---------------------------------------------------------------------- #
# hermeticity
# ---------------------------------------------------------------------- #
def _git_status() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def _shm_segments() -> set:
    from repro.topology.shared import scan_segments

    return {name for name, _owner, _alive in scan_segments()}


@contextmanager
def hermetic(violations: List[str]) -> Iterator[None]:
    """Record a violation if the run changes the checkout or leaks shared memory."""
    status, segments = _git_status(), _shm_segments()
    yield
    if _git_status() != status:
        violations.append("git status --porcelain changed during the benchmark")
    leaked = _shm_segments() - segments
    if leaked:
        violations.append(f"shared-memory segments leaked: {sorted(leaked)}")


# ---------------------------------------------------------------------- #
# measuring
# ---------------------------------------------------------------------- #
def untraced(
    workloads: List[Workload],
    seed: int,
    area: str,
    passes: int,
    seconds: float,
    setup_repeats: int,
) -> Dict[str, Tuple[List[e2e.PassResult], List[e2e.CliRun]]]:
    """Interleaved cold passes of each workload, then its set-up re-runs.

    Runs at least ``passes`` rounds, then as many more as bring the time
    measured closest to ``seconds``.  One process at a time: a closed loop
    with one client.
    """
    results: Dict[str, List[e2e.PassResult]] = {w.name: [] for w in workloads}
    started = time.perf_counter()
    rounds = 0
    while True:
        for workload in workloads:
            done = results[workload.name]
            if done:
                shutil.rmtree(done[-1].workdir, ignore_errors=True)
            done.append(e2e.run_pass(workload, seed, area))
        rounds += 1
        elapsed = time.perf_counter() - started
        # Half a round more would overshoot ``seconds`` by more than stopping
        # here undershoots it.
        if rounds >= passes and elapsed * (1 + 0.5 / rounds) >= seconds:
            break
    return {
        w.name: (results[w.name], e2e.measure_setup(w, results[w.name][-1], setup_repeats))
        for w in workloads
    }


def measure_import(area: str, repeats: int) -> float:
    """Median wall time of a fresh interpreter importing the CLI module."""
    walls = [
        e2e.run_python(["-c", "import repro.__main__"], area).wall_s for _ in range(repeats)
    ]
    return statistics.median(walls)


def traced(
    workload: Workload, seed: int, area: str, reference: e2e.PassResult, import_s: float
) -> Tuple[Dict[str, float], Tracer]:
    """The traced in-process pass plus kernel phases; returns the ledger."""
    directory = os.path.join(area, f"traced-{workload.name}")
    inputs = make_inputs(workload, seed, directory)
    tracer = Tracer()
    trace = layers.trace_compare if workload.command == "compare" else layers.trace_place
    with tracer.span("bench.traced_pass") as root:
        ledger = trace(workload, inputs, tracer)

    bodies = tracer.durations("scenarios.shard")
    glue = sum(
        own
        for span, own in zip(tracer.spans, tracer.self_times())
        if span.name in ("bench.traced_pass", "scenarios.shard")
    )
    wall = reference.run.wall_s
    ledger.update(
        {
            "cli.import_s": import_s,
            "scenarios.shards": len(bodies),
            "scenarios.shard_body_ms_p50": 1e3 * statistics.median(bodies),
            "scenarios.parallel_efficiency": sum(bodies) / (workload.workers * wall),
            "bench.trace_overhead_ratio": root.duration / wall,
            "bench.unattributed_share": glue / root.duration,
        }
    )

    # Counters only the real run has: the path store and the failure policy.
    rows = reference.report.rows
    if workload.command == "compare":
        hits = sum(int(row.get("path_cache", {}).get("hits", 0)) for row in rows)
        misses = sum(int(row.get("path_cache", {}).get("misses", 0)) for row in rows)
    else:
        hits = sum(row.get("hop_cache") == "hit" for row in rows)
        misses = sum(row.get("hop_cache") == "miss" for row in rows)
    failures = reference.report.failure_rows
    ledger.update(
        {
            "topology.path_store.hits": hits,
            "topology.path_store.misses": misses,
            "topology.path_store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "scenarios.failure_rows": len(failures),
            "scenarios.retries": sum(not row.get("final", True) for row in failures),
        }
    )

    if workload.command == "compare":
        network = layers.compare_topology(workload, inputs)
    else:
        network = layers.place_topology(workload, inputs)
    ledger.update(layers.path_selector_kernels(network, seed))
    if workload.workers > 1:
        ledger.update(layers.dispatch_kernels(shard_count(workload), directory))
    if workload.topology_source == "lightning-snapshot":
        ledger.update(layers.data_kernels(workload))
    order = {name: index for index, (name, _unit, _better) in enumerate(PER_LAYER)}
    return dict(sorted(ledger.items(), key=lambda item: order[item[0]])), tracer


def shard_totals(passes: List[e2e.PassResult]) -> Tuple[int, int]:
    attempted = sum(result.report.expected for result in passes)
    failed = sum(result.report.failed for result in passes)
    return attempted, failed


def pass_violations(passes: List[e2e.PassResult]) -> List[str]:
    return [message for result in passes for message in result.report.violations]


# ---------------------------------------------------------------------- #
# modes
# ---------------------------------------------------------------------- #
def run_one(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    """One workload, one seed: the contract the benchmark driver runs."""
    violations: List[str] = []
    with e2e.work_area() as area, hermetic(violations):
        if trace:
            measured = untraced([workload], seed, area, 1, 0.0, 0)[workload.name][0]
            ledger, _ = traced(workload, seed, area, measured[-1], measure_import(area, 3))
            report.print_ledger(workload.name, ledger)
            metrics = {name: ledger.get(name, 0.0) for name, _unit, _better in PER_LAYER}
        else:
            measured, setup = untraced(
                [workload], seed, area, 1, seconds, RUN_SETUP_REPEATS
            )[workload.name]
            values = e2e.summarize(measured, setup)
            report.print_end_to_end(workload.name, values, e2e.raw_times(measured, setup))
            metrics = {name: statistics.median(samples) for name, samples in values.items()}
        violations += pass_violations(measured)
    attempted, failed = shard_totals(measured)
    for message in violations:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not violations,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(value), "unit": UNITS[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 1 if violations else 0


def run_report(
    workloads: List[Workload], seed: int, sets: int, smoke: bool, out: Optional[str]
) -> int:
    """Every workload, untraced then traced; ``sets`` repetitions compared."""
    passes, setup_repeats, import_repeats = (1, 1, 1) if smoke else (
        REPORT_PASSES, REPORT_SETUP_REPEATS, 3
    )
    violations: List[str] = []
    record: Dict[str, object] = {"schema": 1, "seed": seed, "sets": []}
    spans: Dict[str, list] = {}
    with e2e.work_area() as area, hermetic(violations):
        record["env"] = report.environment(ROOT)
        for index in range(sets):
            measured = untraced(workloads, seed, area, passes, 0.0, setup_repeats)
            import_s = measure_import(area, import_repeats)
            entry: Dict[str, dict] = {}
            for workload in workloads:
                results, setup = measured[workload.name]
                values = e2e.summarize(results, setup)
                raw = e2e.raw_times(results, setup)
                report.print_end_to_end(workload.name, values, raw)
                ledger, tracer = traced(workload, seed, area, results[-1], import_s)
                report.print_ledger(workload.name, ledger)
                violations += pass_violations(results)
                attempted, failed = shard_totals(results)
                entry[workload.name] = {
                    "why": workload.why,
                    "attempted": attempted,
                    "failed": failed,
                    "end_to_end": {
                        name: {"unit": UNITS[name], **report.describe(samples)}
                        for name, samples in values.items()
                    },
                    "raw": raw,
                    "per_layer": {
                        name: {"unit": UNITS[name], "value": value}
                        for name, value in ledger.items()
                    },
                }
                spans[f"set{index}/{workload.name}"] = tracer.dump()
            record["sets"].append({"workloads": entry})

    status = 0
    if smoke:
        violations += missing_metrics(record["sets"][0]["workloads"])
    if sets >= 2:
        rows = report.compare_sets(
            record["sets"][0]["workloads"], record["sets"][1]["workloads"]
        )
        report.print_comparison(rows)
        record["comparison"] = rows
        if any(row["verdict"] == "regressed" for row in rows):
            status = 1
    for message in violations:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    record["violations"] = violations
    # BENCH_*.json at the root is already git-ignored.
    out = out or os.path.join(ROOT, f"BENCH_e2e_{record['env']['git_rev']}.json")
    report.write_record(out, record)
    report.write_record(out[: -len(".json")] + ".spans.json", spans)
    print(f"wrote {os.path.relpath(out, os.getcwd())}")
    return 1 if violations else status


def missing_metrics(entry: Dict[str, dict]) -> List[str]:
    """Named metrics the run failed to report (``--smoke`` asserts none)."""
    missing = []
    for workload, result in entry.items():
        for name, unit, _better, _bound in END_TO_END:
            if result["end_to_end"].get(name, {}).get("unit") != unit:
                missing.append(f"{workload}: end-to-end metric {name} [{unit}] not reported")
    reported = {
        (name, stats["unit"]) for result in entry.values()
        for name, stats in result["per_layer"].items()
    }
    if set(entry) == set(WORKLOADS):
        for name, unit, _better in PER_LAYER:
            if (name, unit) not in reported:
                missing.append(f"per-layer metric {name} [{unit}] reported by no workload")
    return missing


def run_compare(before: str, after: str) -> int:
    rows = report.compare_sets(report.load_first_set(before), report.load_first_set(after))
    report.print_comparison(rows)
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=1, help="the only input knob")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep making untraced passes until this long was measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with one --workload: 0 end-to-end metrics, 1 per-layer ledger")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, < 30 s in total")
    parser.add_argument("--repeat-sets", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--out", help="result record path (default BENCH_e2e_<rev>.json)")
    args = parser.parse_args(argv)

    if args.compare:
        return run_compare(*args.compare)
    # Die through SystemExit so work areas are removed and children killed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(e2e.SRC, "repro", "__main__.py")):
        print(f"error: no program to benchmark under {e2e.SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    chosen = [WORKLOADS[name].sized(args.smoke) for name in names]
    e2e.adopt_orphans()
    try:
        if args.trace is not None:
            if not args.workload:
                parser.error("--trace needs --workload")
            return run_one(chosen[0], args.seed, args.seconds, bool(args.trace))
        return run_report(chosen, args.seed, args.repeat_sets, args.smoke, args.out)
    except e2e.BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        # On every path out: no process the benchmark started is left running.
        e2e.reap_all()


if __name__ == "__main__":
    raise SystemExit(main())
