"""Command-line entry point: ``python -m repro``.

Subcommands:

* ``list`` -- show the registered scenarios and topology/workload sources,
* ``show <scenario>`` -- print a scenario's spec as JSON,
* ``data fetch|clean|info`` -- dataset utilities: stage the bundled
  fixture datasets, clean a raw payment-trace CSV into the canonical
  fingerprinted NPZ, and inspect snapshot/trace files,
* ``run <scenario>`` -- execute a scenario grid in parallel, append
  resumable JSONL results and print the aggregated per-scheme table.
* ``compare`` -- the figure-8 comparison pipeline: shard a multi-scheme,
  multi-scale scheme comparison over worker processes (one scheme x seed
  per run, resumable JSONL) and print one figure-8-shaped table per scale.
* ``place-compare`` -- the figure-9 placement pipeline: shard a
  (placement method x omega x seed) sweep over worker processes and print
  one figure-9-shaped table per scale.
* ``report <results-dir>`` -- summarize a results directory: per-scheme
  tables, failure-reason breakdown and (for traced runs) epoch health.
* ``trace <trace-file>`` -- filter and pretty-print a payment trace,
  including a per-payment ``--timeline`` view.
* ``perf`` -- run the micro-benchmark suites, emit ``BENCH_<rev>.json`` and
  optionally gate against (``--check``) or rewrite (``--update-baseline``)
  the committed ``benchmarks/perf_baseline.json``.
* ``doctor`` -- reap orphaned shared-memory segments left by killed
  runners and inspect or clear sweep quarantine files
  (see ``docs/resilience.md``).

``run`` re-invoked with the same arguments performs zero duplicate
simulation work: completed (scenario, seed, overrides) keys are skipped.

The global ``--log-json`` flag switches every progress/summary line to
structured JSONL records (see :mod:`repro.obs.log`); ``--verbose`` lowers
the threshold to debug.  ``run`` and ``compare`` accept ``--trace`` to
record sampled payment-lifecycle traces plus epoch health telemetry under
``<results-dir>/obs`` (see :mod:`repro.obs`), and every pipeline records
what it wrote in ``<results-dir>/manifest.json`` for ``repro report``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.obs import DEFAULT_SAMPLE_RATE
from repro.obs.log import INFO, configure, get_logger

# Everything else is imported where a subcommand uses it: importing this
# module pulls in neither the scheme zoo nor networkx.  The sweep commands
# import their whole stack (``repro.scenarios`` imports every scheme) before
# a worker pool forks, so workers inherit it.
if TYPE_CHECKING:
    from repro.scenarios.jsonl import GridRunReport

log = get_logger("repro.cli")


def _add_resilience_arguments(sub: argparse.ArgumentParser) -> None:
    """Shard-failure handling flags shared by the sweep pipelines."""
    sub.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        help=(
            "wall-clock seconds one shard may run before its worker is "
            "killed and the attempt counts as failed (default: no timeout; "
            "needs --workers >= 2)"
        ),
    )
    sub.add_argument(
        "--max-retries",
        type=int,
        default=1,
        help="retries per failed shard under --on-shard-error=retry (default 1)",
    )
    sub.add_argument(
        "--on-shard-error",
        choices=["fail", "skip", "retry"],
        default="retry",
        help=(
            "what a shard failure does: record it and retry then quarantine "
            "(retry, default), record it and move on (skip), or record it "
            "and stop the sweep (fail)"
        ),
    )


def _add_obs_arguments(sub: argparse.ArgumentParser) -> None:
    """Observability flags shared by the simulating pipelines."""
    sub.add_argument(
        "--trace",
        action="store_true",
        help="record sampled payment traces + epoch health telemetry",
    )
    sub.add_argument(
        "--obs-dir",
        default=None,
        help="directory for trace/health artifacts (default <results-dir>/obs)",
    )
    sub.add_argument(
        "--trace-sample-rate",
        type=float,
        default=None,
        help=f"fraction of payments traced (default {DEFAULT_SAMPLE_RATE})",
    )
    sub.add_argument(
        "--trace-seed",
        type=int,
        default=0,
        help="seed of the content-addressed sampling hash (default 0)",
    )
    sub.add_argument(
        "--health-interval",
        type=float,
        default=1.0,
        help="sim-seconds between epoch health probes; 0 disables (default 1)",
    )


def _build_parser() -> argparse.ArgumentParser:
    from repro.data.cli import add_data_arguments
    from repro.placement.compare import PLACE_METHODS, PLACEMENT_SCALES
    from repro.scenarios.registry import COMPARISON_SCALES

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Splicer reproduction: scenario orchestration CLI",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="also print debug-level log lines"
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit progress/summary lines as JSONL records instead of text",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "list", help="list registered scenarios and topology/workload sources"
    )

    show = commands.add_parser("show", help="print a scenario spec as JSON")
    show.add_argument("scenario", help="registered scenario name")

    run = commands.add_parser("run", help="execute a scenario grid")
    run.add_argument("scenario", help="registered scenario name")
    run.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    run.add_argument(
        "--results-dir",
        default=os.path.join("results", "scenarios"),
        help="directory for the JSONL results (default results/scenarios)",
    )
    run.add_argument("--seeds", help="comma-separated seeds overriding the spec's")
    run.add_argument(
        "--schemes", help="comma-separated scheme names restricting the comparison"
    )
    run.add_argument("--nodes", type=int, help="override topology node count")
    run.add_argument("--duration", type=float, help="override workload duration (seconds)")
    run.add_argument(
        "--arrival-rate", type=float, help="override workload arrival rate (payments/s)"
    )
    run.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="PATH=JSON",
        help="extra dotted-path override, e.g. --set workload.value_scale=2.0",
    )
    run.add_argument("--quiet", action="store_true", help="suppress per-run progress lines")
    _add_obs_arguments(run)
    _add_resilience_arguments(run)

    compare = commands.add_parser(
        "compare", help="run the figure-8 scheme comparison, sharded over workers"
    )
    compare.add_argument(
        "--schemes",
        default="splicer,spider,flash,landmark",
        help="comma-separated scheme names (default splicer,spider,flash,landmark)",
    )
    compare.add_argument(
        "--scale",
        default="large",
        help=(
            "comma-separated comparison scale(s): "
            f"{', '.join(sorted(COMPARISON_SCALES))} (default large)"
        ),
    )
    compare.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    compare.add_argument("--seeds", default="1", help="comma-separated seeds (default 1)")
    compare.add_argument(
        "--duration", type=float, default=8.0, help="workload duration in seconds (default 8)"
    )
    compare.add_argument("--nodes", type=int, help="override the scale's node count")
    compare.add_argument(
        "--arrival-rate", type=float, help="override the scale's arrival rate (payments/s)"
    )
    compare.add_argument(
        "--payments",
        type=int,
        help=(
            "override the scale's offered payment count (sets the arrival "
            "rate to payments/duration); mutually exclusive with "
            "--arrival-rate"
        ),
    )
    compare.add_argument(
        "--results-dir",
        default=os.path.join("results", "compare"),
        help="directory for the JSONL results (default results/compare)",
    )
    compare.add_argument(
        "--topology-source",
        default=None,
        metavar="KIND|JSON",
        help=(
            "topology source descriptor replacing the synthetic graph: a "
            "registered kind (e.g. lightning-snapshot) or a JSON object "
            'like {"kind": "lightning-snapshot", "path": "..."}'
        ),
    )
    compare.add_argument(
        "--workload-source",
        default=None,
        metavar="KIND|JSON",
        help=(
            "workload source descriptor replacing the Poisson generator: a "
            "registered kind (e.g. ripple-trace) or a JSON object "
            'like {"kind": "ripple-trace", "path": "..."}'
        ),
    )
    compare.add_argument("--quiet", action="store_true", help="suppress per-run progress lines")
    _add_obs_arguments(compare)
    _add_resilience_arguments(compare)

    data = commands.add_parser(
        "data", help="dataset utilities: fetch fixtures, clean traces, inspect files"
    )
    add_data_arguments(data)

    place = commands.add_parser(
        "place-compare",
        help="run the figure-9 placement method sweep, sharded over workers",
    )
    place.add_argument(
        "--scale",
        default="small",
        help=(
            "comma-separated placement scale(s): "
            f"{', '.join(sorted(PLACEMENT_SCALES))} (default small)"
        ),
    )
    place.add_argument(
        "--methods",
        default=None,
        help=(
            "comma-separated placement methods overriding the scale's default "
            f"line-up; choose from {', '.join(PLACE_METHODS)}"
        ),
    )
    place.add_argument(
        "--omegas",
        default=None,
        help="comma-separated omega sweep values (default: the paper's sweep)",
    )
    place.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    place.add_argument("--seeds", default="1", help="comma-separated seeds (default 1)")
    place.add_argument("--nodes", type=int, help="override the scale's node count")
    place.add_argument(
        "--results-dir",
        default=os.path.join("results", "place"),
        help="directory for the JSONL results (default results/place)",
    )
    place.add_argument("--quiet", action="store_true", help="suppress per-run progress lines")
    _add_resilience_arguments(place)

    doctor = commands.add_parser(
        "doctor",
        help="reap orphaned shared-memory segments and inspect/clear quarantines",
    )
    doctor.add_argument(
        "--results-dir",
        default=None,
        help="results directory whose quarantine files to inspect (optional)",
    )
    doctor.add_argument(
        "--clear-quarantine",
        action="store_true",
        help="delete the directory's quarantine files so resume re-runs those shards",
    )

    report = commands.add_parser(
        "report", help="summarize a results directory (tables, failures, health)"
    )
    report.add_argument(
        "results_dir", help="results directory written by run/compare/place-compare"
    )

    trace = commands.add_parser(
        "trace", help="filter and pretty-print a payment-lifecycle trace"
    )
    trace.add_argument(
        "trace_file",
        help="trace JSONL file, or an obs directory holding trace-*.jsonl shards",
    )
    trace.add_argument("--payment", type=int, default=None, help="only this payment id")
    trace.add_argument(
        "--channel",
        default=None,
        metavar="A,B",
        help="only lock/contention events touching the A--B channel",
    )
    trace.add_argument("--reason", default=None, help="only events with this reason code")
    trace.add_argument(
        "--kind", default=None, help="only event kinds containing this substring"
    )
    trace.add_argument("--scheme", default=None, help="only this routing scheme's events")
    trace.add_argument(
        "--limit", type=int, default=50, help="rows rendered in table mode (default 50)"
    )
    trace.add_argument(
        "--timeline",
        action="store_true",
        help="render --payment as a relative-time lifecycle timeline",
    )

    perf = commands.add_parser("perf", help="run the performance benchmark suites")
    perf.add_argument(
        "--suite",
        choices=["small", "medium", "large", "xl-small", "all"],
        default="all",
        help=(
            "which scale to run: the classic three, the xl-small "
            "arrival-cursor suite, or all of them (default all)"
        ),
    )
    perf.add_argument(
        "--repeats", type=int, default=5, help="timed repeats per benchmark (default 5)"
    )
    perf.add_argument(
        "--output-dir",
        default=".",
        help="directory for the emitted BENCH_<rev>.json (default: current directory)",
    )
    perf.add_argument(
        "--baseline",
        default=None,
        help="baseline file (default benchmarks/perf_baseline.json)",
    )
    perf.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed normalized-time growth before --check fails (default 0.25)",
    )
    perf.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline; exit 1 on regression",
    )
    perf.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file from this run's measurements",
    )
    perf.add_argument(
        "--json",
        dest="json_output",
        action="store_true",
        help="print the benchmark report (and gate outcome) as JSON on stdout",
    )
    perf.add_argument(
        "--profile",
        action="store_true",
        help="run each benchmark once under cProfile and print the hottest calls",
    )
    perf.add_argument(
        "--profile-top",
        type=int,
        default=15,
        help="rows per benchmark in --profile output (default 15)",
    )
    return parser


def _parse_value(raw: str) -> object:
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _obs_settings(args: argparse.Namespace) -> Optional[Dict[str, object]]:
    """The ``ScenarioSpec.obs`` block described by the CLI flags, if any."""
    if not getattr(args, "trace", False):
        return None
    sample_rate = (
        DEFAULT_SAMPLE_RATE if args.trace_sample_rate is None else args.trace_sample_rate
    )
    if not 0.0 < sample_rate <= 1.0:
        raise ValueError(f"--trace-sample-rate must be in (0, 1], got {sample_rate}")
    return {
        "dir": args.obs_dir or os.path.join(args.results_dir, "obs"),
        "sample_rate": sample_rate,
        "trace_seed": args.trace_seed,
        "health_interval": args.health_interval,
    }


def _spec_with_cli_overrides(args: argparse.Namespace):
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.spec import SchemeSpec

    spec = get_scenario(args.scenario)
    overrides: Dict[str, object] = {}
    if args.nodes is not None:
        overrides["topology.params.node_count"] = args.nodes
    if args.duration is not None:
        overrides["workload.duration"] = args.duration
    if args.arrival_rate is not None:
        overrides["workload.arrival_rate"] = args.arrival_rate
    for entry in args.set:
        if "=" not in entry:
            raise SystemExit(f"--set expects PATH=JSON, got {entry!r}")
        path, raw = entry.split("=", 1)
        overrides[path.strip()] = _parse_value(raw)
    if overrides:
        spec = spec.with_overrides(overrides)
    if args.seeds:
        spec.seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
    if args.schemes:
        wanted = [part.strip() for part in args.schemes.split(",") if part.strip()]
        if "schemes.0" in spec.grid:
            # Comparison-style scenarios shard the scheme dimension through
            # the grid; restricting `spec.schemes` alone would be silently
            # overridden run by run, so filter the grid instead.
            available = [entry.get("name") for entry in spec.grid["schemes.0"]]
            missing = [name for name in wanted if name not in available]
            if missing:
                raise ValueError(
                    f"--schemes {','.join(missing)} not in this scenario's grid "
                    f"schemes: {sorted(available)}"
                )
            spec.grid["schemes.0"] = [
                entry for entry in spec.grid["schemes.0"] if entry.get("name") in wanted
            ]
        else:
            _check_scheme_names(wanted)
            by_name = {scheme.name: scheme for scheme in spec.schemes}
            spec.schemes = [by_name.get(name, SchemeSpec(name=name)) for name in wanted]
    return spec


def _command_list() -> int:
    from repro.analysis.tables import format_table
    from repro.data.sources import list_topology_sources, list_workload_sources
    from repro.scenarios.registry import list_scenarios

    rows = [
        {"scenario": name, "description": description}
        for name, description in list_scenarios().items()
    ]
    log.info(format_table(rows))
    log.info("")
    log.info("topology sources (topology.kind / topology.source):")
    log.info(
        format_table(
            [
                {
                    "kind": info.kind,
                    "data": "synthetic" if info.synthetic else "data-backed",
                    "description": info.description,
                }
                for info in list_topology_sources()
            ]
        )
    )
    log.info("")
    log.info("workload sources (workload.source):")
    log.info(
        format_table(
            [
                {
                    "kind": info.kind,
                    "data": "synthetic" if info.synthetic else "data-backed",
                    "description": info.description,
                }
                for info in list_workload_sources()
            ]
        )
    )
    return 0


def _command_show(scenario: str) -> int:
    from repro.scenarios.registry import get_scenario

    # The JSON spec *is* the output artifact, so it owns stdout directly
    # (it must stay parseable even under --log-json).
    print(json.dumps(get_scenario(scenario).to_dict(), indent=2, sort_keys=True))
    return 0


def _spec_sources(spec) -> Dict[str, object]:
    """The active topology/workload source descriptors of a scenario spec."""
    return {
        "topology": spec.topology.describe_source(),
        "workload": spec.workload.describe_source(),
    }


def _record_manifest(
    results_dir: str,
    command: str,
    name: str,
    results_path: str,
    schema_version: int,
    rows: int,
    obs_dir: Optional[str] = None,
    table: Optional[str] = None,
    sources: Optional[Dict[str, object]] = None,
    methods: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
    report: Optional[GridRunReport] = None,
) -> None:
    """Register one pipeline's outputs in ``<results_dir>/manifest.json``."""
    from repro.obs.report import update_manifest

    entry: Dict[str, object] = {
        "command": command,
        "name": name,
        "results": os.path.basename(results_path),
        "schema_version": schema_version,
        "rows": rows,
    }
    if obs_dir:
        entry["obs_dir"] = obs_dir
    if table:
        entry["table"] = os.path.basename(table)
    if sources:
        entry["sources"] = sources
    if methods:
        # ``repro report`` pivots the figure-9 table in this order.
        entry["methods"] = list(methods)
    if schemes:
        # ... and lists scheme lines in this order (the JSONL file is in
        # completion order).
        entry["schemes"] = list(schemes)
    if report is not None and (report.failures or report.quarantined):
        entry["failures"] = len(report.failures)
        entry["quarantined"] = len(report.quarantined)
    path = update_manifest(results_dir, entry)
    log.debug(f"updated manifest {path}", command=command, name=name)


def _resilience_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    """The runner's resilience keyword arguments from the CLI flags."""
    if args.shard_timeout is not None and args.workers <= 1:
        log.warning(
            "--shard-timeout needs --workers >= 2 (the serial path runs "
            "shards in-process and cannot kill a stuck one); ignoring it"
        )
    return {
        "shard_timeout": args.shard_timeout,
        "max_retries": args.max_retries,
        "on_error": args.on_shard_error,
    }


def _log_resilience(report: GridRunReport) -> None:
    """The post-sweep resilience summary lines (silent on a clean sweep)."""
    if report.retries:
        log.warning(
            f"retried {report.retries} failed shard attempt(s)", retries=report.retries
        )
    if report.failures:
        log.warning(
            f"recorded {len(report.failures)} shard failure row(s) in "
            f"{report.results_path}",
            failures=len(report.failures),
        )
    if report.quarantined:
        log.warning(
            f"{len(report.quarantined)} run(s) quarantined; resume skips them "
            f"until cleared with `python -m repro doctor --clear-quarantine`",
            quarantined=len(report.quarantined),
        )
    if report.corrupt_lines:
        log.warning(
            f"results file held {report.corrupt_lines} corrupt line(s); "
            f"the affected run(s) re-execute on resume",
            corrupt_lines=report.corrupt_lines,
        )


def _command_run(args: argparse.Namespace) -> int:
    from repro.analysis.tables import scenario_table
    from repro.scenarios.runner import RESULT_SCHEMA_VERSION, ScenarioRunner

    spec = _spec_with_cli_overrides(args)
    spec.obs = _obs_settings(args)
    runner = ScenarioRunner(
        spec,
        results_dir=args.results_dir,
        workers=args.workers,
        **_resilience_kwargs(args),
    )
    total = len(spec.expand_runs())
    log.info(
        f"scenario {spec.name!r}: {total} run(s) "
        f"({len(spec.seeds)} seed(s) x {max(total // max(len(spec.seeds), 1), 1)} grid point(s)), "
        f"{args.workers} worker(s) -> {runner.results_path}",
        scenario=spec.name,
        runs=total,
        workers=args.workers,
    )

    started = time.perf_counter()
    progress = None
    if not args.quiet:

        def progress(row: Dict[str, object]) -> None:
            log.info(f"  done {row['run_key']}", run_key=row["run_key"])

    report = runner.run(on_row=progress)
    elapsed = time.perf_counter() - started
    log.info(
        f"executed {report.executed} run(s), skipped {report.skipped} already-completed "
        f"or quarantined, in {elapsed:.1f}s",
        executed=report.executed,
        skipped=report.skipped,
        seconds=round(elapsed, 3),
    )
    _log_resilience(report)
    log.info("")
    log.info(scenario_table(report.rows))
    _record_manifest(
        args.results_dir,
        command="run",
        name=spec.name,
        results_path=runner.results_path,
        schema_version=RESULT_SCHEMA_VERSION,
        rows=len(report.rows),
        obs_dir=spec.obs.get("dir") if spec.obs else None,
        sources=_spec_sources(spec),
        report=report,
    )
    return 0


def _parse_source_flag(raw: Optional[str], flag: str) -> Optional[object]:
    """A ``--topology-source``/``--workload-source`` value: kind name or JSON."""
    if raw is None:
        return None
    if raw.lstrip().startswith("{"):
        try:
            descriptor = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ValueError(f"{flag}: invalid JSON descriptor ({error}): {raw!r}") from None
        if not isinstance(descriptor, dict) or "kind" not in descriptor:
            raise ValueError(
                f"{flag}: descriptor JSON must be an object with a 'kind' key, got {raw!r}"
            )
        return descriptor
    return raw


def _check_scheme_names(names: Sequence[str]) -> None:
    """Reject unknown scheme names before any topology/worker spin-up."""
    from repro.baselines import SCHEME_REGISTRY

    unknown = [name for name in names if name not in SCHEME_REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown scheme(s) {', '.join(sorted(unknown))}; "
            f"available: {', '.join(sorted(SCHEME_REGISTRY))}"
        )


def _log_peak_memory() -> None:
    """Log the peak RSS of this process and its worker children, in MiB.

    The ``peak memory: runner ... MiB, max worker ... MiB`` line is what the
    CI memory ceilings are documented and grepped against; nothing is logged
    where the ``resource`` module is unavailable.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return
    scale = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    runner_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
    worker_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / scale
    log.info(
        f"peak memory: runner {runner_mib:.0f} MiB, max worker {worker_mib:.0f} MiB",
        runner_mib=round(runner_mib, 1),
        worker_mib=round(worker_mib, 1),
    )


def _publish_table(table_path: str, title: str, table: str) -> str:
    """Print a titled figure table, write the same text to ``table_path``, return the path."""
    rule = "=" * len(title)
    for line in ("", title, rule, table, ""):
        log.info(line)
    with open(table_path, "w", encoding="utf-8") as handle:
        handle.write(f"{title}\n{rule}\n{table}\n")
    log.info(f"wrote {table_path}", path=table_path)
    return table_path


def _node_label(source_kind: str, params: Dict[str, object]) -> str:
    """The size a topology source builds: ``60 nodes``, or ``up to 60 nodes`` under a cap.

    A data-backed source takes the scale's node count as a ``max_nodes`` cap
    and may build fewer (the bundled snapshot keeps 44 of ``small``'s 60).
    """
    if params.get("node_count"):
        return f"{params['node_count']} nodes"
    if params.get("max_nodes"):
        return f"up to {params['max_nodes']} nodes"
    return f"{source_kind} nodes"


def _command_compare(args: argparse.Namespace) -> int:
    from repro.analysis.tables import scenario_table
    from repro.scenarios.registry import build_comparison_spec
    from repro.scenarios.runner import RESULT_SCHEMA_VERSION, ScenarioRunner

    schemes = [part.strip() for part in args.schemes.split(",") if part.strip()]
    scales = [part.strip() for part in args.scale.split(",") if part.strip()]
    seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
    if not schemes:
        raise ValueError("--schemes must name at least one scheme")
    if not scales:
        raise ValueError("--scale must name at least one scale")
    if not seeds:
        raise ValueError("--seeds must name at least one seed")
    if args.payments is not None and args.arrival_rate is not None:
        raise ValueError("--payments and --arrival-rate are mutually exclusive")
    _check_scheme_names(schemes)

    for scale in scales:
        spec = build_comparison_spec(
            scale,
            schemes,
            seeds=seeds,
            duration=args.duration,
            nodes=args.nodes,
            topology_source=_parse_source_flag(args.topology_source, "--topology-source"),
            workload_source=_parse_source_flag(args.workload_source, "--workload-source"),
        )
        if args.arrival_rate is not None:
            spec.workload.arrival_rate = args.arrival_rate
        if args.payments is not None:
            spec.workload.arrival_rate = args.payments / spec.workload.duration
        spec.obs = _obs_settings(args)
        runner = ScenarioRunner(
            spec,
            results_dir=args.results_dir,
            workers=args.workers,
            # At the xl scale each seed's topology is exported once to a
            # read-only shared-memory block instead of rebuilt per shard.
            shared_topology=scale == "xl",
            **_resilience_kwargs(args),
        )
        total = len(spec.expand_runs())
        nodes = _node_label(*spec.topology.resolved_source())
        log.info(
            f"compare scale {scale!r}: {nodes}, {len(schemes)} scheme(s) x "
            f"{len(seeds)} seed(s) = {total} run(s), {args.workers} worker(s) "
            f"-> {runner.results_path}",
            scale=scale,
            nodes=nodes,
            runs=total,
        )

        started = time.perf_counter()
        progress = None
        if not args.quiet:

            def progress(row: Dict[str, object]) -> None:
                scheme_names = ", ".join(row.get("metrics", {}))
                log.info(
                    f"  done seed={row['seed']} scheme={scheme_names}",
                    seed=row["seed"],
                    schemes=scheme_names,
                )

        report = runner.run(on_row=progress)
        elapsed = time.perf_counter() - started
        log.info(
            f"executed {report.executed} run(s), skipped {report.skipped} "
            f"already-completed or quarantined, in {elapsed:.1f}s",
            executed=report.executed,
            skipped=report.skipped,
            seconds=round(elapsed, 3),
        )
        _log_resilience(report)
        _log_peak_memory()
        table_path = _publish_table(
            os.path.join(args.results_dir, f"fig8-{scale}.txt"),
            f"Figure 8 comparison -- scale {scale} ({nodes})",
            scenario_table(report.rows),
        )
        _record_manifest(
            args.results_dir,
            command="compare",
            name=spec.name,
            results_path=runner.results_path,
            schema_version=RESULT_SCHEMA_VERSION,
            rows=len(report.rows),
            obs_dir=spec.obs.get("dir") if spec.obs else None,
            table=table_path,
            sources=_spec_sources(spec),
            schemes=schemes,
            report=report,
        )
    return 0


def _command_place_compare(args: argparse.Namespace) -> int:
    from repro.analysis.tables import fig9_table
    from repro.placement.compare import (
        PLACE_SCHEMA_VERSION,
        PlacementCompareRunner,
        build_place_spec,
    )

    scales = [part.strip() for part in args.scale.split(",") if part.strip()]
    seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
    methods = (
        [part.strip() for part in args.methods.split(",") if part.strip()]
        if args.methods
        else None
    )
    omegas = (
        [float(part) for part in args.omegas.split(",") if part.strip()]
        if args.omegas
        else None
    )
    if not scales:
        raise ValueError("--scale must name at least one scale")
    if not seeds:
        raise ValueError("--seeds must name at least one seed")

    for scale in scales:
        spec = build_place_spec(
            scale,
            methods=methods,
            omegas=omegas,
            seeds=seeds,
            nodes=args.nodes,
        )
        runner = PlacementCompareRunner(
            spec,
            results_dir=args.results_dir,
            workers=args.workers,
            **_resilience_kwargs(args),
        )
        total = len(spec.expand_runs())
        log.info(
            f"place-compare scale {scale!r}: {spec.nodes} nodes, "
            f"{len(spec.methods)} method(s) x {len(spec.omegas)} omega(s) x "
            f"{len(seeds)} seed(s) = {total} run(s), {args.workers} worker(s) "
            f"-> {runner.results_path}",
            scale=scale,
            nodes=spec.nodes,
            runs=total,
        )

        started = time.perf_counter()
        progress = None
        if not args.quiet:

            def progress(row: Dict[str, object]) -> None:
                log.info(
                    f"  done seed={row['seed']} method={row['method']} "
                    f"omega={row['omega']} ({row['solve_seconds']}s)",
                    seed=row["seed"],
                    method=row["method"],
                    omega=row["omega"],
                )

        report = runner.run(on_row=progress)
        elapsed = time.perf_counter() - started
        log.info(
            f"executed {report.executed} run(s), skipped {report.skipped} "
            f"already-completed or quarantined, in {elapsed:.1f}s",
            executed=report.executed,
            skipped=report.skipped,
            seconds=round(elapsed, 3),
        )
        _log_resilience(report)
        _log_peak_memory()
        table_path = _publish_table(
            os.path.join(args.results_dir, f"fig9-{scale}.txt"),
            f"Figure 9 placement comparison -- scale {scale} ({spec.nodes} nodes)",
            fig9_table(report.rows, spec.methods),
        )
        _record_manifest(
            args.results_dir,
            command="place-compare",
            name=runner.results_name,
            results_path=runner.results_path,
            schema_version=PLACE_SCHEMA_VERSION,
            rows=len(report.rows),
            table=table_path,
            methods=spec.methods,
            report=report,
        )
    return 0


def _command_doctor(args: argparse.Namespace) -> int:
    """Health checks: reap orphaned shared memory, inspect/clear quarantines."""
    import glob as _glob

    from repro.topology.shared import reap_orphan_segments, scan_segments

    reaped = reap_orphan_segments()
    log.info(
        f"reaped {len(reaped)} orphaned shared-memory segment(s)"
        + (f": {', '.join(reaped)}" if reaped else ""),
        reaped=len(reaped),
    )
    live = [name for name, _owner, alive in scan_segments() if alive]
    if live:
        log.info(
            f"{len(live)} segment(s) belong to live runner(s) and were left alone",
            live=len(live),
        )
    if args.results_dir is None:
        if args.clear_quarantine:
            raise ValueError("--clear-quarantine needs --results-dir")
        return 0
    if not os.path.isdir(args.results_dir):
        raise ValueError(f"results directory {args.results_dir!r} does not exist")
    quarantine_files = sorted(
        _glob.glob(os.path.join(args.results_dir, "*.quarantine.jsonl"))
    )
    if not quarantine_files:
        log.info(f"no quarantine files under {args.results_dir}")
        return 0
    for path in quarantine_files:
        with open(path, "r", encoding="utf-8") as handle:
            entries = [line for line in handle if line.strip()]
        log.info(f"{path}: {len(entries)} quarantined run(s)", path=path)
        for line in entries:
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            log.info(
                f"  {entry.get('run_key', '?')} -- {entry.get('failure', '?')} "
                f"{entry.get('error', '')} after {entry.get('attempts', '?')} attempt(s)"
            )
        if args.clear_quarantine:
            os.unlink(path)
            log.info(f"cleared {path}; resume will re-run those shards", path=path)
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.obs.report import render_report

    log.info(render_report(args.results_dir))
    return 0


def _trace_events(path: str) -> List[Dict[str, object]]:
    """Events of one trace file, or of every shard in an obs directory."""
    from repro.obs.report import read_trace

    if os.path.isdir(path):
        import glob as _glob

        shards = sorted(_glob.glob(os.path.join(path, "trace-*.jsonl")))
        if not shards:
            raise ValueError(f"no trace-*.jsonl files under {path!r}")
        events: List[Dict[str, object]] = []
        for shard in shards:
            events.extend(read_trace(shard))
        return events
    if not os.path.exists(path):
        raise ValueError(f"trace file {path!r} does not exist")
    return read_trace(path)


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs.report import filter_trace_events, render_timeline, render_trace

    events = _trace_events(args.trace_file)
    channel = None
    if args.channel:
        endpoints = [part.strip() for part in args.channel.split(",") if part.strip()]
        if len(endpoints) != 2:
            raise ValueError(f"--channel expects two endpoints A,B, got {args.channel!r}")
        channel = endpoints
    if args.timeline:
        if args.payment is None:
            raise ValueError("--timeline requires --payment")
        # The timeline locates the payment itself; other filters still
        # narrow which of its events appear.
        selected = filter_trace_events(
            events, channel=channel, reason=args.reason, kind=args.kind, scheme=args.scheme
        )
        log.info(render_timeline(selected, args.payment))
        return 0
    selected = filter_trace_events(
        events,
        payment=args.payment,
        channel=channel,
        reason=args.reason,
        kind=args.kind,
        scheme=args.scheme,
    )
    log.info(render_trace(selected, limit=args.limit))
    return 0


def _command_perf(args: argparse.Namespace) -> int:
    from repro.perf import baseline as perf_baseline
    from repro.perf.harness import default_report_name, profile_specs, run_specs
    from repro.perf.suites import build_suites

    if args.repeats < 1:
        raise ValueError("--repeats must be at least 1")
    if args.json_output and args.profile:
        raise ValueError("--json is not available with --profile")
    if args.json_output:
        # The JSON report owns stdout; progress/summary lines move to stderr.
        configure(stream=sys.stderr)
    scales = ["small", "medium", "large", "xl-small"] if args.suite == "all" else [args.suite]
    specs = build_suites(scales)
    log.info(f"perf: {len(specs)} benchmark(s) across suite(s) {', '.join(scales)}")

    if args.profile:
        if args.profile_top < 1:
            raise ValueError("--profile-top must be at least 1")
        profile_specs(specs, top=args.profile_top)
        return 0

    def on_record(record) -> None:
        log.info(
            f"  {record.name:<28} best {record.best_seconds * 1e3:9.3f} ms  "
            f"normalized {record.normalized:8.3f}",
            benchmark=record.name,
            normalized=round(record.normalized, 3),
        )

    report = run_specs(specs, repeats=args.repeats, on_record=on_record)

    os.makedirs(args.output_dir, exist_ok=True)
    report_path = os.path.join(args.output_dir, default_report_name(report.revision))
    report.write(report_path)
    log.info(f"wrote {report_path}", path=report_path)

    def emit_json(check: Optional[Dict[str, object]] = None) -> None:
        if not args.json_output:
            return
        payload = report.as_dict()
        if check is not None:
            payload["check"] = check
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))

    baseline_path = args.baseline or perf_baseline.DEFAULT_BASELINE_PATH
    if args.update_baseline and not args.check:
        perf_baseline.update_baseline(report, baseline_path)
        log.info(f"updated baseline {baseline_path}", path=baseline_path)
        emit_json()
        return 0
    if args.check:
        entries = perf_baseline.load_baseline(baseline_path)
        if entries is None:
            if args.update_baseline:
                # Bootstrapping: nothing to gate against yet, so this run
                # becomes the baseline.
                perf_baseline.update_baseline(report, baseline_path)
                log.info(f"no baseline to check against; created {baseline_path}")
                emit_json()
                return 0
            log.error(f"no baseline at {baseline_path}; run --update-baseline first")
            return 2
        # Gate on the scale labels the run produced (the large suite also
        # carries the ``placement-solver/paper`` record).
        entries = perf_baseline.filter_entries(entries, sorted({spec.scale for spec in specs}))
        tolerance = perf_baseline.DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
        comparison = perf_baseline.compare_report(report, entries, tolerance=tolerance)
        if comparison.regressions:
            # A transient load spike (noisy neighbor, cgroup throttling) can
            # inflate one measurement pass; regressions must survive an
            # independent re-measurement before they fail the gate.
            retry_names = {name for name, *_ in comparison.regressions}
            log.info(f"re-measuring {len(retry_names)} regressed benchmark(s) to rule out noise")
            retry_specs = [spec for spec in specs if spec.name in retry_names]
            retry = run_specs(retry_specs, repeats=args.repeats)
            by_name = {record.name: record for record in retry.records}
            for index, record in enumerate(report.records):
                better = by_name.get(record.name)
                if better is not None and better.normalized < record.normalized:
                    # Adopt the retry's record wholesale so the emitted
                    # report stays a self-consistent measurement, and mark
                    # it so analysts know a first pass was discarded.
                    better.meta["retried"] = True
                    report.records[index] = better
            report.write(report_path)
            comparison = perf_baseline.compare_report(report, entries, tolerance=tolerance)
        for line in comparison.summary_lines():
            log.info(line)
        if args.update_baseline:
            # Gate first, refresh second: a regression must never be baked
            # into the baseline it would then hide from.
            if comparison.ok:
                perf_baseline.update_baseline(report, baseline_path)
                log.info(f"updated baseline {baseline_path}", path=baseline_path)
            else:
                log.warning("baseline NOT updated: regressions above")
        emit_json(
            {
                "ok": comparison.ok,
                "tolerance": comparison.tolerance,
                "regressions": [
                    {"name": name, "baseline": base, "current": current, "ratio": ratio}
                    for name, base, current, ratio in comparison.regressions
                ],
                "missing": list(comparison.missing),
                "new": list(comparison.new),
            }
        )
        return 0 if comparison.ok else 1
    emit_json()
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _command_list()
    if args.command == "show":
        return _command_show(args.scenario)
    if args.command == "perf":
        return _command_perf(args)
    if args.command == "compare":
        return _command_compare(args)
    if args.command == "place-compare":
        return _command_place_compare(args)
    if args.command == "report":
        return _command_report(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "doctor":
        return _command_doctor(args)
    if args.command == "data":
        from repro.data.cli import run_data_command

        return run_data_command(args)
    return _command_run(args)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (exposed for tests)."""
    args = _build_parser().parse_args(argv)
    from repro.scenarios.jsonl import ShardFailure, SweepInterrupted

    configure(
        mode="jsonl" if args.log_json else "human",
        level=INFO,
        verbose=bool(args.verbose),
    )
    try:
        code = _dispatch(args)
        # Flush inside the handler: a reader that went away must surface
        # here, not in the interpreter's exit flush.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (`... | head`).  Point stdout at devnull
        # so the exit flush cannot raise again, and report the conventional
        # fatal-signal exit code instead of a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE
    except ShardFailure as error:
        log.error(str(error))
        # A configuration error reproduced by a retry is a usage error (2),
        # like one caught in the parent; a fault under --on-shard-error=fail
        # is a failed run (1).
        return 2 if error.deterministic else 1
    except SweepInterrupted as error:
        log.error(str(error))
        # The conventional fatal-signal exit code, so wrapping scripts and
        # CI see the interruption as such rather than as a crash.
        return 128 + error.signum
    except (KeyError, ValueError) as error:
        log.error(str(error.args[0] if error.args else error))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
