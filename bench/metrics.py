"""Names, units, directions and regression bounds of every benchmark metric.

``BENCHMARK.json`` at the repository root lists the same names; a test in
``bench/test_trace.py`` keeps the two in step.  End-to-end metrics come from
untraced CLI passes and carry a bound (the share of the parent's median by
which a later change may worsen them).  Per-layer metrics come from the
traced pass and carry none.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better, bound).  The time bounds are the widest the driver
#: accepts, not the issue's 10 %: even normalised to the host's speed,
#: ten-seed sets spread by 3-11 % on the shared two-core host and their
#: medians drift by 12-22 % within the hour (see README.md, "Noise").
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.05),
    ("work_per_s", "1/s", "higher", 0.25),
    ("success_ratio", "ratio", "higher", 0.1),
    ("ok_share", "ratio", "higher", 0.01),
]

#: Schemes with a ``baselines.<scheme>.*`` block (splicer reports as
#: ``core.setup_s`` + ``routing.*``).
BASELINE_SCHEMES = (
    "spider",
    "flash",
    "landmark",
    "shortest-path",
    "waterfilling",
    "speedymurmurs",
)

#: Per-scheme fields; Splicer reports them under its own layers' names.
SCHEME_FIELDS = (
    ("prepare_s", "s"),
    ("route_batch_s", "s"),
    ("step_s", "s"),
    ("payments", "count"),
    ("completed", "count"),
    ("us_per_payment", "us"),
)
SPLICER_NAMES = (
    "core.setup_s",
    "routing.submit_s",
    "routing.step_s",
    "routing.payments",
    "routing.completed",
    "routing.us_per_payment",
)


def scheme_metric_names(scheme: str) -> Tuple[str, ...]:
    """Ledger names of one scheme's :data:`SCHEME_FIELDS`, in that order."""
    if scheme == "splicer":
        return SPLICER_NAMES
    return tuple(f"baselines.{scheme}.{field}" for field, _unit in SCHEME_FIELDS)


_UNITS: List[Tuple[str, str]] = [
    ("cli.import_s", "s"),
    ("topology.build_s", "s"),
    ("topology.nodes", "count"),
    ("topology.channels", "count"),
    ("topology.shared_export_s", "s"),
    ("topology.shared_attach_s", "s"),
    ("topology.hop_rows_s", "s"),
    ("topology.path_store.hits", "count"),
    ("topology.path_store.misses", "count"),
    ("topology.path_store.hit_ratio", "ratio"),
    ("simulator.workload_build_s", "s"),
    ("simulator.engine_self_s", "s"),
    ("simulator.ticks", "count"),
    ("simulator.batches", "count"),
    ("simulator.payments", "count"),
    ("simulator.distinct_pairs", "count"),
    ("routing.paths.edw_ms_per_call", "ms"),
    ("routing.paths.eds_ms_per_call", "ms"),
    ("routing.paths.ksp_ms_per_call", "ms"),
    ("routing.paths.heuristic_ms_per_call", "ms"),
    *zip(SPLICER_NAMES, (unit for _field, unit in SCHEME_FIELDS)),
    *(
        (name, unit)
        for scheme in BASELINE_SCHEMES
        for name, (_field, unit) in zip(scheme_metric_names(scheme), SCHEME_FIELDS)
    ),
    ("placement.build_problem_s", "s"),
    ("placement.solve_s.greedy", "s"),
    ("placement.solve_s.greedy-det", "s"),
    ("placement.solves", "count"),
    ("placement.hubs_mean", "count"),
    ("placement.det_gap_pct", "%"),
    ("scenarios.shards", "count"),
    ("scenarios.shard_body_ms_p50", "ms"),
    ("scenarios.noop_dispatch_ms_per_shard.w1", "ms"),
    ("scenarios.noop_dispatch_ms_per_shard.w2", "ms"),
    ("scenarios.resume_scan_ms", "ms"),
    ("scenarios.parallel_efficiency", "ratio"),
    ("scenarios.failure_rows", "count"),
    ("scenarios.retries", "count"),
    ("data.snapshot_load_ms", "ms"),
    ("data.trace_clean_ms", "ms"),
    ("data.trace_rows_kept", "count"),
    ("data.trace_workload_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.unattributed_share", "ratio"),
]

_HIGHER = ("hits", "hit_ratio", "completed", "parallel_efficiency")

#: (name, unit, better) of every per-layer metric, in ledger order.
PER_LAYER: List[Tuple[str, str, str]] = [
    (name, unit, "higher" if name.endswith(_HIGHER) else "lower") for name, unit in _UNITS
]

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END}
UNITS.update(_UNITS)

BOUNDS: Dict[str, float] = {name: bound for name, _, _, bound in END_TO_END}
BETTER: Dict[str, str] = {name: better for name, _, better, _ in END_TO_END}
