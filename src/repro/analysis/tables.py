"""Plain-text and CSV rendering of experiment results.

The paper reports its evaluation as figures and tables; since the benchmark
harness runs in a terminal, results are rendered as aligned ASCII tables
(one row per scheme or per sweep point) and can be exported as CSV for
external plotting.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Sequence, Tuple

from repro.simulator.experiment import ExperimentResult


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.4f}",
) -> str:
    """Render dictionaries as an aligned ASCII table.

    Args:
        rows: One dictionary per row.
        columns: Column order; defaults to the keys of the first row.
        float_format: Format applied to float values.
    """
    if not rows:
        return "(no rows)"
    column_names = list(columns) if columns is not None else list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(column, "")) for column in column_names] for row in rows]
    widths = [
        max(len(column_names[i]), max((len(r[i]) for r in rendered), default=0))
        for i in range(len(column_names))
    ]
    lines = []
    header = " | ".join(name.ljust(width) for name, width in zip(column_names, widths))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def result_table(
    result: ExperimentResult,
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Render an :class:`ExperimentResult` as a per-scheme table."""
    default_columns = [
        "scheme",
        "success_ratio",
        "normalized_throughput",
        "average_delay",
        "p90_delay",
        "p99_delay",
        "overhead_messages",
        "completed_count",
        "generated_count",
    ]
    return format_table(result.as_rows(), columns=columns or default_columns)


#: Metrics averaged by :func:`scenario_summary_rows`.  Tail latency (p90/p99)
#: rides along with the mean: the paper's delay plots compare the tail, which
#: a mean-only table hides.
SCENARIO_SUMMARY_METRICS = (
    "success_ratio",
    "normalized_throughput",
    "average_delay",
    "p90_delay",
    "p99_delay",
    "overhead_messages",
)


def scenario_summary_rows(
    result_rows: Sequence[Dict[str, object]],
    metrics: Sequence[str] = SCENARIO_SUMMARY_METRICS,
) -> List[Dict[str, object]]:
    """Aggregate scenario-runner JSONL rows into one row per scheme.

    Args:
        result_rows: Rows as produced by
            :func:`repro.scenarios.runner.load_result_rows` -- each carries a
            ``metrics`` mapping of scheme name to that run's metric dict.
        metrics: Metric names to average across runs.

    Returns:
        One dictionary per scheme (first-seen order): the run count plus the
        mean of every requested metric over all runs containing the scheme.
    """
    sums: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, int] = {}
    for row in result_rows:
        for scheme, scheme_metrics in row.get("metrics", {}).items():
            bucket = sums.setdefault(scheme, {metric: 0.0 for metric in metrics})
            counts[scheme] = counts.get(scheme, 0) + 1
            for metric in metrics:
                bucket[metric] += float(scheme_metrics.get(metric, 0.0))
    return [
        {
            "scheme": scheme,
            "runs": counts[scheme],
            **{metric: sums[scheme][metric] / counts[scheme] for metric in metrics},
        }
        for scheme in sums
    ]


def scenario_table(result_rows: Sequence[Dict[str, object]]) -> str:
    """Render scenario-runner rows as an aggregated per-scheme ASCII table."""
    return format_table(scenario_summary_rows(result_rows))


def failure_breakdown_rows(result_rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Aggregate per-reason failure counts into one row per scheme.

    Sums the ``failure_reasons`` mapping each scheme's metrics carry (schema
    version 3+).  Reason columns are ordered by total count descending so the
    dominant failure mode reads first; schemes without any recorded reasons
    (all payments completed, or pre-reason rows) are omitted.
    """
    totals: Dict[str, Dict[str, int]] = {}
    failed: Dict[str, int] = {}
    for row in result_rows:
        for scheme, scheme_metrics in row.get("metrics", {}).items():
            reasons = scheme_metrics.get("failure_reasons")
            if not isinstance(reasons, dict):
                continue
            bucket = totals.setdefault(scheme, {})
            for reason, count in reasons.items():
                bucket[reason] = bucket.get(reason, 0) + int(count)
            failed[scheme] = failed.get(scheme, 0) + int(scheme_metrics.get("failed_count", 0))
    if not totals:
        return []
    reason_totals: Dict[str, int] = {}
    for bucket in totals.values():
        for reason, count in bucket.items():
            reason_totals[reason] = reason_totals.get(reason, 0) + count
    ordered_reasons = sorted(reason_totals, key=lambda reason: (-reason_totals[reason], reason))
    return [
        {
            "scheme": scheme,
            "failed": failed.get(scheme, 0),
            **{reason: bucket.get(reason, 0) for reason in ordered_reasons},
        }
        for scheme, bucket in totals.items()
    ]


def failure_table(result_rows: Sequence[Dict[str, object]]) -> str:
    """Render the per-scheme failure-reason breakdown as an ASCII table."""
    rows = failure_breakdown_rows(result_rows)
    if not rows:
        return "(no failure reasons recorded)"
    return format_table(rows)


def fig9_table(rows: Sequence[Dict[str, object]], methods: Sequence[str]) -> str:
    """A figure-9-shaped table: one line per omega, one column group per method.

    Per method: mean balance cost and mean hub count over the seeds.  Every
    non-reference method also gets a ``gap%`` column against the first
    method in ``methods`` (at small scale that is the optimum, reproducing
    figure 9(a)'s model-vs-optimal comparison).
    """
    by_cell: Dict[Tuple[float, str], List[Dict[str, object]]] = {}
    omegas: List[float] = []
    for row in rows:
        omega = float(row["omega"])
        if omega not in omegas:
            omegas.append(omega)
        by_cell.setdefault((omega, str(row["method"])), []).append(row)
    omegas.sort()

    def mean(cell_rows: List[Dict[str, object]], field_name: str) -> float:
        return sum(float(r[field_name]) for r in cell_rows) / len(cell_rows)

    reference = methods[0] if methods else None
    table_rows: List[Dict[str, object]] = []
    for omega in omegas:
        line: Dict[str, object] = {"omega": omega}
        reference_cost: Optional[float] = None
        for method in methods:
            cell = by_cell.get((omega, method))
            if not cell:
                continue
            cost = mean(cell, "balance_cost")
            line[f"{method}_cost"] = round(cost, 4)
            line[f"{method}_hubs"] = round(mean(cell, "hub_count"), 2)
            if method == reference:
                reference_cost = cost
            elif reference_cost is not None:
                if reference_cost > 0:
                    gap = 100.0 * (cost - reference_cost) / reference_cost
                else:
                    # A zero-cost reference: any non-zero model cost is an
                    # infinite relative gap, shown explicitly rather than
                    # silently dropping the column.
                    gap = 0.0 if cost == 0 else float("inf")
                line[f"{method}_gap%"] = round(gap, 2) if gap != float("inf") else gap
        table_rows.append(line)
    return format_table(table_rows)


def to_csv(rows: Sequence[Dict[str, object]], columns: Optional[Sequence[str]] = None) -> str:
    """Render dictionaries as CSV text."""
    if not rows:
        return ""
    column_names = list(columns) if columns is not None else list(rows[0].keys())
    buffer = io.StringIO()
    buffer.write(",".join(column_names) + "\n")
    for row in rows:
        buffer.write(",".join(str(row.get(column, "")) for column in column_names) + "\n")
    return buffer.getvalue()
