"""Readers and renderers behind ``python -m repro report`` / ``repro trace``.

``report`` digests a results directory produced by the ``run``/``compare``/
``place-compare`` pipelines: the run manifest (``manifest.json``), the
per-scheme result tables (the figure-9 table for placement rows), the
failure-reason breakdown, and -- when runs were traced -- a health summary
aggregated from the per-shard NPZ telemetry files.  ``trace`` filters and
pretty-prints one JSONL trace file, including a per-payment timeline view.
"""

from __future__ import annotations

import glob
import json
import os
import tempfile
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.tables import (
    failure_breakdown_rows,
    fig9_table,
    format_table,
    scenario_summary_rows,
)
from repro.obs.health import load_health
from repro.scenarios.jsonl import RESULT_SCHEMA_VERSION, load_result_rows

__all__ = [
    "MANIFEST_VERSION",
    "filter_trace_events",
    "load_manifest",
    "read_trace",
    "render_report",
    "render_timeline",
    "render_trace",
    "update_manifest",
]

MANIFEST_VERSION = 1


# ---------------------------------------------------------------------- #
# run manifest
# ---------------------------------------------------------------------- #
def _manifest_path(results_dir: str) -> str:
    return os.path.join(results_dir, "manifest.json")


def load_manifest(results_dir: str) -> Optional[Dict[str, object]]:
    """The directory's run manifest, or ``None`` when absent/unreadable."""
    path = _manifest_path(results_dir)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (json.JSONDecodeError, OSError):
        return None
    if data.get("manifest_version") != MANIFEST_VERSION:
        return None
    return data


def update_manifest(results_dir: str, entry: Dict[str, object]) -> str:
    """Merge one pipeline entry into ``<results_dir>/manifest.json``.

    Entries are keyed by ``(command, name)``: re-running a pipeline replaces
    its entry instead of appending duplicates, so the manifest always lists
    each results file once with its latest state.  The file is written via
    temp file plus atomic rename, so a runner killed mid-write can never
    leave a torn manifest behind.
    """
    os.makedirs(results_dir, exist_ok=True)
    manifest = load_manifest(results_dir) or {"manifest_version": MANIFEST_VERSION, "entries": []}
    key = (entry.get("command"), entry.get("name"))
    entries = [
        existing
        for existing in manifest.get("entries", [])
        if (existing.get("command"), existing.get("name")) != key
    ]
    entries.append(entry)
    manifest["entries"] = entries
    path = _manifest_path(results_dir)
    handle, temp_path = tempfile.mkstemp(dir=results_dir, prefix="manifest.json.tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            json.dump(manifest, stream, indent=2, sort_keys=True, default=str)
            stream.write("\n")
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    return path


# ---------------------------------------------------------------------- #
# report rendering
# ---------------------------------------------------------------------- #
def _discover_entries(results_dir: str) -> List[Dict[str, object]]:
    """Fallback when no manifest exists: every JSONL file in the directory."""
    return [
        {"command": "unknown", "name": os.path.splitext(os.path.basename(path))[0], "results": path}
        for path in sorted(glob.glob(os.path.join(results_dir, "*.jsonl")))
    ]


def _resolve(results_dir: str, path: str) -> str:
    """Manifest paths may be absolute or relative to the results directory."""
    if os.path.isabs(path) or os.path.exists(path):
        return path
    return os.path.join(results_dir, path)


def _health_summary_rows(results_dir: str, rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Aggregate per-run health NPZ files into one row per scheme."""
    aggregates: Dict[str, Dict[str, List[float]]] = {}
    probes: Dict[str, int] = {}
    for row in rows:
        obs_info = row.get("obs")
        if not isinstance(obs_info, dict) or "health" not in obs_info:
            continue
        health_path = _resolve(results_dir, str(obs_info["health"]))
        if not os.path.exists(health_path):
            continue
        for scheme, metrics in load_health(health_path).items():
            times = metrics.get("time")
            if times is None or len(times) == 0:
                continue
            bucket = aggregates.setdefault(scheme, {})
            probes[scheme] = probes.get(scheme, 0) + len(times)

            def last(name: str) -> float:
                series = metrics.get(name)
                return float(series[-1]) if series is not None and len(series) else 0.0

            bucket.setdefault("gini_last", []).append(last("gini"))
            bucket.setdefault("imbalance_last", []).append(last("imbalance_mean"))
            locked = metrics.get("locked_total")
            bucket.setdefault("locked_max", []).append(
                float(locked.max()) if locked is not None and len(locked) else 0.0
            )
            drained = metrics.get("motifs_drained")
            bucket.setdefault("motifs_drained_max", []).append(
                float(drained.max()) if drained is not None and len(drained) else 0.0
            )
            batch_mean = metrics.get("batch_mean")
            bucket.setdefault("batch_mean", []).append(
                float(batch_mean[batch_mean > 0].mean())
                if batch_mean is not None and np.any(batch_mean > 0)
                else 0.0
            )
    return [
        {
            "scheme": scheme,
            "probes": probes[scheme],
            **{metric: round(float(np.mean(values)), 4) for metric, values in bucket.items()},
        }
        for scheme, bucket in aggregates.items()
    ]


def _shard_failure_section(
    failure_rows: Sequence[Dict[str, object]],
    ok_rows: Sequence[Dict[str, object]],
) -> List[str]:
    """The ``shard failures`` report lines, or an empty list when clean.

    A failure row whose run key later gained a success row was *recovered*
    (a retry or a resume re-ran it); only unrecovered keys get table rows,
    recovered ones collapse into a single count line.
    """
    if not failure_rows:
        return []
    recovered_keys = {str(row.get("run_key")) for row in ok_rows}
    unresolved: Dict[str, Dict[str, object]] = {}
    attempts: Dict[str, int] = {}
    recovered = 0
    for row in failure_rows:
        key = str(row.get("run_key"))
        attempts[key] = attempts.get(key, 0) + 1
        if key in recovered_keys:
            recovered += 1
            continue
        unresolved[key] = row
    lines = ["", "shard failures"]
    if recovered:
        lines.append(
            f"{recovered} failed attempt(s) later recovered by retry or resume"
        )
    if unresolved:
        table_rows = [
            {
                "run_key": key if len(key) <= 60 else key[:57] + "...",
                "failure": row.get("failure", ""),
                "error": row.get("error", ""),
                "attempts": attempts[key],
                "digest": row.get("traceback_digest", ""),
            }
            for key, row in sorted(unresolved.items())
        ]
        lines.append(format_table(table_rows))
    return lines


def _in_grid_order(
    scheme_rows: List[Dict[str, object]], schemes: Sequence[str]
) -> List[Dict[str, object]]:
    """One-row-per-scheme ``scheme_rows`` in the sweep's grid order.

    The rows arrive in first-seen order of a file written in completion
    order.  A manifest that predates the ``schemes`` field (or a scheme it
    does not list) keeps that order: the sort is stable.
    """
    position = {scheme: index for index, scheme in enumerate(schemes)}
    return sorted(scheme_rows, key=lambda row: position.get(str(row["scheme"]), len(position)))


def render_report(results_dir: str) -> str:
    """The full ``repro report`` text for one results directory."""
    if not os.path.isdir(results_dir):
        raise ValueError(f"results directory {results_dir!r} does not exist")
    manifest = load_manifest(results_dir)
    entries = list(manifest.get("entries", [])) if manifest else _discover_entries(results_dir)
    if not entries:
        raise ValueError(f"no manifest.json or *.jsonl results under {results_dir!r}")

    sections: List[str] = []
    for entry in entries:
        name = str(entry.get("name", "results"))
        results_path = _resolve(results_dir, str(entry.get("results", f"{name}.jsonl")))
        schema_version = int(entry.get("schema_version", RESULT_SCHEMA_VERSION))
        all_rows = load_result_rows(results_path, schema_version)
        rows = [row for row in all_rows if row.get("status") != "failed"]
        failure_rows = [row for row in all_rows if row.get("status") == "failed"]
        title = f"{name} ({entry.get('command', 'unknown')}, {len(rows)} row(s))"
        block = [title, "=" * len(title)]
        failure_section = _shard_failure_section(failure_rows, rows)
        if failure_section:
            block.extend(failure_section)
        if not rows:
            block.append("(no rows at the current schema version)")
            sections.append("\n".join(block))
            continue
        if any("metrics" in row for row in rows):
            schemes = entry.get("schemes") or []
            block.append("")
            block.append("scheme summary")
            block.append(format_table(_in_grid_order(scenario_summary_rows(rows), schemes)))
            breakdown = _in_grid_order(failure_breakdown_rows(rows), schemes)
            if breakdown:
                block.append("")
                block.append("failure breakdown (payments per reason)")
                block.append(format_table(breakdown))
            health_rows = _in_grid_order(_health_summary_rows(results_dir, rows), schemes)
            if health_rows:
                block.append("")
                block.append("epoch health (mean over runs; last probe unless noted)")
                block.append(format_table(health_rows))
        elif all("method" in row and "omega" in row for row in rows):
            # Methods in the sweep's grid order (its first one is the gap
            # reference); a manifest that predates the field falls back to
            # the order the rows were written in.
            methods = entry.get("methods") or list(
                dict.fromkeys(str(row["method"]) for row in rows)
            )
            block.append("")
            block.append("placement summary (mean over seeds)")
            block.append(fig9_table(rows, methods))
        else:
            block.append(f"(non-scenario rows; see {results_path})")
        sections.append("\n".join(block))
    return "\n\n".join(sections)


# ---------------------------------------------------------------------- #
# trace reading / rendering
# ---------------------------------------------------------------------- #
def read_trace(path: str) -> List[Dict[str, object]]:
    """Parse a JSONL trace file (corrupt lines are skipped, like results)."""
    events: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict) and "kind" in event:
                events.append(event)
    return events


def _channel_matches(event: Dict[str, object], endpoints: Sequence[str]) -> bool:
    channel = event.get("channel")
    if not isinstance(channel, (list, tuple)) or len(channel) != 2:
        return False
    names = {str(node) for node in channel}
    return names == {str(endpoint) for endpoint in endpoints}


def filter_trace_events(
    events: Sequence[Dict[str, object]],
    payment: Optional[int] = None,
    channel: Optional[Sequence[str]] = None,
    reason: Optional[str] = None,
    kind: Optional[str] = None,
    scheme: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Apply the ``repro trace`` filters (AND semantics)."""
    out: List[Dict[str, object]] = []
    for event in events:
        if payment is not None and event.get("pid") != payment:
            continue
        if channel is not None and not _channel_matches(event, channel):
            continue
        if reason is not None and str(event.get("reason", "")) != reason:
            continue
        if kind is not None and kind not in str(event.get("kind", "")):
            continue
        if scheme is not None and str(event.get("scheme", "")) != scheme:
            continue
        out.append(event)
    return out


_TABLE_FIELDS = ("t", "kind", "scheme", "pid", "reason")


def render_trace(events: Sequence[Dict[str, object]], limit: Optional[int] = None) -> str:
    """Render trace events as an aligned table (detail fields collapsed)."""
    shown = list(events if limit is None else events[:limit])
    rows = []
    for event in shown:
        detail = ", ".join(
            f"{key}={event[key]}" for key in sorted(event) if key not in _TABLE_FIELDS
        )
        rows.append(
            {
                "t": event.get("t", ""),
                "kind": event.get("kind", ""),
                "scheme": event.get("scheme", ""),
                "pid": event.get("pid", ""),
                "reason": event.get("reason", ""),
                "detail": detail,
            }
        )
    if not rows:
        return "(no matching events)"
    table = format_table(rows, columns=["t", "kind", "scheme", "pid", "reason", "detail"])
    if limit is not None and len(events) > limit:
        table += f"\n... {len(events) - limit} more event(s); raise --limit to see them"
    return table


def render_timeline(events: Sequence[Dict[str, object]], payment: int) -> str:
    """One payment's lifecycle as a relative-time timeline."""
    mine = sorted(
        (event for event in events if event.get("pid") == payment),
        key=lambda event: (float(event.get("t", 0.0)),),
    )
    if not mine:
        return f"(no events for payment {payment})"
    arrive = next((event for event in mine if event.get("kind") == "payment.arrive"), mine[0])
    origin = float(arrive.get("t", 0.0))
    header = (
        f"payment {payment}: {arrive.get('sender', '?')} -> {arrive.get('recipient', '?')}"
        f", value {arrive.get('value', '?')}"
        + (f", scheme {arrive['scheme']}" if "scheme" in arrive else "")
    )
    lines = [header]
    for event in mine:
        offset = float(event.get("t", 0.0)) - origin
        detail = ", ".join(
            f"{key}={event[key]}"
            for key in sorted(event)
            if key not in ("t", "kind", "pid", "scheme")
        )
        kind = str(event.get("kind", "")).replace("payment.", "")
        lines.append(f"  +{offset:8.4f}s {kind:<12} {detail}".rstrip())
    return "\n".join(lines)
