"""Ripple-style payment-trace pipeline: clean, canonicalize, replay.

Three stages, mirroring how real trace studies are run:

1. **Clean** (:func:`clean_rows` / :func:`clean_trace`): raw CSV rows are
   validated and filtered -- malformed rows, duplicate payment ids,
   zero/negative amounts and self-payments are dropped (each counted in a
   :class:`CleanReport`), out-of-order timestamps are stable-sorted, and
   times are normalized to start at zero.
2. **Canonicalize** (:func:`write_canonical` / :func:`read_canonical`): the
   cleaned trace becomes four aligned NumPy arrays (times, values, sender
   and recipient account indices) plus the account table, written as an
   ``.npz`` with *deterministic bytes* (fixed zip timestamps, sorted
   members) and a SHA-256 content fingerprint stored in a JSON sidecar --
   so re-running ``data clean`` on the same input yields byte-identical
   output, and runs can pin the exact trace they consumed.
3. **Replay** (:func:`trace_workload`): the canonical arrays are mapped
   onto a network (most-active account -> best-connected node by default)
   and turned into a :class:`~repro.simulator.workload.StreamingWorkload`
   that yields request chunks straight from the arrays -- the same
   chunked-array streaming idea as the PR 5 arrival-time backbone -- so the
   experiment runner's epoch-batched drain never sees the whole trace as
   Python objects.

Replay is deterministic for the default ``mapping="activity"``; the
``mapping="random"`` variant derives its permutation from the run seed via
:func:`~repro.scenarios.spec.derive_seed`, so it is reproducible per seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import zipfile
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.fixtures import fixture_path
from repro.data.sources import last_parse, workload_source
from repro.simulator.workload import (
    StreamingWorkload,
    TransactionRequest,
    WorkloadConfig,
)
from repro.topology.network import PCNetwork

__all__ = [
    "DEFAULT_TRACE_FIXTURE",
    "CanonicalTrace",
    "CleanReport",
    "clean_rows",
    "clean_trace",
    "load_trace",
    "read_canonical",
    "trace_info",
    "trace_workload",
    "write_canonical",
]

DEFAULT_TRACE_FIXTURE = "ripple_small.csv"

#: Version tag mixed into the content fingerprint and sidecar metadata.
_CANONICAL_FORMAT = "repro-ripple-trace"
_CANONICAL_VERSION = 1

#: Accepted (case-insensitive) CSV header spellings, in priority order.
_COLUMN_ALIASES: Dict[str, Tuple[str, ...]] = {
    "payment_id": ("payment_id", "id", "tx", "tx_hash", "hash"),
    "timestamp": ("timestamp", "time", "executed_time", "close_time"),
    "sender": ("sender", "from", "source", "src"),
    "recipient": ("recipient", "receiver", "to", "target", "dst"),
    "value": ("value", "amount", "delivered_amount", "usd_amount"),
}

#: Default chunk size for streaming replay, matching the PR 5 arrival-time
#: streaming backbone's granularity.
_REPLAY_CHUNK = 1024


@dataclass
class CleanReport:
    """What the cleaner kept and why it dropped the rest."""

    rows_total: int = 0
    kept: int = 0
    dropped_malformed: int = 0
    dropped_duplicate_id: int = 0
    dropped_nonpositive: int = 0
    dropped_self_payment: int = 0
    reordered: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for sidecars, manifests and the CLI."""
        return {
            "rows_total": self.rows_total,
            "kept": self.kept,
            "dropped_malformed": self.dropped_malformed,
            "dropped_duplicate_id": self.dropped_duplicate_id,
            "dropped_nonpositive": self.dropped_nonpositive,
            "dropped_self_payment": self.dropped_self_payment,
            "reordered": self.reordered,
        }


@dataclass
class CanonicalTrace:
    """A cleaned trace as aligned arrays plus its content fingerprint.

    ``times`` are seconds from the first payment (sorted, starting at 0);
    ``senders``/``recipients`` index into ``accounts``.
    """

    times: np.ndarray
    values: np.ndarray
    senders: np.ndarray
    recipients: np.ndarray
    accounts: List[str]
    fingerprint: str = ""

    def __post_init__(self) -> None:
        if not self.fingerprint:
            self.fingerprint = _trace_fingerprint(self)

    @property
    def count(self) -> int:
        """Number of payments."""
        return int(self.times.shape[0])

    @property
    def duration(self) -> float:
        """Span of the (zero-based) timestamps in seconds."""
        return float(self.times[-1]) if self.count else 0.0

    @property
    def total_value(self) -> float:
        """Sum of all payment values."""
        return float(self.values.sum()) if self.count else 0.0


def _trace_fingerprint(trace: CanonicalTrace) -> str:
    """SHA-256 over the canonical arrays and account table."""
    digest = hashlib.sha256()
    digest.update(f"{_CANONICAL_FORMAT}-v{_CANONICAL_VERSION}".encode())
    digest.update("\x00".join(trace.accounts).encode("utf-8"))
    for array in (trace.times, trace.values, trace.senders, trace.recipients):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _resolve_columns(fieldnames: Sequence[str]) -> Dict[str, Optional[str]]:
    lowered = {name.strip().lower(): name for name in fieldnames if name}
    columns: Dict[str, Optional[str]] = {}
    for canonical, aliases in _COLUMN_ALIASES.items():
        columns[canonical] = next(
            (lowered[alias] for alias in aliases if alias in lowered), None
        )
    missing = [
        canonical
        for canonical in ("timestamp", "sender", "recipient", "value")
        if columns[canonical] is None
    ]
    if missing:
        raise ValueError(
            f"trace CSV is missing required column(s) {missing}; "
            f"header was {list(fieldnames)}"
        )
    return columns


def _parse_number(raw: object) -> Optional[float]:
    if raw is None:
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError):
        return None
    if not np.isfinite(value):
        return None
    return value


def clean_rows(
    rows: Iterable[Dict[str, object]], columns: Dict[str, Optional[str]]
) -> Tuple[CanonicalTrace, CleanReport]:
    """Clean parsed CSV rows into a :class:`CanonicalTrace` plus report.

    Cleaning semantics (in order, per row): rows with missing fields or
    non-numeric timestamp/value are *malformed*; a payment id already seen
    is a *duplicate* (first occurrence wins); values ``<= 0`` are
    *nonpositive*; ``sender == recipient`` is a *self payment*.  Surviving
    rows are stable-sorted by timestamp (so equal-time payments keep file
    order), and timestamps are shifted to start at zero.
    """
    report = CleanReport()
    seen_ids: set = set()
    times: List[float] = []
    values: List[float] = []
    senders: List[str] = []
    recipients: List[str] = []

    id_column = columns.get("payment_id")
    for row in rows:
        report.rows_total += 1
        timestamp = _parse_number(row.get(columns["timestamp"]))
        value = _parse_number(row.get(columns["value"]))
        sender = row.get(columns["sender"])
        recipient = row.get(columns["recipient"])
        sender = str(sender).strip() if sender is not None else ""
        recipient = str(recipient).strip() if recipient is not None else ""
        if timestamp is None or value is None or not sender or not recipient:
            report.dropped_malformed += 1
            continue
        if id_column is not None:
            payment_id = str(row.get(id_column) or "").strip()
            if payment_id:
                if payment_id in seen_ids:
                    report.dropped_duplicate_id += 1
                    continue
                seen_ids.add(payment_id)
        if value <= 0:
            report.dropped_nonpositive += 1
            continue
        if sender == recipient:
            report.dropped_self_payment += 1
            continue
        times.append(timestamp)
        values.append(value)
        senders.append(sender)
        recipients.append(recipient)

    report.kept = len(times)
    time_array = np.asarray(times, dtype=np.float64)
    order = np.argsort(time_array, kind="stable")
    report.reordered = int((order != np.arange(order.size)).sum())
    time_array = time_array[order]
    if time_array.size:
        time_array = time_array - time_array[0]
    value_array = np.asarray(values, dtype=np.float64)[order]

    accounts = sorted(set(senders) | set(recipients))
    index = {account: i for i, account in enumerate(accounts)}
    sender_array = np.asarray([index[s] for s in senders], dtype=np.int64)[order]
    recipient_array = np.asarray([index[r] for r in recipients], dtype=np.int64)[order]

    trace = CanonicalTrace(
        times=time_array,
        values=value_array,
        senders=sender_array,
        recipients=recipient_array,
        accounts=accounts,
    )
    return trace, report


def _read_raw_csv(path: str) -> Tuple[CanonicalTrace, CleanReport]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError(f"trace CSV {path!r} is empty")
        columns = _resolve_columns(reader.fieldnames)
        return clean_rows(reader, columns)


def _sidecar_path(path: str) -> str:
    base, _ = os.path.splitext(path)
    return base + ".json"


def write_canonical(
    trace: CanonicalTrace, path: str, report: Optional[CleanReport] = None
) -> str:
    """Write a canonical ``.npz`` (+ JSON sidecar) with deterministic bytes.

    ``np.savez`` embeds wall-clock timestamps in the zip members, so it is
    *not* byte-stable across runs; this writer fixes every member's
    timestamp to the zip epoch and orders members by name, making repeated
    cleans of the same input byte-identical -- which is what lets the
    sidecar fingerprint stand in for the file in run manifests.

    Returns the sidecar path.
    """
    arrays = {
        "times": np.ascontiguousarray(trace.times, dtype=np.float64),
        "values": np.ascontiguousarray(trace.values, dtype=np.float64),
        "senders": np.ascontiguousarray(trace.senders, dtype=np.int64),
        "recipients": np.ascontiguousarray(trace.recipients, dtype=np.int64),
        "accounts": np.asarray(trace.accounts),
    }
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as archive:
        for name in sorted(arrays):
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, arrays[name], version=(1, 0))
            member = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            member.compress_type = zipfile.ZIP_DEFLATED
            member.external_attr = 0o644 << 16
            archive.writestr(member, buffer.getvalue())

    sidecar = _sidecar_path(path)
    meta: Dict[str, object] = {
        "format": _CANONICAL_FORMAT,
        "version": _CANONICAL_VERSION,
        "fingerprint": trace.fingerprint,
        "payments": trace.count,
        "accounts": len(trace.accounts),
        "duration": trace.duration,
        "total_value": trace.total_value,
    }
    if report is not None:
        meta["cleaning"] = report.as_dict()
    with open(sidecar, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return sidecar


def read_canonical(path: str) -> CanonicalTrace:
    """Load a canonical ``.npz``, verifying the sidecar fingerprint if present."""
    with np.load(path, allow_pickle=False) as archive:
        trace = CanonicalTrace(
            times=archive["times"],
            values=archive["values"],
            senders=archive["senders"],
            recipients=archive["recipients"],
            accounts=[str(account) for account in archive["accounts"]],
        )
    sidecar = _sidecar_path(path)
    if os.path.isfile(sidecar):
        with open(sidecar, encoding="utf-8") as handle:
            meta = json.load(handle)
        expected = meta.get("fingerprint")
        if expected and expected != trace.fingerprint:
            raise ValueError(
                f"canonical trace {path!r} does not match its sidecar "
                f"fingerprint (expected {expected}, got {trace.fingerprint}); "
                f"re-run 'python -m repro data clean'"
            )
    return trace


def clean_trace(
    source: str, dest: Optional[str] = None
) -> Tuple[CanonicalTrace, CleanReport, Optional[str]]:
    """Clean a raw CSV trace and optionally write the canonical ``.npz``.

    Returns ``(trace, report, dest)`` where ``dest`` is the written
    canonical path (or ``None`` when no destination was given).
    """
    trace, report = _read_raw_csv(source)
    if dest is not None:
        write_canonical(trace, dest, report)
    return trace, report, dest


#: The last trace file :func:`load_trace` parsed (see :func:`last_parse`).
_LOADED_TRACE: Dict[tuple, CanonicalTrace] = {}


def load_trace(path: Optional[str] = None) -> CanonicalTrace:
    """Load a trace from canonical ``.npz`` or raw CSV (cleaned in memory).

    The last file's parse is kept per process while the file is unchanged.
    Every call gets its own :class:`CanonicalTrace` and ``accounts`` list;
    the arrays are shared and read-only.
    """
    if path is None:
        path = fixture_path(DEFAULT_TRACE_FIXTURE)
    trace = last_parse(_LOADED_TRACE, path, _parse_trace)
    return replace(trace, accounts=list(trace.accounts))


def _parse_trace(path: str) -> CanonicalTrace:
    if path.endswith(".npz"):
        trace = read_canonical(path)
    else:
        trace, _ = _read_raw_csv(path)
    for array in (trace.times, trace.values, trace.senders, trace.recipients):
        array.flags.writeable = False
    return trace


def trace_info(path: Optional[str] = None) -> Dict[str, object]:
    """Summary statistics for ``python -m repro data info``."""
    if path is None:
        path = fixture_path(DEFAULT_TRACE_FIXTURE)
    if path.endswith(".npz"):
        trace = read_canonical(path)
        report = None
    else:
        trace, report = _read_raw_csv(path)
    info: Dict[str, object] = {
        "path": os.path.abspath(path),
        "format": _CANONICAL_FORMAT,
        "fingerprint": trace.fingerprint,
        "payments": trace.count,
        "accounts": len(trace.accounts),
        "duration": trace.duration,
        "total_value": trace.total_value,
    }
    if trace.count:
        info["value_min"] = float(trace.values.min())
        info["value_median"] = float(np.median(trace.values))
        info["value_max"] = float(trace.values.max())
    if report is not None:
        info["cleaning"] = report.as_dict()
    return info


def _account_activity(trace: CanonicalTrace) -> np.ndarray:
    """Payments sent + received per account index."""
    activity = np.zeros(len(trace.accounts), dtype=np.int64)
    np.add.at(activity, trace.senders, 1)
    np.add.at(activity, trace.recipients, 1)
    return activity


def _map_accounts(
    trace: CanonicalTrace,
    network: PCNetwork,
    mapping: str,
    seed: Optional[int],
) -> List[object]:
    """Assign each trace account a network node; wraps when accounts > nodes.

    ``"activity"`` (default, deterministic): the most active accounts land
    on the best-connected nodes, aligning the trace's traffic concentration
    with the graph's hub structure.  ``"random"``: a seed-derived
    permutation of nodes, cycled over accounts ranked by activity.
    """
    nodes = sorted(network.nodes(), key=str)
    if not nodes:
        raise ValueError("network has no nodes to map trace accounts onto")
    activity = _account_activity(trace)
    account_order = sorted(
        range(len(trace.accounts)),
        key=lambda i: (-int(activity[i]), trace.accounts[i]),
    )
    if mapping == "activity":
        degree = {node: len(network.neighbors(node)) for node in nodes}
        node_order = sorted(nodes, key=lambda n: (-degree[n], str(n)))
    elif mapping == "random":
        # Imported lazily: spec.py imports the source registry, which
        # imports this module, so a top-level import would be circular.
        from repro.scenarios.spec import derive_seed

        rng = np.random.default_rng(derive_seed(seed if seed is not None else 0, "trace-map"))
        node_order = [nodes[i] for i in rng.permutation(len(nodes))]
    else:
        raise ValueError(f"unknown account mapping {mapping!r}; expected 'activity' or 'random'")

    assigned: List[object] = [None] * len(trace.accounts)
    for rank, account_index in enumerate(account_order):
        assigned[account_index] = node_order[rank % len(node_order)]
    return assigned


def trace_workload(
    network: PCNetwork,
    trace: CanonicalTrace,
    *,
    seed: Optional[int] = 0,
    duration: Optional[float] = None,
    time_scale: Optional[float] = None,
    value_scale: float = 1.0,
    min_value: float = 0.0,
    max_payments: Optional[int] = None,
    mapping: str = "activity",
    chunk_size: int = _REPLAY_CHUNK,
) -> StreamingWorkload:
    """Replay a canonical trace onto a network as a streaming workload.

    Args:
        network: Target network; trace accounts are mapped onto its nodes.
        seed: Run seed (used only by ``mapping="random"``; recorded in the
            workload config either way).
        duration: Compress/stretch the trace to this many simulated
            seconds.  Mutually exclusive with ``time_scale``; if neither is
            given the trace's own (zero-based) timestamps are replayed
            as-is.
        time_scale: Multiplier on trace timestamps (``0.5`` = twice as fast).
        value_scale: Multiplier on payment values, mirroring the synthetic
            workload's transaction-size sweeps.
        min_value: Floor applied to scaled values (``0`` disables).
        max_payments: Replay only the first N payments.
        mapping: Account->node mapping strategy (see :func:`_map_accounts`).
        chunk_size: Payments per streamed chunk.

    Returns:
        A :class:`StreamingWorkload` whose chunks are built lazily from the
        trace arrays; payments that collapse onto a single node after
        mapping (when accounts outnumber nodes) are skipped and excluded
        from the up-front count/total-value statistics.
    """
    if trace.count == 0:
        raise ValueError("trace has no payments to replay")
    if duration is not None and time_scale is not None:
        raise ValueError("pass either duration or time_scale, not both")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")

    times = trace.times
    values = trace.values
    senders = trace.senders
    recipients = trace.recipients
    if max_payments is not None:
        if max_payments < 1:
            raise ValueError("max_payments must be at least 1")
        times = times[:max_payments]
        values = values[:max_payments]
        senders = senders[:max_payments]
        recipients = recipients[:max_payments]
        if times.size and times[0] != 0.0:
            times = times - times[0]

    raw_duration = float(times[-1]) if times.size else 0.0
    if duration is not None:
        if duration <= 0:
            raise ValueError("duration must be positive")
        scale = duration / raw_duration if raw_duration > 0 else 0.0
    elif time_scale is not None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        scale = float(time_scale)
    else:
        scale = 1.0
    times = times * scale if scale != 1.0 else times

    if value_scale <= 0:
        raise ValueError("value_scale must be positive")
    values = values * value_scale
    if min_value > 0:
        values = np.maximum(values, min_value)

    node_of = _map_accounts(trace, network, mapping, seed)
    sender_nodes = np.asarray([node_of[i] for i in senders], dtype=object)
    recipient_nodes = np.asarray([node_of[i] for i in recipients], dtype=object)
    keep = sender_nodes != recipient_nodes
    kept_count = int(keep.sum())
    if kept_count == 0:
        raise ValueError("every trace payment collapsed to a self-payment after mapping")
    kept_value = float(values[keep].sum())

    effective_duration = float(times[-1]) if times.size else 0.0
    config_duration = max(effective_duration, 1e-9)
    config = WorkloadConfig(
        duration=config_duration,
        arrival_rate=max(kept_count / config_duration, 1e-9),
        value_scale=value_scale,
        sender_skew=0.0,
        recipient_skew=0.0,
        deadlock_fraction=0.0,
        min_value=min_value,
        seed=seed,
    )

    def chunks() -> Iterator[List[TransactionRequest]]:
        for start in range(0, times.size, chunk_size):
            stop = min(start + chunk_size, times.size)
            chunk = [
                TransactionRequest(
                    arrival_time=float(times[i]),
                    sender=sender_nodes[i],
                    recipient=recipient_nodes[i],
                    value=float(values[i]),
                )
                for i in range(start, stop)
                if keep[i]
            ]
            if chunk:
                yield chunk

    return StreamingWorkload(
        config=config,
        count=kept_count,
        total_value=kept_value,
        chunk_factory=chunks,
    )


@workload_source(
    "ripple-trace",
    description="Ripple-style payment trace (raw CSV or canonical NPZ), streamed in chunks",
    synthetic=False,
)
def _ripple_trace_source(network, seed, params, spec):
    """Build a streaming trace replay; spec fields supply scaling defaults."""
    params = dict(params)
    path = params.pop("path", None)
    trace = load_trace(path)
    known = {
        "duration",
        "time_scale",
        "value_scale",
        "min_value",
        "max_payments",
        "mapping",
        "chunk_size",
    }
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValueError(
            f"unknown ripple-trace parameter(s) {unknown}; expected one of "
            f"{sorted(known | {'path'})}"
        )
    if "time_scale" not in params:
        params.setdefault("duration", spec.duration)
    params.setdefault("value_scale", spec.value_scale)
    params.setdefault("min_value", spec.min_value)
    return trace_workload(network, trace, seed=seed, **params)
