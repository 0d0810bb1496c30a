"""Generic parallel grid execution with resumable JSONL results files.

This is the worker infrastructure behind both the scenario runner
(:mod:`repro.scenarios.runner`) and the placement comparison pipeline
(:mod:`repro.placement.compare`).  A *grid runner* owns a results file of
one JSON object per line; every grid entry has a stable ``run_key``; running
the grid executes only the keys not yet present in the file (resume), fans
the work over supervised worker processes, and appends rows in completion
order with a flush per row so an interrupted sweep loses at most the row
being written.

Subclasses provide three things:

* :meth:`JsonlGridRunner.results_name` -- the results file stem,
* :meth:`JsonlGridRunner.expected_keys` -- every run key of the full grid,
* :meth:`JsonlGridRunner.pending_tasks` -- picklable task payloads for the
  keys still missing, executed by the module-level function returned by
  :meth:`JsonlGridRunner.executor` (module-level so it pickles into worker
  processes).

Executed tasks must return a JSON-safe row dict carrying ``run_key`` and
``schema_version``; rows with a foreign schema version are ignored on load
so stale files never mask new work.

Resilience contract (the failure-survival layer):

* a shard that raises, times out, gets killed or returns a corrupt row
  never aborts the sweep: the failure is captured as a structured *failure
  row* (``status="failed"`` plus error class, message and traceback
  digest) appended to the results file, and the shard is retried with
  deterministic capped exponential backoff (``on_error="retry"``, the
  default), skipped (``"skip"``), or the sweep stops after recording the
  row (``"fail"``, ``--on-shard-error=fail``);
* failure rows never count as completed: resume re-runs them, and a later
  success row supersedes them in every report;
* a configuration error is not a shard fault: a ``ValueError``,
  ``TypeError`` or ``KeyError`` that a retry reproduces with the same
  traceback digest stops the sweep with :class:`ShardFailure`
  (``deterministic=True``; the CLI exits 2) and is never quarantined --
  fixing the command must not also require clearing a quarantine;
* a shard that exhausts its retries is written to a *quarantine file*
  (``<results>.quarantine.jsonl``) and skipped on subsequent resumes with
  a visible warning, so one poisoned shard cannot wedge a sweep forever
  (``python -m repro doctor --clear-quarantine`` lifts the quarantine);
* shards run on a supervised persistent pool: at most ``workers``
  long-lived processes, forked on first need, each serving one shard
  attempt at a time over its own pipe while the parent sleeps until a
  pipe, a process sentinel, a shard deadline or a retry backoff wakes it.
  A worker that dies (OOM kill, segfault, ``kill -9``) or overruns
  ``shard_timeout`` is killed and replaced on the next dispatch, and only
  the shard it was running gets the failure row; an exception or a corrupt
  row leaves the worker alive.  Reuse is safe because a shard's row is a
  function of its task alone -- the serial path already runs every shard
  back to back in one process and yields the same rows;
* SIGINT/SIGTERM stop the sweep gracefully: in-flight shards are killed,
  the results file is left newline-clean, cleanup (shared-memory blocks,
  signal handlers) runs, and :class:`SweepInterrupted` propagates so the
  CLI can exit with the conventional ``128 + signum`` -- a plain rerun
  resumes byte-identically;
* a deterministic :class:`~repro.scenarios.faults.FaultPlan` (constructor
  argument or the ``REPRO_FAULT_PLAN`` environment variable)
  injects exactly these failures on chosen shard attempts, which is how
  ``tests/resilience`` exercises every recovery path.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.log import get_logger
from repro.scenarios.faults import FaultDirective, FaultPlan, run_with_directive

log = get_logger("repro.sweep")

#: Bumped when a row layout changes; rows with another version are ignored
#: by resume so stale files never mask new work.  Version 2: the phased
#: workload generator changed every seed's request stream and the metric
#: dicts grew p90/p99 tail-delay keys -- pre-change rows are neither
#: comparable nor complete, so resume must re-run them.  Version 3: metric
#: dicts grew the ``failure_reasons`` per-reason breakdown (and rows may
#: carry an ``obs`` artifact digest) -- pre-change rows lack the breakdown
#: the report command aggregates, so resume must re-run them.
RESULT_SCHEMA_VERSION = 3

#: Failure kinds a shard attempt can be captured with.
FAILURE_KINDS = ("exception", "timeout", "worker-death", "corrupt-output")

#: Exception classes that mean "the configuration is wrong" once a retry has
#: failed with the identical traceback digest (see ``_handle_failure``).
DETERMINISTIC_ERRORS = ("ValueError", "TypeError", "KeyError")

#: Deterministic capped exponential backoff before a re-dispatch: failed
#: attempt ``n`` waits ``min(BACKOFF_BASE * 2**n, BACKOFF_CAP)`` seconds
#: (the slot serves other shards meanwhile).
BACKOFF_BASE = 0.5
BACKOFF_CAP = 30.0

#: Paths already warned about corrupt lines (one warning per file per
#: process; the count stays visible in every :class:`GridRunReport`).
_CORRUPT_WARNED: set = set()


class ShardFailure(RuntimeError):
    """Raised after recording a shard failure that stops the sweep.

    Either ``on_error="fail"`` asked for it, or the failure is
    ``deterministic``: a configuration error no retry can cure.
    """

    def __init__(
        self, run_key: str, kind: str, message: str, deterministic: bool = False
    ) -> None:
        super().__init__(f"shard {run_key} failed ({kind}): {message}")
        self.run_key = run_key
        self.kind = kind
        self.deterministic = deterministic


class SweepInterrupted(RuntimeError):
    """Raised after a SIGINT/SIGTERM shutdown has checkpointed cleanly."""

    def __init__(self, signum: int) -> None:
        name = signal.Signals(signum).name if signum in signal.valid_signals() else signum
        super().__init__(f"sweep interrupted by {name}; partial results are resumable")
        self.signum = signum


def read_result_rows(
    path: str, schema_version: int = RESULT_SCHEMA_VERSION
) -> Tuple[List[Dict[str, object]], int]:
    """Parse a results JSONL file; return ``(rows, corrupt_line_count)``.

    A run killed mid-write leaves at most one truncated trailing line; it is
    dropped (and its run re-executes on resume) rather than poisoning the
    whole file.  Dropped lines are *counted* and warned about once per file,
    so silent corruption (a failing disk, a concurrent writer) stays
    visible instead of quietly shrinking the sweep.  Rows with a foreign
    schema version are ignored without counting -- staleness, not damage.
    """
    rows: List[Dict[str, object]] = []
    corrupt = 0
    if not os.path.exists(path):
        return rows, corrupt
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                corrupt += 1
                continue
            if not isinstance(row, dict):
                corrupt += 1
                continue
            if row.get("schema_version") == schema_version and "run_key" in row:
                rows.append(row)
    if corrupt and path not in _CORRUPT_WARNED:
        _CORRUPT_WARNED.add(path)
        log.warning(
            f"{path}: skipped {corrupt} corrupt JSONL line(s); "
            f"the affected run(s) will re-execute on resume",
            path=path,
            corrupt_lines=corrupt,
        )
    return rows, corrupt


def load_result_rows(
    path: str, schema_version: int = RESULT_SCHEMA_VERSION
) -> List[Dict[str, object]]:
    """Parse a results JSONL file, skipping (and warning about) corrupt lines."""
    return read_result_rows(path, schema_version)[0]


def terminate_partial_line(path: str) -> None:
    """Newline-terminate a file left truncated by a mid-write crash.

    Without this, the first appended row would concatenate onto the partial
    line and both rows would be lost to the JSON parser.
    """
    if not os.path.exists(path):
        return
    with open(path, "rb+") as handle:
        handle.seek(0, os.SEEK_END)
        if handle.tell() == 0:
            return
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) != b"\n":
            handle.write(b"\n")


@dataclass
class GridRunReport:
    """What one :meth:`JsonlGridRunner.run` invocation did.

    ``rows`` holds only successful result rows, one per run key of the grid
    and in grid order (the file is in completion order and may repeat a
    key); failure rows captured this invocation land in ``failures``, keys
    skipped or newly written to the quarantine file in ``quarantined``, and
    ``retries``/``corrupt_lines`` surface how much resilience machinery
    actually fired.  ``skipped`` counts every grid key not dispatched this
    invocation -- previously completed *plus* quarantine-skipped -- so
    ``executed + skipped`` always covers the full grid when no new failure
    occurs.
    """

    name: str
    results_path: str
    executed: int
    skipped: int
    rows: List[Dict[str, object]] = field(default_factory=list)
    failures: List[Dict[str, object]] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    retries: int = 0
    corrupt_lines: int = 0

    @property
    def total(self) -> int:
        """All covered runs: executed now, previously completed, quarantined."""
        return self.executed + self.skipped


@dataclass
class _Shard:
    """One pending grid entry moving through the dispatch loop."""

    key: str
    task: object
    index: int
    attempt: int = 0
    not_before: float = 0.0
    #: Traceback digest of the previous attempt when it raised (else ``None``).
    last_digest: Optional[str] = None


@dataclass
class _Worker:
    """One pool process; ``shard`` is the attempt in flight (``None`` = idle)."""

    process: object
    conn: object
    shard: Optional[_Shard] = None
    deadline: Optional[float] = None


def _error_info(error: BaseException) -> Dict[str, object]:
    """The failure-row fields describing the exception being handled."""
    return {
        "error": type(error).__name__,
        "error_message": str(error)[:500],
        # A short stable digest of the traceback, for failure-row dedup/grep.
        "traceback_digest": hashlib.sha256(traceback.format_exc().encode()).hexdigest()[:12],
    }


def attempt(
    execute: Callable[[object], Dict[str, object]],
    task: object,
    directive: Optional[FaultDirective],
) -> Tuple[str, object]:
    """Run one shard attempt: ``("ok", payload)`` or ``("exception", info)``.

    Shared by the serial loop and the pool worker, so the two differ only
    in transport.
    """
    try:
        return "ok", run_with_directive(execute, task, directive)
    except Exception as error:  # noqa: BLE001 - captured into a failure row
        return "exception", _error_info(error)


def _pool_worker(execute: Callable[[object], Dict[str, object]], conn, inherited) -> None:
    """Pool-process entry point: serve ``(task, directive)`` requests until EOF.

    ``inherited`` holds the parent-side pipe ends a forked child received a
    copy of; they are closed first so that every worker sees EOF -- and
    exits on its own -- as soon as the parent closes its end or dies.
    SIGINT is ignored so a terminal Ctrl-C reaches only the supervising
    parent, which then stops the pool deliberately; SIGTERM gets its default
    disposition back instead of the parent's inherited graceful-stop handler.

    A shard's cyclic garbage (its network, schemes and runner) is collected
    when the shard ends, not at the next automatic full collection, which a
    long-lived worker reaches only every ~60 shards.  What the fork
    inherited is frozen first, so that a collection walks what the shards
    left (~1 ms) instead of every imported module (~30 ms), and writes to no
    page the worker still shares with the parent.
    """
    for other in inherited:
        other.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    gc.freeze()
    while True:
        try:
            task, directive = conn.recv()
        except (EOFError, OSError):
            return
        outcome = attempt(execute, task, directive)
        try:
            conn.send(outcome)
        except OSError:  # the parent is gone
            return
        except Exception as error:  # noqa: BLE001 - an unpicklable payload
            conn.send(("exception", _error_info(error)))
        gc.collect()


class JsonlGridRunner:
    """Runs a keyed task grid over a supervised worker pool, resumably.

    Resilience knobs (all keyword-only):

    Args:
        shard_timeout: Wall-clock seconds one shard attempt may run before
            its worker is killed and the attempt counts as failed
            (``None``/``0`` disables; enforced only on the multi-worker
            pool path).
        max_retries: Failed-shard re-dispatch budget under
            ``on_error="retry"``.
        on_error: ``"retry"`` (default) retries then quarantines,
            ``"skip"`` records the failure row and moves on, ``"fail"``
            records the failure row and raises :class:`ShardFailure`.
        fault_plan: Deterministic fault injection for tests/CI; when
            ``None`` the ``REPRO_FAULT_PLAN`` environment variable is
            consulted at run start.
    """

    #: Schema version stamped on and required of every row.
    schema_version = RESULT_SCHEMA_VERSION

    def __init__(
        self,
        results_dir: str,
        workers: int = 1,
        *,
        shard_timeout: Optional[float] = None,
        max_retries: int = 1,
        on_error: str = "retry",
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if on_error not in ("fail", "skip", "retry"):
            raise ValueError(
                f"on_error must be 'fail', 'skip' or 'retry', got {on_error!r}"
            )
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.results_dir = results_dir
        self.workers = workers
        self.shard_timeout = shard_timeout if shard_timeout else None
        self.max_retries = max_retries
        self.on_error = on_error
        self.fault_plan = fault_plan
        self._stop_signal: Optional[int] = None
        self._wake: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------ #
    # the grid contract (subclass responsibilities)
    # ------------------------------------------------------------------ #
    @property
    def results_name(self) -> str:
        """Stem of the results file inside ``results_dir``."""
        raise NotImplementedError

    def expected_keys(self) -> List[str]:
        """Run keys of the full grid, in grid order."""
        raise NotImplementedError

    def pending_tasks(self) -> List[object]:
        """Picklable payloads of the grid entries missing from the results file."""
        raise NotImplementedError

    def executor(self) -> Callable[[object], Dict[str, object]]:
        """The module-level task function (must pickle into worker processes)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # shared machinery
    # ------------------------------------------------------------------ #
    @property
    def results_path(self) -> str:
        """The grid's JSONL results file."""
        return os.path.join(self.results_dir, f"{self.results_name}.jsonl")

    @property
    def quarantine_path(self) -> str:
        """The grid's quarantine file (persistently-failing run keys)."""
        return os.path.join(self.results_dir, f"{self.results_name}.quarantine.jsonl")

    def completed_keys(self) -> set:
        """Run keys already *successfully* completed in the results file.

        Failure rows (``status="failed"``) never count: resume re-runs the
        shard unless the quarantine file says otherwise.
        """
        return {
            row["run_key"]
            for row in load_result_rows(self.results_path, self.schema_version)
            if row.get("status") != "failed"
        }

    def quarantined_keys(self) -> Dict[str, Dict[str, object]]:
        """Quarantine entries keyed by run key (empty when no file exists)."""
        entries: Dict[str, Dict[str, object]] = {}
        if not os.path.exists(self.quarantine_path):
            return entries
        with open(self.quarantine_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(entry, dict) and "run_key" in entry:
                    entries[str(entry["run_key"])] = entry
        return entries

    def pending_entries(self) -> List[Tuple[str, object]]:
        """``(run_key, task)`` pairs of the pending grid entries, in grid order.

        One entry per run key: a grid that lists a value twice (``--seeds
        1,1``) names the same run -- the same task -- twice, and a run
        executes once.
        """
        done = self.completed_keys()
        keys = [key for key in self.expected_keys() if key not in done]
        tasks = self.pending_tasks()
        if len(keys) != len(tasks):
            raise RuntimeError(
                f"grid contract violation: {len(keys)} pending key(s) but "
                f"{len(tasks)} pending task(s) for {self.results_name!r}"
            )
        return list(dict(zip(keys, tasks)).items())

    # ------------------------------------------------------------------ #
    # failure capture
    # ------------------------------------------------------------------ #
    def _failure_row(
        self,
        key: str,
        kind: str,
        attempt: int,
        final: bool,
        info: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """The structured failure row recorded for one failed shard attempt."""
        info = info or {}
        return {
            "schema_version": self.schema_version,
            "run_key": key,
            "status": "failed",
            "failure": kind,
            "error": str(info.get("error", "")),
            "error_message": str(info.get("error_message", ""))[:500],
            "traceback_digest": str(info.get("traceback_digest", "")),
            "attempt": attempt,
            "final": final,
        }

    def _quarantine(self, row: Dict[str, object]) -> None:
        """Append one permanently-failed run key to the quarantine file."""
        entry = {
            "run_key": row["run_key"],
            "failure": row["failure"],
            "error": row["error"],
            "error_message": row["error_message"],
            "attempts": int(row["attempt"]) + 1,
        }
        os.makedirs(self.results_dir, exist_ok=True)
        with open(self.quarantine_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
        log.warning(
            f"quarantined {row['run_key']} after {entry['attempts']} attempt(s) "
            f"({row['failure']} {row['error']}); resume will skip it -- "
            f"clear with `python -m repro doctor --results-dir {self.results_dir} "
            f"--clear-quarantine`",
            run_key=row["run_key"],
            failure=row["failure"],
        )

    def _failure(
        self, key: str, status: str, payload: object
    ) -> Optional[Tuple[str, Dict[str, object]]]:
        """``(kind, info)`` of a failed attempt; ``None`` for the shard's valid row."""
        if status != "ok":
            return status, payload  # type: ignore[return-value]
        if (
            isinstance(payload, dict)
            and payload.get("run_key") == key
            and payload.get("schema_version") == self.schema_version
        ):
            return None
        return "corrupt-output", {
            "error": "CorruptRow",
            "error_message": f"executor returned {type(payload).__name__}, "
            f"not the row of {key}",
        }

    # ------------------------------------------------------------------ #
    # signal handling
    # ------------------------------------------------------------------ #
    def _install_signal_handlers(self) -> Dict[int, object]:
        """Route SIGINT/SIGTERM to a graceful-stop flag (main thread only).

        A second signal while already stopping restores the default
        disposition and re-raises, so a wedged shutdown can still be
        forced from the terminal.  The handler also writes to a self-pipe
        the pool loop waits on, so a blocked wait notices the stop at once.
        """
        if threading.current_thread() is not threading.main_thread():
            return {}
        self._wake = os.pipe()

        def handler(signum, frame):  # pragma: no cover - async delivery
            if self._stop_signal is not None:
                signal.signal(signum, signal.SIG_DFL)
                os.kill(os.getpid(), signum)
                return
            self._stop_signal = signum
            os.write(self._wake[1], b"\0")

        previous: Dict[int, object] = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover - exotic platforms
                pass
        return previous

    def _restore_signal_handlers(self, previous: Dict[int, object]) -> None:
        """Put the pre-run signal dispositions back and drop the self-pipe."""
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except (ValueError, OSError, TypeError):  # pragma: no cover
                pass
        if self._wake is not None:
            for fd in self._wake:
                os.close(fd)
            self._wake = None

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def run(
        self, on_row: Optional[Callable[[Dict[str, object]], None]] = None
    ) -> GridRunReport:
        """Execute every pending run and append its row to the results file.

        Args:
            on_row: Optional progress callback invoked with each fresh row.

        Raises:
            ShardFailure: Under ``on_error="fail"`` once a shard fails, and
                under any policy for a deterministic configuration error.
            SweepInterrupted: After a graceful SIGINT/SIGTERM shutdown.
        """
        entries = self.pending_entries()
        expected = list(dict.fromkeys(self.expected_keys()))
        execute = self.executor()
        plan = self.fault_plan or FaultPlan.from_env()
        os.makedirs(self.results_dir, exist_ok=True)

        quarantine = self.quarantined_keys()
        blocked = [key for key, _task in entries if key in quarantine]
        if blocked:
            entries = [(key, task) for key, task in entries if key not in quarantine]
            log.warning(
                f"{self.results_name}: skipping {len(blocked)} quarantined run(s) "
                f"(see {self.quarantine_path})",
                quarantined=len(blocked),
            )
        # Counted after the quarantine filter so quarantine-skipped keys
        # land in ``skipped`` and ``executed + skipped`` covers the grid.
        skipped = len(expected) - len(entries)

        fresh_rows: List[Dict[str, object]] = []
        failures: List[Dict[str, object]] = []
        retries = 0
        self._stop_signal = None
        previous_handlers = self._install_signal_handlers()
        try:
            if entries:
                terminate_partial_line(self.results_path)
                with open(self.results_path, "a", encoding="utf-8") as handle:

                    def record(row: Dict[str, object]) -> None:
                        handle.write(json.dumps(row, sort_keys=True, default=str) + "\n")
                        handle.flush()
                        fresh_rows.append(row)
                        if on_row is not None:
                            on_row(row)

                    def record_failure(row: Dict[str, object]) -> None:
                        handle.write(json.dumps(row, sort_keys=True, default=str) + "\n")
                        handle.flush()
                        failures.append(row)

                    shards = [
                        _Shard(key=key, task=task, index=index)
                        for index, (key, task) in enumerate(entries)
                    ]
                    if self.workers <= 1:
                        retries = self._run_serial(
                            shards, execute, plan, record, record_failure
                        )
                    else:
                        retries = self._run_pool(
                            shards, self.workers, execute, plan, record, record_failure
                        )
        finally:
            self._restore_signal_handlers(previous_handlers)
        if self._stop_signal is not None:
            raise SweepInterrupted(self._stop_signal)

        # Report only this grid's rows, one per run key and in grid order
        # whatever order the shards finished in: the file may also hold rows
        # of the same name run with other parameters (different
        # fingerprints), which must not leak into the aggregate, and several
        # rows of one key (the last one counts).  Failure rows never make it
        # into ``rows``: a failed shard either has a fresher success row or
        # is reported through ``failures``/``quarantined``.
        all_rows, corrupt_lines = read_result_rows(self.results_path, self.schema_version)
        latest = {
            row["run_key"]: row for row in all_rows if row.get("status") != "failed"
        }
        quarantined = sorted(set(self.quarantined_keys()).intersection(expected))
        return GridRunReport(
            name=self.results_name,
            results_path=self.results_path,
            executed=len(fresh_rows),
            skipped=skipped,
            rows=[latest[key] for key in expected if key in latest],
            failures=failures,
            quarantined=quarantined,
            retries=retries,
            corrupt_lines=corrupt_lines,
        )

    # ------------------------------------------------------------------ #
    # serial path (workers == 1): in-process, retries but no supervision
    # ------------------------------------------------------------------ #
    def _run_serial(
        self,
        shards: List[_Shard],
        execute: Callable[[object], Dict[str, object]],
        plan: Optional[FaultPlan],
        record: Callable[[Dict[str, object]], None],
        record_failure: Callable[[Dict[str, object]], None],
    ) -> int:
        """Execute shards in-process; exceptions and corrupt rows are captured.

        Hang/kill faults act on the runner process itself here -- timeout
        supervision and death detection need the multi-worker path.  Like
        :func:`_pool_worker`, the loop collects each shard's cyclic garbage
        when the shard ends, over a frozen heap, so it does not sit under
        the next shard's peak.
        """
        retries = 0
        gc.freeze()
        try:
            for shard in shards:
                while True:
                    if self._stop_signal is not None:
                        return retries
                    directive = plan.directive_for(shard.index, shard.attempt) if plan else None
                    status, payload = attempt(execute, shard.task, directive)
                    failure = self._failure(shard.key, status, payload)
                    if failure is None:
                        record(payload)  # type: ignore[arg-type]
                        break
                    if not self._handle_failure(shard, *failure, record_failure):
                        break
                    retries += 1
                    time.sleep(self._backoff(shard.attempt - 1))
                gc.collect()
        finally:
            gc.unfreeze()
        return retries

    # ------------------------------------------------------------------ #
    # pool path (workers > 1): persistent supervised worker processes
    # ------------------------------------------------------------------ #
    def _run_pool(
        self,
        shards: List[_Shard],
        worker_count: int,
        execute: Callable[[object], Dict[str, object]],
        plan: Optional[FaultPlan],
        record: Callable[[Dict[str, object]], None],
        record_failure: Callable[[Dict[str, object]], None],
    ) -> int:
        """Supervised dispatch over at most ``worker_count`` reused workers.

        The loop hands eligible shards to idle workers (forking one while
        under the cap), then blocks until something can have changed: a
        busy worker's pipe or sentinel fires, the nearest shard deadline or
        retry ``not_before`` passes, or a stop signal hits the self-pipe.
        A dead or overdue worker is killed and dropped -- the next dispatch
        forks its replacement -- and its shard alone takes the failure.
        """
        ctx = multiprocessing.get_context()
        pending = deque(shards)
        pool: List[_Worker] = []
        retries = 0
        try:
            while pending or any(worker.shard for worker in pool):
                self._dispatch(pending, pool, worker_count, ctx, execute, plan)
                busy = [worker for worker in pool if worker.shard is not None]
                wakeups = [worker.deadline for worker in busy if worker.deadline]
                if len(busy) < worker_count:
                    wakeups += [shard.not_before for shard in pending]
                ready = connection.wait(
                    [worker.conn for worker in busy]
                    + [worker.process.sentinel for worker in busy]
                    + ([self._wake[0]] if self._wake else []),
                    max(0.0, min(wakeups) - time.monotonic()) if wakeups else None,
                )
                if self._stop_signal is not None:
                    break
                now = time.monotonic()
                for worker in busy:
                    if worker.conn in ready or worker.process.sentinel in ready:
                        status, payload = self._collect(worker)
                    elif worker.deadline and now >= worker.deadline:
                        status, payload = "timeout", {
                            "error": "ShardTimeout",
                            "error_message": f"no result within {self.shard_timeout}s; "
                            f"worker killed",
                        }
                    else:
                        continue
                    shard, worker.shard = worker.shard, None
                    if status in ("timeout", "worker-death"):
                        pool.remove(worker)
                        self._retire(worker, kill=True)
                    failure = self._failure(shard.key, status, payload)
                    if failure is None:
                        record(payload)  # type: ignore[arg-type]
                    elif self._handle_failure(shard, *failure, record_failure):
                        retries += 1
                        shard.not_before = time.monotonic() + self._backoff(
                            shard.attempt - 1
                        )
                        pending.append(shard)
        finally:
            for worker in pool:
                self._retire(worker, kill=worker.shard is not None)
        return retries

    def _dispatch(
        self,
        pending: deque,
        pool: List[_Worker],
        worker_count: int,
        ctx,
        execute: Callable[[object], Dict[str, object]],
        plan: Optional[FaultPlan],
    ) -> None:
        """Send eligible pending shards to idle workers, forking up to the cap."""
        now = time.monotonic()
        for _ in range(len(pending)):
            worker = next((worker for worker in pool if worker.shard is None), None)
            if worker is None and len(pool) >= worker_count:
                return
            shard = pending.popleft()
            if shard.not_before > now:
                pending.append(shard)
                continue
            if worker is None:
                parent_end, child_end = ctx.Pipe()
                inherited = [parent_end] + [other.conn for other in pool]
                process = ctx.Process(
                    target=_pool_worker, args=(execute, child_end, inherited), daemon=True
                )
                process.start()
                child_end.close()
                worker = _Worker(process, parent_end)
                pool.append(worker)
            worker.shard = shard
            worker.deadline = (
                time.monotonic() + self.shard_timeout if self.shard_timeout else None
            )
            directive = plan.directive_for(shard.index, shard.attempt) if plan else None
            try:
                worker.conn.send((shard.task, directive))
            except OSError:
                # The worker died while idle; its sentinel ends the next wait
                # and the shard is retried like any other worker death.
                pass

    @staticmethod
    def _collect(worker: _Worker) -> Tuple[str, object]:
        """A signalled worker's message, or the ``worker-death`` standing in for it."""
        try:
            if worker.conn.poll(0):
                return worker.conn.recv()
        except (EOFError, OSError):
            pass
        worker.process.join(timeout=5.0)
        return "worker-death", {
            "error": "WorkerDied",
            "error_message": f"worker exited with code {worker.process.exitcode} "
            f"before returning a row",
        }

    @staticmethod
    def _retire(worker: _Worker, kill: bool) -> None:
        """Close a worker's pipe (an idle one exits on the EOF), kill, join."""
        worker.conn.close()
        if kill:
            worker.process.kill()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - missed the EOF
            worker.process.kill()
            worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - unkillable worker
            log.warning(f"worker pid {worker.process.pid} survived SIGKILL join")
        else:
            worker.process.close()

    # ------------------------------------------------------------------ #
    # failure policy
    # ------------------------------------------------------------------ #
    def _backoff(self, failed_attempt: int) -> float:
        """Deterministic capped exponential backoff before a re-dispatch."""
        return min(BACKOFF_BASE * (2**failed_attempt), BACKOFF_CAP)

    def _handle_failure(
        self,
        shard: _Shard,
        kind: str,
        info: Dict[str, object],
        record_failure: Callable[[Dict[str, object]], None],
    ) -> bool:
        """Record one failed attempt; return ``True`` when it should retry.

        Every failed attempt leaves a structured failure row.  Under
        ``retry`` the shard is re-dispatched until ``max_retries`` is
        exhausted, then quarantined; ``skip`` moves on immediately (the
        shard re-runs on a future resume); ``fail`` raises.

        One rule overrides the policy: an exception of a
        :data:`DETERMINISTIC_ERRORS` class whose traceback digest equals the
        shard's previous attempt's is a configuration error, not a fault --
        the same input failed the same way twice.  It raises like ``fail``
        and is never quarantined.  Without a second attempt to compare
        (``max_retries=0``, ``skip``) nothing is classified.
        """
        digest = info.get("traceback_digest") if kind == "exception" else None
        deterministic = (
            digest is not None
            and digest == shard.last_digest
            and info.get("error") in DETERMINISTIC_ERRORS
        )
        shard.last_digest = digest
        will_retry = (
            not deterministic
            and self.on_error == "retry"
            and shard.attempt < self.max_retries
        )
        row = self._failure_row(
            shard.key, kind, shard.attempt, final=not will_retry, info=info
        )
        record_failure(row)
        if will_retry:
            shard.attempt += 1
            log.warning(
                f"shard {shard.key} failed ({kind} {row['error']}); "
                f"retry {shard.attempt}/{self.max_retries} "
                f"after {self._backoff(shard.attempt - 1):.1f}s backoff",
                run_key=shard.key,
                failure=kind,
                attempt=shard.attempt,
            )
            return True
        if deterministic or self.on_error == "fail":
            raise ShardFailure(
                shard.key, kind, str(row["error_message"]), deterministic=deterministic
            )
        if self.on_error == "retry":
            self._quarantine(row)
        else:
            log.warning(
                f"shard {shard.key} failed ({kind} {row['error']}); skipped "
                f"(on_error=skip; a future resume will re-run it)",
                run_key=shard.key,
                failure=kind,
            )
        return False
