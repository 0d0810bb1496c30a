"""Untraced end-to-end passes: the real CLI in a fresh subprocess, timed from outside.

Each pass runs ``python -m repro <command> ...`` with a fresh directory as
both cwd and ``--results-dir`` (cold caches: users pay set-up on every run),
times it with ``perf_counter`` and takes CPU time and peak RSS of the whole
process tree from ``os.wait4``.  Work directories live under
``.bench_work/`` in the checkout -- the benchmark writes nowhere else -- and
are removed when the run ends.

Host speed: a shared host runs the same process 10-60 % slower for minutes at
a time (not steal time: CPU time inflates with wall time), which no number of
passes averages out -- identical inputs spread by up to 37 % in ten runs.
While a process runs, :class:`HostProbe` therefore times a fixed kernel four
times a second on a thread of the benchmark, and reported *times* are divided
by the slowdown it saw (mean burst / :data:`PROBE_REFERENCE_S`).  The kernel
knows nothing of the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import ctypes
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List

import numpy as np

from bench import checks
from bench.workloads import Inputs, Workload, cli_args, make_inputs, place_methods

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

#: A pass that has not finished by then is killed and the run fails; the
#: largest workload takes ~20 s on the two-core reference host.
PASS_TIMEOUT_S = 150

#: CPU seconds one probe burst takes on the reference host when it is quiet;
#: a slowdown of 1.0 means "as fast as that".
PROBE_REFERENCE_S = 0.016
PROBE_PERIOD_S = 0.25

_EXECUTED = re.compile(r"executed (\d+) run\(s\)")


class BenchError(RuntimeError):
    """The benchmark could not measure: the program failed outright."""


@contextmanager
def work_area() -> Iterator[str]:
    """A private directory under ``.bench_work/``, removed on exit."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:  # another benchmark run still has its area there
            pass


def cli_env() -> Dict[str, str]:
    """The CLI's environment: this checkout's sources, no fault plan."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("REPRO_FAULT_PLAN", None)
    return env


# ---------------------------------------------------------------------- #
# no process outlives a run
# ---------------------------------------------------------------------- #
#: How long a helper the program left behind (its shared-memory resource
#: tracker) may take to end by itself before it is killed.
STRAGGLER_GRACE_S = 5.0

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Make this process the parent of every orphaned descendant (Linux).

    ``compare --scale xl`` starts a ``multiprocessing`` resource tracker that
    ends a moment *after* the CLI process does.  As a subreaper the benchmark
    inherits such a process instead of init, so it can wait until it is gone.
    """
    try:
        return ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _reap(selector: int, kill, grace: float = STRAGGLER_GRACE_S) -> None:
    """Wait until no child matching ``selector`` (a ``waitpid`` pid argument)
    is left; after ``grace`` seconds call ``kill()`` and wait without limit."""
    deadline = time.monotonic() + grace
    killed = False
    while True:
        try:
            pid, _status = os.waitpid(selector, 0 if killed else os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() >= deadline:
                kill()
                killed = True
            else:
                time.sleep(0.005)


def reap_group(pgid: int) -> None:
    """Wait for what is left of a finished subprocess's process group."""

    def kill() -> None:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    _reap(-pgid, kill)


def _own_children() -> List[int]:
    children: List[int] = []
    try:
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children") as handle:
                children += [int(pid) for pid in handle.read().split()]
    except OSError:
        pass
    return children


def reap_all() -> None:
    """Before the benchmark exits: end and wait for every child it still has.

    The traced pass exports a topology to shared memory in this very process,
    which starts a resource tracker of its own; it would otherwise end only
    after the benchmark did, as a child of init.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()  # closes its pipe and waits for it

    def kill() -> None:
        for pid in _own_children():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    _reap(-1, kill)


_PROBE_BIG = np.arange(300_000, dtype=float)
_PROBE_SMALL = [np.arange(60, dtype=float) + offset for offset in range(8)]


def _probe_burst() -> float:
    """CPU seconds of a fixed kernel: a quarter each of bytecode arithmetic,
    NumPy over arrays larger than the caches, many small NumPy calls, and
    dict churn -- the mixes the four workloads are made of.

    Thread CPU time, not wall time: waiting for a core the measured process
    occupies must not read as a slow host.
    """
    started = time.thread_time()
    total = 0.0
    for i in range(60_000):
        total += (i % 7) * 0.5
    np.sqrt(_PROBE_BIG * _PROBE_BIG + 1.0)
    np.sqrt(_PROBE_BIG * _PROBE_BIG + 2.0)
    for _ in range(360):
        row = _PROBE_SMALL[0]
        for other in _PROBE_SMALL:
            row = np.minimum(row, other) + 1.0
        int(np.argmax(row))
    bucket: Dict[tuple, float] = {}
    for i in range(21_000):
        key = (i % 97, i % 31)
        bucket[key] = bucket.get(key, 0.0) + 1.0
    return time.thread_time() - started


class HostProbe(threading.Thread):
    """Samples the host's speed while the measured process runs."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.bursts: List[float] = []
        self._done = threading.Event()

    def run(self) -> None:
        while True:
            self.bursts.append(_probe_burst())
            if self._done.wait(PROBE_PERIOD_S):
                return

    def finish(self) -> List[float]:
        self._done.set()
        self.join()
        return self.bursts


def slowdown(bursts: List[float]) -> float:
    """How much slower than the quiet reference host the bursts ran."""
    return statistics.fmean(bursts) / PROBE_REFERENCE_S


@dataclass
class CliRun:
    """One finished subprocess, measured from outside (times as measured)."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    output: str
    bursts: List[float]


def run_python(argv: List[str], cwd: str, timeout: float = PASS_TIMEOUT_S) -> CliRun:
    """Run ``python <argv>`` to completion; kill its process group on timeout."""
    log_path = os.path.join(cwd, "cli.log")
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, *argv],
            cwd=cwd,
            env=cli_env(),
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )

        def on_alarm(_signum, _frame) -> None:
            os.killpg(process.pid, signal.SIGKILL)

        probe = HostProbe()
        probe.start()
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            # wait4 reports the child *and* its reaped descendants (the
            # sweep's worker processes): user+sys is the tree's CPU time,
            # ru_maxrss the largest single process in it.
            _, status, usage = os.wait4(process.pid, 0)
            wall = time.perf_counter() - started
        except BaseException:
            # Interrupted (SIGTERM, Ctrl-C): leave no process behind.
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            reap_group(process.pid)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            bursts = probe.finish()
        # The session leader has ended; helpers it started may not have.
        reap_group(process.pid)
    process.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, "r", encoding="utf-8", errors="replace") as handle:
        output = handle.read()
    return CliRun(
        returncode=process.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024.0,
        output=output,
        bursts=bursts,
    )


def run_cli(args: List[str], cwd: str) -> CliRun:
    run = run_python(["-m", "repro", *args], cwd)
    if run.returncode != 0:
        raise BenchError(
            f"python -m repro {' '.join(args)} exited {run.returncode}:\n{run.output[-2000:]}"
        )
    return run


@dataclass
class PassResult:
    """One untraced pass: timings, the work it did and its output checks."""

    run: CliRun
    report: checks.CheckReport
    items: int
    generated: int
    completed: int
    workdir: str
    inputs: Inputs


def expected_shards(workload: Workload, inputs: Inputs) -> list:
    if workload.command == "compare":
        return checks.expected_compare(inputs.seeds, workload.schemes)
    return checks.expected_place(inputs.seeds, place_methods(workload), workload.omegas)


def run_pass(workload: Workload, seed: int, area: str) -> PassResult:
    """One cold pass of ``workload`` in a fresh directory under ``area``."""
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=area)
    inputs = make_inputs(workload, seed, os.path.join(workdir, "inputs"))
    run = run_cli(cli_args(workload, inputs, "results"), workdir)
    report = checks.check_results(
        os.path.join(workdir, "results"), workload.command, expected_shards(workload, inputs)
    )
    generated = completed = 0
    for row in report.rows:
        for metrics in row.get("metrics", {}).values():
            generated += int(metrics.get("generated_count", 0))
            completed += int(metrics.get("completed_count", 0))
    items = generated if workload.command == "compare" else len(report.rows)
    return PassResult(run, report, items, generated, completed, workdir, inputs)


def measure_setup(workload: Workload, finished: PassResult, repeats: int) -> List[CliRun]:
    """The identical command re-run over its own finished results.

    Nothing is left to execute, so this is the fixed cost of one invocation:
    interpreter start, imports, spec build, resume scan, table and manifest.
    """
    runs = []
    for _ in range(repeats):
        run = run_cli(cli_args(workload, finished.inputs, "results"), finished.workdir)
        executed = _EXECUTED.search(run.output)
        if executed is None or int(executed.group(1)) != 0:
            finished.report.flag(
                "setup", f"re-run over finished results did not report 'executed 0': "
                f"{executed.group(0) if executed else run.output[-300:]!r}"
            )
        runs.append(run)
    return runs


def summarize(passes: List[PassResult], setups: List[CliRun]) -> Dict[str, List[float]]:
    """Per end-to-end metric, the values of one run; a run reports their median.

    Times are divided by the host slowdown probed while they were taken; a
    set-up re-run is too short for a probe of its own, so they share one.
    """
    expected = sum(result.report.expected for result in passes)
    bad = sum(result.report.failed for result in passes)
    generated = sum(result.generated for result in passes)
    if generated:
        ratio = sum(result.completed for result in passes) / generated
    else:
        # place-compare routes no payment: the share of solves that
        # returned a valid plan.
        ratio = 1.0 - bad / expected
    slow = [slowdown(result.run.bursts) for result in passes]
    walls = [result.run.wall_s / factor for result, factor in zip(passes, slow)]
    setup_slow = slowdown([burst for run in setups for burst in run.bursts]) if setups else 1.0
    return {
        "wall_s": walls,
        "cpu_s": [result.run.cpu_s / factor for result, factor in zip(passes, slow)],
        "setup_s": [run.wall_s / setup_slow for run in setups],
        "peak_rss_mib": [result.run.peak_rss_mib for result in passes],
        "work_per_s": [result.items / wall for result, wall in zip(passes, walls)],
        "success_ratio": [ratio],
        "ok_share": [1.0 - bad / expected],
    }


def raw_times(passes: List[PassResult], setups: List[CliRun]) -> Dict[str, List[float]]:
    """What :func:`summarize` normalised, as measured, and the slowdowns."""
    return {
        "raw_wall_s": [result.run.wall_s for result in passes],
        "raw_cpu_s": [result.run.cpu_s for result in passes],
        "raw_setup_s": [run.wall_s for run in setups],
        "host_slowdown": [slowdown(result.run.bursts) for result in passes],
    }
