"""Micro-benchmark harness: timing loop, calibration, report schema.

Raw wall-clock times are not comparable across machines (a laptop and a CI
runner differ by 2-5x), so every report also carries a *calibration* time --
the duration of a fixed, deterministic reference workload measured on the
same machine right before the benchmarks.  Regression checks compare
*normalized* times (``best_seconds / calibration_seconds``), which cancels
most of the machine-speed difference while remaining sensitive to real
slowdowns in the measured code.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

#: Default repeats per benchmark; the best (minimum) time is recorded.
DEFAULT_REPEATS = 5


@dataclass
class BenchmarkSpec:
    """One benchmark: a setup building fresh state and a timed step.

    Attributes:
        name: Unique identifier, ``<group>/<scale>``.
        group: Benchmark family (``routing-step``/``scenario-run``/...).
        scale: Suite scale (``small``/``medium``/``large``/``xl-small``).
        setup: Builds the benchmark state; run once, untimed.
        fn: One measured iteration, called with the setup's state.
        inner: Iterations per timed repeat (amortizes timer overhead for
            sub-millisecond steps).
        meta: Free-form descriptive values copied into the record.
    """

    name: str
    group: str
    scale: str
    setup: Callable[[], object]
    fn: Callable[[object], None]
    inner: int = 1
    meta: Dict[str, object] = field(default_factory=dict)


@dataclass
class BenchmarkRecord:
    """Measured result of one benchmark.

    ``peak_mib`` is the tracemalloc peak of one untimed iteration (the
    warmup that follows one untraced call), in MiB -- the memory dimension
    of the regression gate.  Memory is measured outside the timed repeats,
    so the probe's overhead never touches the reported times.
    """

    name: str
    group: str
    scale: str
    repeats: int
    inner: int
    best_seconds: float
    mean_seconds: float
    normalized: float
    peak_mib: float = 0.0
    meta: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "group": self.group,
            "scale": self.scale,
            "repeats": self.repeats,
            "inner": self.inner,
            "best_seconds": self.best_seconds,
            "mean_seconds": self.mean_seconds,
            "normalized": self.normalized,
            "peak_mib": self.peak_mib,
            "meta": dict(self.meta),
        }


@dataclass
class BenchmarkReport:
    """A benchmark run: records plus environment and calibration context."""

    records: List[BenchmarkRecord]
    calibration_seconds: float
    revision: str
    environment: Dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": 1,
            "revision": self.revision,
            "calibration_seconds": self.calibration_seconds,
            "environment": dict(self.environment),
            "records": [record.as_dict() for record in self.records],
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


# ---------------------------------------------------------------------- #
# timing
# ---------------------------------------------------------------------- #
def _time_once(fn: Callable[[object], None], state: object, inner: int) -> float:
    started = time.perf_counter()
    for _ in range(inner):
        fn(state)
    return (time.perf_counter() - started) / inner


def _warmup_with_memory_probe(
    fn: Callable[[object], None], state: object, inner: int
) -> float:
    """Warm up with one untraced call, then trace an untimed one; return its peak in MiB.

    The untraced call pays the one-time costs (lazy imports, module caches),
    so the traced warmup measures the benchmark's own allocations, and the
    tracing overhead lives entirely outside the timed repeats.  When
    tracemalloc is already running (e.g. the whole process is being
    profiled), the probe stays out of its way and reports 0.
    """
    fn(state)
    if tracemalloc.is_tracing():  # pragma: no cover - external profiling run
        _time_once(fn, state, inner)
        return 0.0
    tracemalloc.start()
    try:
        _time_once(fn, state, inner)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (1024.0 * 1024.0)


def calibrate(repeats: int = 5) -> float:
    """Best time of a fixed reference workload (machine-speed probe).

    Mixes interpreter arithmetic, NumPy kernels and object/dict churn in a
    deterministic loop so the normalization tracks every dimension a
    benchmark may be bound by -- allocation-heavy simulation code degrades
    differently under memory-bandwidth contention than pure arithmetic, and
    a probe missing that dimension would mis-normalize it.
    """

    def reference() -> float:
        total = 0.0
        for i in range(15_000):
            total += (i % 7) * 0.5
        values = np.arange(50_000, dtype=float)
        for _ in range(10):
            values = np.sqrt(values * values + 1.0)
        bucket = {}
        log = []
        for i in range(8_000):
            key = (i % 97, i % 31)
            bucket[key] = bucket.get(key, 0.0) + 1.0
            if i % 13 == 0:
                log.append((key, bucket[key]))
        return total + float(values[0]) + len(bucket) + len(log)

    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - started)
    return best


def run_specs(
    specs: Sequence[BenchmarkSpec],
    repeats: int = DEFAULT_REPEATS,
) -> BenchmarkReport:
    """Run a list of benchmarks and assemble the report.

    The timed repeats are split into two round-robin passes over the whole
    spec list (one when ``repeats`` is 1), so a transient machine-load spike
    degrades one pass of every benchmark (recovered by the min over the
    other pass) instead of poisoning every repeat of whichever benchmark it
    happened to hit.

    Machine speed can also drift *within* a run (CPU-frequency scaling,
    cgroup quota throttling), so the calibration workload is re-measured
    immediately before each benchmark's repeats in each pass, and the
    benchmark's *normalized* time is the best over passes of
    ``pass best / adjacent calibration`` -- every ratio is taken against the
    machine state that actually produced the measurement.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    passes = min(2, repeats)
    states = []
    peaks: List[float] = []
    for spec in specs:
        state = spec.setup()
        peaks.append(_warmup_with_memory_probe(spec.fn, state, spec.inner))
        states.append(state)
    times: List[List[float]] = [[] for _ in specs]
    normalized: List[float] = [float("inf") for _ in specs]
    calibrations: List[float] = []
    share = [repeats // passes + (1 if p < repeats % passes else 0) for p in range(passes)]
    for pass_repeats in share:
        for index, spec in enumerate(specs):
            adjacent_calibration = max(calibrate(repeats=3), 1e-12)
            calibrations.append(adjacent_calibration)
            pass_times = [
                _time_once(spec.fn, states[index], spec.inner) for _ in range(pass_repeats)
            ]
            times[index].extend(pass_times)
            normalized[index] = min(normalized[index], min(pass_times) / adjacent_calibration)
    calibration_seconds = min(calibrations)
    records = [
        BenchmarkRecord(
            name=spec.name,
            group=spec.group,
            scale=spec.scale,
            repeats=len(spec_times),
            inner=spec.inner,
            best_seconds=min(spec_times),
            mean_seconds=sum(spec_times) / len(spec_times),
            normalized=normalized[index],
            peak_mib=peaks[index],
            meta=dict(spec.meta),
        )
        for index, (spec, spec_times) in enumerate(zip(specs, times))
    ]
    return BenchmarkReport(
        records=records,
        calibration_seconds=calibration_seconds,
        revision=git_revision(),
        environment={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "implementation": platform.python_implementation(),
            "argv": " ".join(sys.argv[1:]),
        },
    )


def git_revision() -> str:
    """Short git revision of the working tree, or ``local`` outside a repo.

    Uncommitted changes append ``-dirty``, so a report or baseline measured
    on a modified tree never passes for a measurement of its parent commit.
    """
    try:
        output = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--exclude=*"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
        return output or "local"
    except (OSError, subprocess.SubprocessError):
        return "local"
