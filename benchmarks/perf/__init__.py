"""Kernel perf gate: ``python -m benchmarks.perf``.

Times the hot layers of the reproduction -- the per-epoch routing step
(prices + rates), full scenario and comparison replays, path generation,
the placement solver and the channel-state layout -- at four suite scales,
and gates them against the committed ``benchmarks/perf_baseline.json`` on
normalized time and tracemalloc peak memory.

Modules:

* :mod:`benchmarks.perf.harness` -- timing loop, machine-speed calibration
  and the report schema.
* :mod:`benchmarks.perf.suites` -- the benchmark definitions per scale.
* :mod:`benchmarks.perf.baseline` -- baseline load/compare/update logic.
* :mod:`benchmarks.perf.__main__` -- the command line and the gate.
"""
