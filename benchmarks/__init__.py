"""Benchmark harness package.

Making ``benchmarks`` a package lets its modules use relative imports of the
shared :mod:`benchmarks.conftest` helpers even when a single benchmark file
is collected directly (``python -m pytest benchmarks/test_fig9_placement.py``).
The tier-1 suite excludes this directory via ``testpaths`` in pyproject.toml.
It also holds the kernel perf gate, :mod:`benchmarks.perf`, run from the
repo root as ``python -m benchmarks.perf``.
"""
