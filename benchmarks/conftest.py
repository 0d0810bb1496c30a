"""Shared helpers for the benchmark harness.

Every benchmark checks the *shape* of one table or figure of the paper's
evaluation -- which scheme wins, roughly by how much, how a curve moves with
its swept parameter -- on the result rows of the two sharded pipelines
behind ``python -m repro compare`` and ``place-compare``, at their named
scales and default seed.  Absolute numbers differ from the paper (the
substrate is a simulator, not an LND testbed).

A grid's rows land in pytest's temporary directory, one results directory
per comparison scale for the whole session: the pipelines resume by run
key, so a grid point that two benchmarks share runs once.  Tables are
printed, never written into the checkout.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Sequence, Union

import pytest

from repro.analysis.tables import format_table
from repro.placement.compare import PlacementCompareRunner, build_place_spec
from repro.routing.router import RouterConfig
from repro.scenarios.registry import build_comparison_spec, comparison_scheme_spec
from repro.scenarios.runner import ScenarioRunner

#: Worker processes per pipeline run.
WORKERS = 2

#: The five schemes of figures 7 and 8, Splicer first.
SCHEMES = ["splicer", "spider", "flash", "landmark", "a2l"]

_ROUTER_DEFAULTS = asdict(RouterConfig())


def scheme(name: str, **router) -> Dict[str, object]:
    """A ``schemes.0`` grid entry: the pipeline's scheme, Splicer with router overrides.

    Overrides equal to the router's defaults are dropped, so the default
    Splicer has one entry (and one run key) however a sweep spells it.
    """
    entry = asdict(comparison_scheme_spec(name))
    changed = {key: value for key, value in router.items() if _ROUTER_DEFAULTS[key] != value}
    if changed:
        entry["params"]["router"] = changed
    return entry


def pick(
    rows: Sequence[Dict[str, object]],
    entry: Dict[str, object],
    channel_scale: float = 1.0,
    value_scale: float = 1.0,
) -> Dict[str, object]:
    """The metrics of the one row that ran ``entry`` at one grid point."""
    point = {
        "schemes.0": entry,
        "topology.channel_scale": channel_scale,
        "workload.value_scale": value_scale,
    }
    (row,) = [row for row in rows if row["overrides"] == point]
    (metrics,) = row["metrics"].values()
    return metrics


def show(title: str, table: Union[str, List[Dict[str, object]]]) -> None:
    """Print one result table (rows, or an already rendered table)."""
    text = table if isinstance(table, str) else format_table(table)
    print(f"\n{title}\n{'=' * len(title)}\n{text}")


@pytest.fixture(scope="session")
def compare(tmp_path_factory):
    """``compare(scale, entries, channel_scales, value_scales)`` -> result rows.

    Runs the figure-8 comparison pipeline's grid of ``schemes.0`` entries x
    channel scales x transaction-value scales at one named scale, seed 1.
    """

    def run(scale, entries, channel_scales=(1.0,), value_scales=(1.0,)):
        spec = build_comparison_spec(scale, SCHEMES)
        spec.grid = {
            "schemes.0": list(entries),
            "topology.channel_scale": list(channel_scales),
            "workload.value_scale": list(value_scales),
        }
        results_dir = str(tmp_path_factory.getbasetemp() / f"compare-{scale}")
        report = ScenarioRunner(spec, results_dir=results_dir, workers=WORKERS).run()
        assert len(report.rows) == len(spec.expand_runs()), report.quarantined
        for row in report.rows:
            for metrics in row["metrics"].values():
                assert 0.0 <= metrics["success_ratio"] <= 1.0
                assert 0.0 <= metrics["normalized_throughput"] <= 1.0
        return report.rows

    return run


@pytest.fixture(scope="session")
def place(tmp_path_factory):
    """``place(scale, methods)`` -> the figure-9 placement pipeline's rows (seed 1)."""

    def run(scale, methods):
        spec = build_place_spec(scale, methods=methods)
        results_dir = str(tmp_path_factory.getbasetemp() / f"place-{scale}")
        report = PlacementCompareRunner(spec, results_dir=results_dir, workers=WORKERS).run()
        assert len(report.rows) == len(spec.expand_runs()), report.quarantined
        return report.rows

    return run
