"""The four benchmark workloads and the inputs each run generates.

A workload is one CLI command (``python -m repro compare|place-compare``)
plus the recipe that turns ``--seed N`` into its inputs.  The same
definition yields the argv of the untraced passes and the spec the traced
pass drives in-process, so the two cannot drift apart.

Seeds: ``--seed N`` becomes the CLI ``--seeds`` panel ``100*N ..
100*N+k-1`` (panels of different ``N`` never overlap).  ``fig8-paper`` is
the exception: Splicer's run time swings by +-30 % with the topology and the
Poisson draw (one topology leaves payments stuck in the router for their
whole deadline, the next routes them all), which would bury any bound at a
size that fits the time cap.  It keeps the topology of the CLI's default
seed and replays a payment trace generated from ``N`` instead.  The trace is
*stratified* -- the multiset of payment values and the per-account payment
counts are fixed, the seed only decides who pays whom, how much and when --
so every run offers the same amount of work while no two seeds offer the
same payments.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the command, its size and why it exists."""

    name: str
    why: str
    command: str  # "compare" | "place-compare"
    scale: str
    seeds: int
    workers: int = 1
    schemes: Tuple[str, ...] = ()
    omegas: Tuple[float, ...] = ()
    nodes: Optional[int] = None
    payments: Optional[int] = None
    duration: Optional[float] = None
    topology_source: Optional[str] = None
    workload_source: Optional[str] = None
    trace_payments: Optional[int] = None
    fixed_seeds: Optional[Tuple[int, ...]] = None
    smoke: Dict[str, object] = field(default_factory=dict, compare=False)

    def sized(self, smoke: bool) -> "Workload":
        """This workload at full size, or shrunk for ``--smoke``."""
        return replace(self, **self.smoke) if smoke else self


@dataclass
class Inputs:
    """What one ``--seed`` generates: the CLI seed panel and input files."""

    seeds: List[int]
    trace_path: Optional[str] = None


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fig8-paper",
            why=(
                "The paper's headline figure-8 run at 3000 nodes: Splicer's router, EDW "
                "path generation and placement set-up do ~90 % of the work; path store "
                "cold-write."
            ),
            command="compare",
            scale="paper",
            seeds=1,
            fixed_seeds=(1,),
            schemes=("splicer", "spider", "flash", "landmark"),
            duration=4.0,
            trace_payments=240,
            smoke={"nodes": 300, "trace_payments": 60, "duration": 2.0},
        ),
        Workload(
            name="xl-stream",
            why=(
                "Payment-heavy, no Splicer: baseline catalogs and the atomic executor on "
                "the epoch stepper and shared-memory block; bypasses any routing or "
                "placement optimisation."
            ),
            command="compare",
            scale="xl",
            seeds=4,
            schemes=("shortest-path", "landmark", "waterfilling", "speedymurmurs"),
            nodes=2000,
            payments=2500,
            duration=8.0,
            smoke={"nodes": 300, "payments": 2000, "seeds": 1},
        ),
        Workload(
            name="fig9-paper",
            why=(
                "The figure-9 placement sweep at 3000 nodes: cost model and double greedy "
                "dominate, no payment is routed, so a routing change must not move it."
            ),
            command="place-compare",
            scale="paper",
            seeds=2,
            omegas=(0.02, 0.5),
            smoke={"nodes": 300, "seeds": 1},
        ),
        Workload(
            name="sweep-fanout",
            why=(
                "240 shards of ~40 ms on two workers over the bundled snapshot and trace: "
                "per-shard fixed cost (spawn, spec rebuild, data load, path-store read, "
                "JSONL append) dominates."
            ),
            command="compare",
            scale="small",
            seeds=60,
            workers=2,
            schemes=("flash", "landmark", "shortest-path", "waterfilling"),
            duration=2.0,
            topology_source="lightning-snapshot",
            workload_source="ripple-trace",
            smoke={"seeds": 4},
        ),
    )
}


def shard_count(workload: Workload) -> int:
    """Shards one pass must produce."""
    if workload.command == "compare":
        return workload.seeds * len(workload.schemes)
    return workload.seeds * len(place_methods(workload)) * len(workload.omegas)


def place_methods(workload: Workload) -> Tuple[str, ...]:
    """The method line-up ``place-compare`` picks for the workload's scale."""
    from repro.placement.compare import PLACEMENT_SCALES

    return tuple(PLACEMENT_SCALES[workload.scale]["methods"])


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #
def _strata(weights: np.ndarray, count: int) -> np.ndarray:
    """``count`` account indices, each account getting its expected share."""
    exact = weights / weights.sum() * count
    base = np.floor(exact).astype(int)
    order = np.argsort(-(exact - base), kind="stable")
    base[order[: count - int(base.sum())]] += 1
    return np.repeat(np.arange(len(weights)), base)


def write_payment_trace(path: str, seed: int, payments: int, accounts: int) -> None:
    """Write a stratified payment trace CSV the ``ripple-trace`` source replays.

    Mirrors the Poisson generator's shape (Zipf senders 0.6 / recipients
    1.2, 8 % of values from a heavy tail starting at 80) with the sampling
    noise taken out: quantile grids instead of draws, permuted by ``seed``.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, accounts + 1, dtype=float)
    senders = rng.permutation(_strata(ranks**-0.6, payments))
    recipients = rng.permutation(_strata((ranks**-1.2)[::-1], payments))
    for i in np.flatnonzero(senders == recipients):
        j = (i + 1) % payments
        while recipients[j] == senders[i] or recipients[i] == senders[j]:
            j = (j + 1) % payments
        recipients[i], recipients[j] = recipients[j], recipients[i]
    heavy = int(round(0.08 * payments))
    body_grid = (np.arange(payments - heavy) + 0.5) / (payments - heavy)
    heavy_grid = (np.arange(heavy) + 0.5) / max(heavy, 1)
    values = rng.permutation(
        np.concatenate(
            [1.0 - 10.0 * np.log1p(-body_grid), 80.0 - 40.0 * np.log1p(-heavy_grid)]
        )
    )
    times = (np.arange(payments) + rng.random(payments)) * (3600.0 / payments)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["payment_id", "timestamp", "sender", "receiver", "amount"])
        for i in range(payments):
            writer.writerow(
                (
                    f"tx{i:06d}",
                    f"{times[i]:.3f}",
                    f"acct{senders[i]:05d}",
                    f"acct{recipients[i]:05d}",
                    f"{values[i]:.2f}",
                )
            )


def make_inputs(workload: Workload, seed: int, directory: str) -> Inputs:
    """Generate the inputs of one ``--seed`` under ``directory``."""
    inputs = Inputs(
        seeds=list(workload.fixed_seeds)
        if workload.fixed_seeds
        else [100 * seed + offset for offset in range(workload.seeds)]
    )
    if workload.trace_payments:
        from repro.scenarios.registry import COMPARISON_SCALES

        nodes = workload.nodes or int(COMPARISON_SCALES[workload.scale]["nodes"])
        os.makedirs(directory, exist_ok=True)
        inputs.trace_path = os.path.join(directory, f"payments-{seed}.csv")
        write_payment_trace(
            inputs.trace_path, seed, workload.trace_payments, accounts=2 * nodes // 3
        )
    return inputs


def _workload_source(workload: Workload, inputs: Inputs) -> Optional[object]:
    if inputs.trace_path is not None:
        # "random" spreads the trace's accounts over the whole graph; the
        # default mapping would put the busiest accounts on the hub candidates.
        return {"kind": "ripple-trace", "path": inputs.trace_path, "mapping": "random"}
    return workload.workload_source


# ---------------------------------------------------------------------- #
# the two views of one workload: CLI argv and in-process spec
# ---------------------------------------------------------------------- #
def cli_args(workload: Workload, inputs: Inputs, results_dir: str) -> List[str]:
    """Arguments after ``python -m repro`` for one pass.

    Deliberately no ``--backend``/``--engine``/``--shared-memory``: the
    program's own defaults decide, so collapsing them needs no edit here.
    """
    args = [workload.command, "--scale", workload.scale]
    if workload.command == "compare":
        args += ["--schemes", ",".join(workload.schemes)]
        if workload.duration is not None:
            args += ["--duration", str(workload.duration)]
        if workload.payments is not None:
            args += ["--payments", str(workload.payments)]
        if workload.topology_source is not None:
            args += ["--topology-source", workload.topology_source]
        source = _workload_source(workload, inputs)
        if source is not None:
            args += [
                "--workload-source",
                source if isinstance(source, str) else json.dumps(source),
            ]
    else:
        args += ["--omegas", ",".join(str(omega) for omega in workload.omegas)]
    if workload.nodes is not None:
        args += ["--nodes", str(workload.nodes)]
    args += [
        "--seeds",
        ",".join(str(seed) for seed in inputs.seeds),
        "--workers",
        str(workload.workers),
        "--results-dir",
        results_dir,
        "--quiet",
    ]
    return args


def compare_spec(workload: Workload, inputs: Inputs):
    """The ``ScenarioSpec`` the CLI builds for a ``compare`` workload."""
    from repro.scenarios.registry import build_comparison_spec

    spec = build_comparison_spec(
        workload.scale,
        list(workload.schemes),
        seeds=inputs.seeds,
        duration=workload.duration,
        nodes=workload.nodes,
        topology_source=workload.topology_source,
        workload_source=_workload_source(workload, inputs),
    )
    if workload.payments is not None:
        spec = spec.with_overrides(
            {"workload.arrival_rate": workload.payments / spec.workload.duration}
        )
    return spec


def place_spec(workload: Workload, inputs: Inputs):
    """The ``PlacementCompareSpec`` the CLI builds for a ``place-compare`` workload."""
    from repro.placement.compare import build_place_spec

    return build_place_spec(
        workload.scale, omegas=workload.omegas, seeds=inputs.seeds, nodes=workload.nodes
    )
