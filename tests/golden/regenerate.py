"""Golden outputs: every figure command's rows, printed table and digests.

This script is the one writer of the suite's expected outputs.  Each entry
of :data:`GOLDENS` is one figure-8, dynamics or figure-9 command (or, for
``diff-pin``, one spec), built exactly as ``python -m repro compare`` /
``run`` / ``place-compare`` builds it and executed shard by shard through
the sweep's own task function.  Per golden the directory holds

* ``<name>.jsonl`` -- the result rows, sorted by ``run_key`` (placement
  rows without their wall-clock ``solve_seconds``);
* ``<name>.txt`` -- the table the CLI prints over them (grid order), without
  the CLI's two title lines;
* one entry of ``digests.json`` -- per shard, SHA-256 digests of what the
  rows round away: for a scheme run (keyed ``<scheme>|seed=<n>``) the
  final ``BalanceStore.values`` and, for the rate-router schemes, the
  router's channel price arrays; for a placement shard (keyed
  ``<method>|omega=<w>|seed=<n>``) the unrounded plan costs and
  ``placement_cost`` of the plan's hubs.

``digests.json`` also holds ``fingerprints``: the resume fingerprint of every
scenario the package registers and of the comparison and ``diff-pin`` specs.

``tests/golden/test_goldens.py`` regenerates everything in-process and
compares.  Run ``PYTHONPATH=src python tests/golden/regenerate.py`` to
rewrite the files when a change moves numbers on purpose; the rewrite's
diff is the record of what moved.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, List, Tuple, Union
from unittest import mock

import numpy as np

from repro.analysis.tables import fig9_table, scenario_table
from repro.baselines import SCHEME_REGISTRY
from repro.placement.assignment import placement_cost
from repro.placement.compare import PlacementCompareSpec, build_place_spec, execute_place_run
from repro.placement.problem import PlacementProblem
from repro.scenarios.registry import build_comparison_spec, get_scenario, scenario_names
from repro.scenarios.runner import execute_run, spec_fingerprint
from repro.scenarios.spec import DynamicsEventSpec, ScenarioSpec, SchemeSpec
from repro.scenarios.spec import TopologySpec, WorkloadSpec
from repro.simulator.experiment import ExperimentRunner

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")


def _run_scenario(name: str) -> Callable[[], ScenarioSpec]:
    """``python -m repro run <name> --duration 2``."""
    return lambda: get_scenario(name).with_overrides({"workload.duration": 2.0})


def _compare_xl() -> ScenarioSpec:
    """``python -m repro compare --scale xl --schemes shortest-path,landmark,
    waterfilling,speedymurmurs --nodes 500 --payments 1000 --seeds 100,101``."""
    spec = build_comparison_spec(
        "xl",
        ["shortest-path", "landmark", "waterfilling", "speedymurmurs"],
        seeds=[100, 101],
        nodes=500,
    )
    # What ``--payments`` does.
    spec.workload.arrival_rate = 1000 / spec.workload.duration
    return spec


def _diff_pin() -> ScenarioSpec:
    """Two atomic schemes on a churned 24-node ring, seed 7."""
    return ScenarioSpec(
        name="diff-pin",
        topology=TopologySpec(
            kind="watts-strogatz",
            params={"node_count": 24, "nearest_neighbors": 4, "candidate_fraction": 0.2},
        ),
        workload=WorkloadSpec(duration=2.0, arrival_rate=15.0, bursts=[[0.5, 1.0, 2.0]]),
        schemes=[SchemeSpec(name="shortest-path"), SchemeSpec(name="landmark")],
        dynamics=[
            DynamicsEventSpec(kind="churn", time=0.5, duration=0.5, params={"count": 3})
        ],
        seeds=[7],
    )


#: Golden name -> the spec its CLI command builds.
GOLDENS: Dict[str, Callable[[], Union[ScenarioSpec, PlacementCompareSpec]]] = {
    # python -m repro compare --scale small --schemes <all eight> --seeds 1,2
    "compare-small": lambda: build_comparison_spec("small", list(SCHEME_REGISTRY), seeds=[1, 2]),
    "channel-churn": _run_scenario("channel-churn"),
    "channel-jamming": _run_scenario("channel-jamming"),
    "hub-failure": _run_scenario("hub-failure"),
    "real-trace": _run_scenario("real-trace"),
    # python -m repro compare --scale small --topology-source lightning-snapshot
    #   --workload-source ripple-trace --schemes flash,landmark,shortest-path,waterfilling
    #   --duration 2 --seeds 1,2
    "snapshot-trace": lambda: build_comparison_spec(
        "small",
        ["flash", "landmark", "shortest-path", "waterfilling"],
        seeds=[1, 2],
        duration=2.0,
        topology_source="lightning-snapshot",
        workload_source="ripple-trace",
    ),
    "compare-xl": _compare_xl,
    "diff-pin": _diff_pin,
    # python -m repro place-compare --scale small --seeds 1,2
    "place-small": lambda: build_place_spec("small", seeds=[1, 2]),
    # python -m repro place-compare --scale medium --seeds 1,2
    "place-medium": lambda: build_place_spec("medium", seeds=[1, 2]),
    # python -m repro place-compare --scale paper --seeds 1 --omegas 0.02,0.5
    "place-paper": lambda: build_place_spec("paper", seeds=[1], omegas=[0.02, 0.5]),
}


def fingerprints() -> Dict[str, str]:
    """Resume fingerprints of every scenario the package registers, and two more specs."""
    specs = {name: get_scenario(name) for name in scenario_names()}
    # python -m repro compare --scale small --schemes splicer,shortest-path
    #   --seeds 1 --duration 2 --nodes 30
    specs["compare-small-nodes-30"] = build_comparison_spec(
        "small", ["splicer", "shortest-path"], seeds=[1], duration=2.0, nodes=30
    )
    specs["diff-pin"] = _diff_pin()
    return {name: spec_fingerprint(spec.to_dict()) for name, spec in specs.items()}


def _sha256(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def state_digests(runner: ExperimentRunner, scheme) -> Dict[str, str]:
    """Digests of the state a scheme leaves behind at the end of its run."""
    digests = {"balances": _sha256(np.asarray(runner.network.balance_store.values))}
    # Spider and Splicer hold their rate router; the atomic schemes have none.
    router = getattr(scheme, "router", None)
    if router is not None:
        channels = router.price_table._channels
        n = len(channels)
        digests["prices"] = _sha256(
            channels.capacity[:n],
            channels.capacity_price[:n],
            channels.imbalance[:, :n],
            channels.required[:, :n],
        )
    return digests


def plan_digests(problem: PlacementProblem, plan) -> Dict[str, str]:
    """Digests of a placement plan's unrounded costs and of ``f(hubs)``."""
    costs = [plan.management_cost, plan.synchronization_cost, plan.balance_cost]
    costs.append(placement_cost(problem, plan.hubs))
    return {"costs": _sha256(np.array(costs, dtype=float))}


def _capture_runs(sink: Dict[str, Dict[str, str]], shard: List[str]):
    """Record :func:`state_digests` after every ``run_single``, under ``<scheme>|<shard>``."""
    run_single = ExperimentRunner.run_single

    def capture(self, scheme, rng=None):
        metrics = run_single(self, scheme, rng=rng)
        sink[f"{scheme.name}|{shard[0]}"] = state_digests(self, scheme)
        return metrics

    return mock.patch.object(ExperimentRunner, "run_single", capture)


def _capture_plans(sink: Dict[str, Dict[str, str]], shard: List[str]):
    """Record :func:`plan_digests` of every plan a solver makes, under ``<shard>``."""
    make_plan = PlacementProblem.make_plan

    def capture(self, *args, **kwargs):
        plan = make_plan(self, *args, **kwargs)
        sink[shard[0]] = plan_digests(self, plan)
        return plan

    return mock.patch.object(PlacementProblem, "make_plan", capture)


def generate(name: str) -> Tuple[List[str], str, Dict[str, Dict[str, str]]]:
    """``(row lines sorted by run_key, printed table, digests)`` of one golden."""
    spec = GOLDENS[name]()
    place = isinstance(spec, PlacementCompareSpec)
    execute = execute_place_run if place else execute_run
    capture = _capture_plans if place else _capture_runs
    spec_dict = spec.to_dict()
    rows: List[Dict[str, object]] = []
    digests: Dict[str, Dict[str, str]] = {}
    shard = [""]
    with capture(digests, shard):
        for seed, overrides in spec.expand_runs():
            shard[0] = f"seed={seed}"
            if place:
                shard[0] = f"{overrides['method']}|omega={overrides['omega']}|{shard[0]}"
            rows.append(execute((spec_dict, seed, overrides)))
    if place:
        for row in rows:
            del row["solve_seconds"]  # wall clock
        table = fig9_table(rows, spec.methods)
    else:
        table = scenario_table(rows)
    lines = [json.dumps(row, sort_keys=True) for row in sorted(rows, key=lambda r: r["run_key"])]
    return lines, table + "\n", digests


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def main() -> None:
    all_digests = {"fingerprints": fingerprints()}
    for name in GOLDENS:
        lines, table, digests = generate(name)
        _write(os.path.join(HERE, f"{name}.jsonl"), "\n".join(lines) + "\n")
        _write(os.path.join(HERE, f"{name}.txt"), table)
        all_digests[name] = digests
        print(f"{name}: {len(lines)} row(s), {len(digests)} digest(s)")
    _write(DIGESTS, json.dumps(all_digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
