"""Golden outputs: result rows, printed tables and final-state digests.

Covers the figure-8 comparison at ``--scale small`` over every scheme
(seeds 1 and 2), the atomic baselines over the bundled Lightning snapshot
and Ripple trace (``snapshot-trace``, seeds 1 and 2) and the
``channel-churn`` / ``channel-jamming`` / ``hub-failure`` / ``real-trace``
scenarios at ``--duration 2``, each built
exactly as ``python -m repro compare`` / ``run`` builds it and executed
through the sweep's own task function.  Per scenario the directory holds

* ``<name>.jsonl`` -- the result rows, sorted by ``run_key``;
* ``<name>.txt`` -- the table the CLI prints over them (grid order);
* one entry of ``digests.json`` -- per (scheme, seed), a SHA-256 of the
  final ``BalanceStore.values`` and, for the rate-router schemes, of the
  router's channel price arrays.  Rows round to 4 dp, so a last-bit change
  in balances or prices shows up only here.

``tests/golden/test_goldens.py`` regenerates everything in-process and
compares.  Run ``PYTHONPATH=src python tests/golden/regenerate.py`` to
rewrite the files when a change moves numbers on purpose; the rewrite's
diff is the record of what moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.analysis.tables import scenario_table
from repro.baselines import SCHEME_REGISTRY
from repro.scenarios.registry import build_comparison_spec, get_scenario
from repro.scenarios.runner import execute_run
from repro.scenarios.spec import ScenarioSpec
from repro.simulator.experiment import ExperimentRunner

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")


def _run_scenario(name: str) -> Callable[[], ScenarioSpec]:
    """``python -m repro run <name> --duration 2``."""
    return lambda: get_scenario(name).with_overrides({"workload.duration": 2.0})


#: Golden name -> the spec its CLI command builds.
GOLDENS: Dict[str, Callable[[], ScenarioSpec]] = {
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
}


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


@contextlib.contextmanager
def _capturing_digests(sink: Dict[str, Dict[str, str]], seed: List[int]) -> Iterator[None]:
    """Record :func:`state_digests` after every ``run_single`` of the block."""
    original = ExperimentRunner.run_single

    def run_single(self, scheme, rng=None, dynamics=None):
        metrics = original(self, scheme, rng=rng, dynamics=dynamics)
        sink[f"{scheme.name}|seed={seed[0]}"] = state_digests(self, scheme)
        return metrics

    ExperimentRunner.run_single = run_single
    try:
        yield
    finally:
        ExperimentRunner.run_single = original


def generate(name: str) -> Tuple[List[str], str, Dict[str, Dict[str, str]]]:
    """``(row lines sorted by run_key, printed table, digests)`` of one golden."""
    spec = GOLDENS[name]()
    spec_dict = spec.to_dict()
    rows: List[Dict[str, object]] = []
    digests: Dict[str, Dict[str, str]] = {}
    seed = [0]
    with _capturing_digests(digests, seed):
        for run_seed, overrides in spec.expand_runs():
            seed[0] = run_seed
            rows.append(execute_run((spec_dict, run_seed, overrides)))
    table = scenario_table(rows) + "\n"
    lines = [json.dumps(row, sort_keys=True) for row in sorted(rows, key=lambda r: r["run_key"])]
    return lines, table, digests


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def main() -> None:
    all_digests = {}
    for name in GOLDENS:
        lines, table, digests = generate(name)
        _write(os.path.join(HERE, f"{name}.jsonl"), "\n".join(lines) + "\n")
        _write(os.path.join(HERE, f"{name}.txt"), table)
        all_digests[name] = digests
        print(f"{name}: {len(lines)} row(s), {len(digests)} digest(s)")
    _write(DIGESTS, json.dumps(all_digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
