"""Parallel scenario orchestration with resumable JSONL results.

:class:`ScenarioRunner` expands a :class:`~repro.scenarios.spec.ScenarioSpec`
into its run grid (seeds x parameter combinations) and executes it through
the generic :class:`~repro.scenarios.jsonl.JsonlGridRunner` machinery: one
JSON line per finished run appended to ``<results_dir>/<scenario>.jsonl``,
fanned out over a ``multiprocessing`` pool.  Each run is keyed by its
scenario name, spec fingerprint, seed and overrides; re-running the same
scenario skips keys already present in the results file, so interrupted
sweeps resume where they stopped and a completed sweep re-runs in zero
simulation work.

Determinism: every run derives all of its randomness from its own
``(seed, purpose)`` pair (see :func:`~repro.scenarios.spec.derive_seed`), so
the produced rows are identical whatever the worker count or completion
order.  Rows are written in completion order; the run report hands them
back in grid order, and consumers of the file that need a stable order sort
by ``run_key``.

Cross-shard reuse: the grid is seed-major, and a comparison sweep runs one
scheme per shard.  Each process therefore keeps its last
:class:`~repro.simulator.experiment.ExperimentRunner` (network, workload,
dynamics events) and replays it whole for the next shard whose spec differs
only in its schemes and whose seed matches, exactly as
``ExperimentRunner.run`` replays one topology for several schemes.  A shard
that builds the same topology under another seed or workload -- a new seed
on an unseeded snapshot -- keeps only the runner's network, reset to its
snapshot, with its routing mirror and path memo.  Any other shard builds
its network from the topology generator; that is the only other source of
a network, whatever the scale or worker count.  Rows equal those of a
fresh build per shard (``tests/scenarios/test_seed_runner.py``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import DEFAULT_SAMPLE_RATE, HealthRecorder, RunRecorder, use_recorder
from repro.scenarios.jsonl import (
    RESULT_SCHEMA_VERSION,
    GridRunReport,
    JsonlGridRunner,
    load_result_rows,
)
from repro.scenarios.spec import ScenarioSpec, derive_seed

if TYPE_CHECKING:
    from repro.simulator.experiment import ExperimentRunner
    from repro.topology.network import PCNetwork

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "ScenarioRunner",
    "clear_seed_runner",
    "execute_run",
    "load_result_rows",
    "run_key",
    "spec_fingerprint",
]

#: Spec fields that expand or label the grid rather than parameterize a run;
#: changing them must not invalidate already-completed runs.  Observability
#: is transparent (sampling decisions never touch a simulation RNG), so
#: enabling tracing must not re-run a completed sweep either.
_NON_FINGERPRINT_FIELDS = (
    "seeds",
    "grid",
    "description",
    "obs",
)


def spec_fingerprint(spec_dict: Dict[str, object]) -> str:
    """A short stable hash of everything that parameterizes one run.

    Two runs with the same (scenario, seed, overrides) but different
    topology/workload/scheme/dynamics parameters -- e.g. a CLI ``--nodes``
    override -- must get different keys, or resume would skip the new
    configuration and present stale rows as current.  Seeds, the grid and
    the description only expand or label runs, so they stay out of the hash.
    """
    material = {
        key: value
        for key, value in spec_dict.items()
        if key not in _NON_FINGERPRINT_FIELDS
    }
    digest = hashlib.sha256(
        json.dumps(material, sort_keys=True, default=str).encode()
    ).hexdigest()
    return digest[:12]


def run_key(
    scenario: str,
    seed: int,
    overrides: Dict[str, object],
    fingerprint: str = "",
) -> str:
    """Stable identifier of one run inside a results file."""
    return (
        f"{scenario}|cfg={fingerprint}|seed={seed}|"
        f"{json.dumps(overrides, sort_keys=True, default=str)}"
    )


def _build_recorder(spec: ScenarioSpec, key: str) -> "RunRecorder":
    """Build the per-run recorder described by ``spec.obs``.

    Artifact names embed a hash of the run key, so every run of a sharded
    sweep gets its own ``trace-<hash>.jsonl`` / ``health-<hash>.npz`` pair
    under the shared directory and parallel workers never collide.
    """
    settings = spec.obs or {}
    directory = str(settings["dir"])
    os.makedirs(directory, exist_ok=True)
    token = hashlib.sha256(key.encode()).hexdigest()[:12]
    trace_seed = int(settings.get("trace_seed", 0))
    health = None
    health_interval = float(settings.get("health_interval", 1.0))
    if health_interval > 0:
        health = HealthRecorder(
            path=os.path.join(directory, f"health-{token}.npz"),
            interval=health_interval,
            seed=trace_seed,
        )
    return RunRecorder(
        trace_path=os.path.join(directory, f"trace-{token}.jsonl"),
        sample_rate=float(settings.get("sample_rate", DEFAULT_SAMPLE_RATE)),
        seed=trace_seed,
        health=health,
    )


#: The process's last experiment runner, keyed by ``(runner key, network
#: key)`` (:func:`_runner_key`, :meth:`TopologySpec.build_key`); at most one
#: entry.  The grid is seed-major and pool workers are long-lived, so the
#: scheme siblings of a seed replay one network, workload and dynamics
#: schedule, and the seeds of an unseeded topology share one network.
#: :func:`execute_run` takes the entry out while a shard runs and puts it
#: back only when the shard succeeds.
_SEED_RUNNER: Dict[Tuple[Tuple[str, int], str], "ExperimentRunner"] = {}


def clear_seed_runner() -> None:
    """Drop the process's kept experiment runner.

    A test that pairs two :func:`execute_run` calls building one topology to
    compare two code paths starts the second here, or the second one reuses
    the first one's runner or network.
    """
    _SEED_RUNNER.clear()


def _runner_key(spec: ScenarioSpec, seed: int) -> Tuple[str, int]:
    """What a shard's experiment runner is built from: its spec bar the schemes, and its seed."""
    data = spec.to_dict()
    del data["schemes"]
    return spec_fingerprint(data), seed


def _kept_runner(
    runner_key: Tuple[str, int], network_key: str
) -> Tuple[Optional["ExperimentRunner"], Optional[PCNetwork]]:
    """Take the kept runner out: whole, its network alone, or neither.

    The whole runner serves a shard with its ``runner_key``; otherwise its
    network, reset to the snapshot, serves one that builds ``network_key``.
    Neither serves once the topology moved: a dynamics undo re-adds a
    channel at the end of the adjacency, so a reconciled network breaks path
    ties differently from a fresh one.  A runner that serves neither is
    collected before the caller builds the next one, so two networks never
    sit under one peak.
    """
    if not _SEED_RUNNER:
        return None, None
    (kept_runner_key, kept_network_key), runner = _SEED_RUNNER.popitem()
    if not runner.topology_moved:
        if kept_runner_key == runner_key:
            return runner, None
        if kept_network_key == network_key:
            runner.reset_network()
            return None, runner.network
    del runner
    gc.collect()
    return None, None


def execute_run(
    task: Tuple[Dict[str, object], int, Dict[str, object]]
) -> Dict[str, object]:
    """Execute one (spec dict, seed, overrides) task; return its row.

    Module-level so it pickles for worker processes; the spec travels as a
    plain dict for the same reason.  A shard that cannot reuse its process's
    kept runner or network builds the network from the topology generator.
    """
    spec_dict, seed, overrides = task
    spec = ScenarioSpec.from_dict(spec_dict)
    if overrides:
        spec = spec.with_overrides(overrides)
    fingerprint = spec_fingerprint(spec_dict)
    key = run_key(spec.name, seed, overrides, fingerprint)
    runner_key = _runner_key(spec, seed)
    network_key = spec.topology.build_key(derive_seed(seed, "topology"))
    runner, network = _kept_runner(runner_key, network_key)
    if runner is None:
        runner, schemes = spec.build_experiment(seed, network=network)
    else:
        schemes = [scheme_spec.build() for scheme_spec in spec.scheme_specs()]
    recorder = _build_recorder(spec, key) if spec.obs and spec.obs.get("dir") else None
    rng = np.random.default_rng(derive_seed(seed, "schemes"))
    if recorder is not None:
        try:
            with use_recorder(recorder):
                result = runner.run(schemes, rng=rng)
        finally:
            recorder.close()
    else:
        result = runner.run(schemes, rng=rng)
    _SEED_RUNNER[runner_key, network_key] = runner
    row = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "run_key": key,
        "scenario": spec.name,
        "seed": seed,
        "overrides": overrides,
        "workload_count": result.workload_count,
        "workload_value": round(result.workload_value, 3),
        "metrics": {name: metrics.as_dict() for name, metrics in result.metrics.items()},
    }
    if recorder is not None:
        row["obs"] = recorder.summary()
    return row


class ScenarioRunner(JsonlGridRunner):
    """Runs a scenario's full grid over worker processes, resumably."""

    def __init__(
        self,
        spec: ScenarioSpec,
        results_dir: str = os.path.join("results", "scenarios"),
        workers: int = 1,
        **resilience,
    ) -> None:
        super().__init__(results_dir=results_dir, workers=workers, **resilience)
        self.spec = spec

    @property
    def results_name(self) -> str:
        """The scenario's name (stem of the results file)."""
        return self.spec.name

    def expected_keys(self) -> List[str]:
        """Run keys of this spec's full grid, in grid order."""
        fingerprint = spec_fingerprint(self.spec.to_dict())
        return [
            run_key(self.spec.name, seed, overrides, fingerprint)
            for seed, overrides in self.spec.expand_runs()
        ]

    def pending_tasks(self) -> List[Tuple]:
        """Grid entries not yet present in the results file, in grid order."""
        done = self.completed_keys()
        spec_dict = self.spec.to_dict()
        fingerprint = spec_fingerprint(spec_dict)
        return [
            (spec_dict, seed, overrides)
            for seed, overrides in self.spec.expand_runs()
            if run_key(self.spec.name, seed, overrides, fingerprint) not in done
        ]

    def executor(self):
        """The module-level scenario task function."""
        return execute_run

    def run(self, on_row=None) -> GridRunReport:
        """Execute pending runs.

        The spec is validated first: a configuration error is raised here, in
        the parent, and leaves no failure row or quarantine entry.
        """
        self.spec.validate()
        return super().run(on_row=on_row)
