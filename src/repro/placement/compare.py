"""The sharded Figure-9 placement comparison pipeline.

The paper's placement evaluation (figure 9) sweeps the cost weight ``omega``
and compares placement methods on balance cost and number of placed smooth
nodes -- the optimal solution against the double-greedy model at small
scale, model variants at scales where the optimum is intractable.  This
module reproduces that sweep as a resumable parallel pipeline behind
``python -m repro place-compare``: every ``(method, omega, seed)``
combination is one independent run sharded over worker processes through
the same JSONL grid machinery the scenario and figure-8 pipelines use
(:mod:`repro.scenarios.jsonl`).

Scales mirror the figure-8 comparison pipeline's node counts (small/60 up
to paper/3000); a paper-scale solve takes 0.3-0.6 s, a seed's set-up
(topology, hop probe, cost matrices) about as long once per process.

Determinism: every plan-derived field of a result row is identical
whatever the worker count or completion order (topology and solver seeds
derive from the run's own ``(seed, purpose)`` pairs).  The one exception is
``solve_seconds``, which is measured wall-clock time -- a diagnostic, like
the kernel perf gate's reports, not part of the reproducibility contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.scenarios.jsonl import JsonlGridRunner
from repro.scenarios.spec import derive_seed
from repro.topology.generators import watts_strogatz_pcn

NodeId = Hashable

#: The paper's omega sweep (figure 9's x axis).
DEFAULT_OMEGAS: Tuple[float, ...] = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5)

#: Node counts and default method line-ups of the comparison scales.  The
#: node counts match the figure-8 pipeline's; the method pairs follow the
#: paper: optimum-vs-model while the optimum is tractable, model variants
#: above that.
PLACEMENT_SCALES: Dict[str, Dict[str, object]] = {
    "small": {"nodes": 60, "methods": ("exact", "greedy")},
    "medium": {"nodes": 200, "methods": ("greedy", "greedy-descent")},
    "large": {"nodes": 600, "methods": ("greedy", "greedy-descent")},
    "paper": {"nodes": 3000, "methods": ("greedy", "greedy-det")},
    # The beyond-paper tier: only the deterministic double-greedy stays
    # tractable at this size; shrink with --nodes for machine-sized smokes.
    "xl": {"nodes": 100000, "methods": ("greedy-det",)},
}

#: Methods the pipeline understands (superset of the solver facade's: the
#: deterministic double-greedy variant and the descent ablation are
#: first-class sweep dimensions here).
PLACE_METHODS = ("exact", "milp", "greedy", "greedy-det", "greedy-descent")

#: Result-row schema of this pipeline (independent of the scenario rows').
PLACE_SCHEMA_VERSION = 1


@dataclass
class PlacementCompareSpec:
    """One scale's placement sweep: the grid is methods x omegas x seeds.

    Attributes:
        scale: Scale name (see :data:`PLACEMENT_SCALES`).
        nodes: Topology node count.
        methods: Placement methods to compare (see :data:`PLACE_METHODS`);
            the first one is the reference the gap columns are computed
            against.
        omegas: Cost-weight sweep values.
        seeds: Base seeds; each seed generates an independent topology.
    """

    scale: str
    nodes: int
    methods: List[str] = field(default_factory=lambda: ["exact", "greedy"])
    omegas: List[float] = field(default_factory=lambda: list(DEFAULT_OMEGAS))
    seeds: List[int] = field(default_factory=lambda: [1])

    @property
    def name(self) -> str:
        """Results-file stem of this sweep."""
        return f"place-{self.scale}"

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict (JSON-safe) representation."""
        return asdict(self)

    def fingerprint(self) -> str:
        """Stable hash of everything that parameterizes one run.

        Methods, omegas and seeds expand the grid (they live in each run's
        key) and stay out of the hash, mirroring the scenario runner's
        fingerprint contract: changing them must not invalidate completed
        runs, while changing the topology must.
        """
        material = {"scale": self.scale, "nodes": self.nodes}
        digest = hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest()
        return digest[:12]

    def expand_runs(self) -> List[Tuple[int, Dict[str, object]]]:
        """All (seed, overrides) pairs of the seeds x methods x omegas grid."""
        return [
            (seed, {"method": method, "omega": omega})
            for seed in self.seeds
            for method in self.methods
            for omega in self.omegas
        ]


def build_place_spec(
    scale: str,
    methods: Optional[Sequence[str]] = None,
    omegas: Optional[Sequence[float]] = None,
    seeds: Optional[Sequence[int]] = None,
    nodes: Optional[int] = None,
) -> PlacementCompareSpec:
    """The figure-9 sweep at one scale, with optional dimension overrides."""
    try:
        params = PLACEMENT_SCALES[scale]
    except KeyError:
        raise KeyError(
            f"unknown placement scale {scale!r}; available: "
            f"{', '.join(sorted(PLACEMENT_SCALES))}"
        ) from None
    method_list = list(methods) if methods else list(params["methods"])
    unknown = [method for method in method_list if method not in PLACE_METHODS]
    if unknown:
        raise ValueError(
            f"unknown placement method(s) {', '.join(unknown)}; "
            f"expected a subset of {PLACE_METHODS}"
        )
    return PlacementCompareSpec(
        scale=scale,
        nodes=int(params["nodes"]) if nodes is None else int(nodes),
        methods=method_list,
        omegas=[float(omega) for omega in omegas] if omegas else list(DEFAULT_OMEGAS),
        seeds=[int(seed) for seed in seeds] if seeds else [1],
    )


def build_place_network(spec_dict: Dict[str, object], seed: int):
    """The sweep's topology for one seed (same family as the figure-8 runs)."""
    nodes = int(spec_dict["nodes"])
    return watts_strogatz_pcn(
        nodes,
        nearest_neighbors=8,
        rewire_probability=0.25,
        uniform_channel_size=200.0,
        candidate_fraction=0.15 if nodes <= 150 else 0.08,
        seed=derive_seed(seed, "place-topology"),
    )


#: One-entry per-process memo of the last ``(nodes, seed)``'s problem.  The
#: grid is seed-major and pool workers are long-lived, so the (method x omega)
#: siblings of a seed skip the network build, the probe and the cost-matrix
#: build; omega is applied per shard.
_SEED_PROBLEM: Dict[tuple, object] = {}


def _seed_problem(spec_dict: Dict[str, object], seed: int):
    """The problem of one seed's topology, memoised per process."""
    from repro.placement.solver import build_problem

    key = (spec_dict["nodes"], seed)
    if key not in _SEED_PROBLEM:
        # Dropped first: the previous seed's matrices must not sit under the
        # peak of the next build.
        _SEED_PROBLEM.clear()
        _SEED_PROBLEM[key] = build_problem(build_place_network(spec_dict, seed))
    return _SEED_PROBLEM[key]


def execute_place_run(
    task: Tuple[Dict[str, object], int, Dict[str, object]],
) -> Dict[str, object]:
    """Execute one (spec dict, seed, {method, omega}) shard and return its row.

    Module-level so it pickles for worker processes.
    """
    # Imported here so worker processes pay the import once per process and
    # the module stays importable without pulling the whole solver stack in.
    from repro.placement.solver import solve_placement
    from repro.placement.supermodular import greedy_descent_placement
    from repro.scenarios.runner import run_key

    spec_dict, seed, overrides = task
    spec = PlacementCompareSpec(**spec_dict)
    method = str(overrides["method"])
    omega = float(overrides["omega"])

    problem = _seed_problem(spec_dict, seed).with_omega(omega)
    solver_seed = derive_seed(seed, "place-solver")
    started = time.perf_counter()
    if method == "greedy-descent":
        plan = greedy_descent_placement(problem)
    elif method == "greedy-det":
        plan = solve_placement(
            problem, method="greedy", seed=solver_seed, deterministic_greedy=True
        )
    else:
        plan = solve_placement(problem, method=method, seed=solver_seed)
    solve_seconds = time.perf_counter() - started

    return {
        "schema_version": PLACE_SCHEMA_VERSION,
        "run_key": run_key(spec.name, seed, overrides, spec.fingerprint()),
        "scale": spec.scale,
        "seed": seed,
        "method": method,
        "omega": omega,
        "nodes": spec.nodes,
        "candidate_count": problem.candidate_count,
        "client_count": problem.client_count,
        "hub_count": plan.hub_count,
        "management_cost": round(plan.management_cost, 6),
        "synchronization_cost": round(plan.synchronization_cost, 6),
        "balance_cost": round(plan.balance_cost, 6),
        "solve_seconds": round(solve_seconds, 4),
    }


class PlacementCompareRunner(JsonlGridRunner):
    """Runs a placement sweep's full grid over worker processes, resumably."""

    schema_version = PLACE_SCHEMA_VERSION

    def __init__(
        self,
        spec: PlacementCompareSpec,
        results_dir: str = os.path.join("results", "place"),
        workers: int = 1,
        **resilience,
    ) -> None:
        super().__init__(results_dir=results_dir, workers=workers, **resilience)
        self.spec = spec

    @property
    def results_name(self) -> str:
        """The sweep's name (stem of the results file)."""
        return self.spec.name

    def expected_keys(self) -> List[str]:
        """Run keys of the full methods x omegas x seeds grid, in grid order."""
        from repro.scenarios.runner import run_key

        fingerprint = self.spec.fingerprint()
        return [
            run_key(self.spec.name, seed, overrides, fingerprint)
            for seed, overrides in self.spec.expand_runs()
        ]

    def pending_tasks(self) -> List[Tuple[Dict[str, object], int, Dict[str, object]]]:
        """Grid entries not yet present in the results file, in grid order."""
        from repro.scenarios.runner import run_key

        done = self.completed_keys()
        spec_dict = self.spec.to_dict()
        fingerprint = self.spec.fingerprint()
        return [
            (spec_dict, seed, overrides)
            for seed, overrides in self.spec.expand_runs()
            if run_key(self.spec.name, seed, overrides, fingerprint) not in done
        ]

    def executor(self):
        """The module-level placement task function."""
        return execute_place_run
