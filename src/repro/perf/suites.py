"""Benchmark suites: routing step, scenario run, path generation, placement.

Each scale (``small``/``medium``/``large``) defines one suite of seven
benchmark groups:

* ``routing-step`` -- one epoch of Algorithm 2's price/rate update
  (required-funds report, equations 21-22 over every channel, equation 26
  over every registered path) plus the per-interval arrival observations,
  on a synthetic multipath state.
* ``scenario-run`` -- a full experiment run of the Splicer scheme over a
  Watts-Strogatz topology (workload replay, dispatch, HTLC locks, metrics).
* ``path-generation`` -- per-pair path-catalog generation with all four
  Table-II selectors (KSP / heuristic / EDW / EDS) on a figure-8-family
  topology.  The large scale runs at the paper's figure-8 network size
  (3000 nodes), where path generation dominates pipeline setup.
* ``fig8-compare`` -- one comparison step of the figure-8 pipeline: the four
  source-routing baselines replayed over one workload with epoch-batched
  dispatch.
* ``scheme-zoo`` -- the non-source-routing additions to the comparison
  (SpeedyMurmurs' embedding routing with churn-reactive repair, and the
  waterfilling splitter) replayed over one workload.
* ``placement-solver`` -- the placement facade on the same topology family
  (exact method at small scale, double-greedy above); the large suite adds
  ``placement-solver/paper``, one figure-9 paper-scale shard (3000 nodes).
* ``topology-state`` -- what every shard pays before it routes anything and
  between schemes: build the funded topology and its CSR mirror, snapshot
  it, restore it three times, refresh the kernels' balance vector ten
  times.  Its ``peak_mib`` is the memory gate on the channel-state layout.

Records are named ``<group>/<scale>``.

The ``xl-small`` suite is separate: next to its own ``topology-state`` row
it contains the ``xl-epoch-stepper`` group, which replays a payment-heavy
workload (100k arrivals) through a constant-time null scheme.  The null
scheme isolates the runner's arrival-delivery machinery -- the sorted
cursor's one ``searchsorted`` slice per drain -- so the row's time gate and
memory ceiling catch per-payment work or a per-payment materialization
creeping back into the path every replay takes.

Everything is seeded; two runs on one machine measure the same work.  Every
call starts from an empty hop-count path memo (:func:`_cold_step`), so a
repeat times the kernels, not dict hits.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.baselines import (
    FlashScheme,
    LandmarkScheme,
    RoutingScheme,
    SchemeStepReport,
    ShortestPathScheme,
    SpeedyMurmursScheme,
    SpiderScheme,
    SplicerScheme,
    WaterfillingScheme,
)
from repro.perf.harness import BenchmarkSpec
from repro.placement.compare import build_place_network
from repro.placement.solver import solve_placement
from repro.routing.paths import PATH_SELECTORS
from repro.routing.prices import PriceTable
from repro.routing.rate_control import PathRateController
from repro.simulator.experiment import ExperimentRunner
from repro.simulator.workload import WorkloadConfig, generate_workload
from repro.topology import csr  # PCNetwork imports it lazily; not inside a memory probe
from repro.topology.network import PCNetwork
from repro.topology.generators import watts_strogatz_pcn

#: Scale parameters of the three suites.
SCALES: Dict[str, Dict[str, object]] = {
    "small": {
        "pairs": 60,
        "paths_per_pair": 3,
        "observe_every": 3,
        "nodes": 30,
        "duration": 2.0,
        "arrival_rate": 10.0,
        "placement_method": "exact",
        "candidate_fraction": 0.2,
        "pathgen_nodes": 200,
        "pathgen_pairs": 12,
        "pathgen_k": 3,
    },
    "medium": {
        "pairs": 300,
        "paths_per_pair": 4,
        "observe_every": 3,
        "nodes": 60,
        "duration": 3.0,
        "arrival_rate": 15.0,
        "placement_method": "greedy",
        "candidate_fraction": 0.2,
        "pathgen_nodes": 1000,
        "pathgen_pairs": 10,
        "pathgen_k": 5,
    },
    "large": {
        "pairs": 1200,
        "paths_per_pair": 5,
        "observe_every": 3,
        "nodes": 100,
        "duration": 4.0,
        "arrival_rate": 20.0,
        "placement_method": "greedy",
        "candidate_fraction": 0.15,
        "pathgen_nodes": 3000,
        "pathgen_pairs": 10,
        "pathgen_k": 5,
    },
}


#: Parameters of the arrival-cursor suite: a small topology carrying a
#: payment-heavy workload, so arrival delivery dominates.
XL_SCALES: Dict[str, Dict[str, object]] = {
    "xl-small": {"nodes": 400, "duration": 8.0, "arrival_rate": 12500.0},
}


def _cold_step(state) -> None:
    """``state.step()`` from an empty hop-count path memo.

    The memo (``csr._PATH_MEMO``) outlives a call, so without the reset every
    repeat after the warmup would answer its KSP / EDS / shortest-path
    queries from a dict and the row would stop timing those kernels.
    """
    csr._PATH_MEMO.clear()
    state.step()


def _spec(group: str, scale: str, setup, meta, inner: int = 1) -> BenchmarkSpec:
    """One benchmark named ``<group>/<scale>`` timing ``state.step()`` cold."""
    return BenchmarkSpec(
        name=f"{group}/{scale}",
        group=group,
        scale=scale,
        setup=setup,
        fn=_cold_step,
        inner=inner,
        meta=meta,
    )


def _topology(nodes: int, seed: int, candidate_fraction: float = 0.2) -> PCNetwork:
    """The suites' funded Watts-Strogatz topology."""
    return watts_strogatz_pcn(
        nodes,
        nearest_neighbors=4,
        rewire_probability=0.2,
        uniform_channel_size=200.0,
        candidate_fraction=candidate_fraction,
        seed=seed,
    )


# ---------------------------------------------------------------------- #
# routing step
# ---------------------------------------------------------------------- #
class _RoutingStepState:
    """Synthetic hub-relay multipath state driving one epoch update per call.

    ``pairs`` source/target pairs, each with ``paths_per_pair`` disjoint
    two-hop paths through private relays (the classic multipath motif), with
    seeded rates, demand caps and a rotating subset of pairs observing
    transfers each epoch -- the state shape the router maintains mid-run.
    """

    def __init__(self, pairs: int, paths_per_pair: int, observe_every: int) -> None:
        rng = np.random.default_rng(20230710)
        network = PCNetwork()
        self.pairs = []
        for i in range(pairs):
            source, target = f"s{i}", f"t{i}"
            network.add_node(source)
            network.add_node(target)
            paths = []
            for k in range(paths_per_pair):
                relay = f"r{i}_{k}"
                network.add_node(relay)
                near = 50.0 + 100.0 * rng.random()
                far = 50.0 + 100.0 * rng.random()
                network.add_channel(source, relay, near, near)
                network.add_channel(relay, target, far, far)
                paths.append((source, relay, target))
            self.pairs.append(((source, target), paths))
        self.table = PriceTable(network)
        self.controller = PathRateController(min_rate=0.5, initial_rate=5.0, alpha=1.0)
        for (source, target), paths in self.pairs:
            state = self.controller.register_pair(source, target, paths)
            state.rates = [float(rate) for rate in 10.0 * rng.random(len(paths)) + 1.0]
            if rng.random() < 0.5:
                state.demand_rate = float(20.0 * rng.random() + 5.0)
        self.observe_every = observe_every
        self.settlement_delay = 0.2
        self._epoch = 0

    def step(self) -> None:
        # A rotating third of the pairs carried traffic since the last update.
        offset = self._epoch % self.observe_every
        for (_, paths) in self.pairs[offset :: self.observe_every]:
            for path in paths[:2]:
                for sender, receiver in zip(path, path[1:]):
                    self.table.observe_transfer(sender, receiver, 5.0)
        self.controller.report_required_funds(self.table, self.settlement_delay)
        self.table.update_all()
        self.controller.update_rates(self.table)
        self._epoch += 1


def _routing_step_spec(scale: str) -> BenchmarkSpec:
    p = SCALES[scale]
    return _spec(
        "routing-step",
        scale,
        lambda: _RoutingStepState(p["pairs"], p["paths_per_pair"], p["observe_every"]),
        {"pairs": p["pairs"], "paths_per_pair": p["paths_per_pair"]},
        inner={"small": 20, "medium": 10, "large": 5}[scale],
    )


# ---------------------------------------------------------------------- #
# workload replays: scenario run, figure-8 step, scheme zoo, epoch stepper
# ---------------------------------------------------------------------- #
class _NullScheme(RoutingScheme):
    """A constant-time sink: accepts every batch and completes nothing, so a
    run through it measures the runner's arrival-delivery machinery and
    essentially nothing else."""

    name = "null"

    def submit(self, request, now):  # pragma: no cover - batch path only
        raise NotImplementedError("null scheme is batch-only")

    def route_batch(self, requests):
        return []

    def step(self, now, dt):
        return SchemeStepReport()


#: Per replay group: scheme factories and the (topology, workload, run) seeds.
_REPLAYS = {
    # The Splicer scheme end to end: workload replay, dispatch, HTLC locks, metrics.
    "scenario-run": ([SplicerScheme], (11, 5, 3)),
    # One comparison step: the four source-routing baselines over one workload.
    "fig8-compare": (
        [SpiderScheme, lambda: FlashScheme(seed=3), LandmarkScheme, ShortestPathScheme],
        (17, 23, 9),
    ),
    # Same shape, very different profile: BFS embedding builds and greedy
    # coordinate walks; edge-disjoint path generation and the shares hook.
    "scheme-zoo": ([SpeedyMurmursScheme, WaterfillingScheme], (17, 23, 9)),
    # Arrival delivery only.
    "xl-epoch-stepper": ([_NullScheme], (41, 43, 7)),
}


class _ReplayState:
    """A funded topology plus workload, built once; each call replays the run.

    Fresh scheme instances per call (path catalogs are rebuilt each run,
    exactly as the compare pipeline does).
    """

    def __init__(self, group: str, nodes: int, duration: float, arrival_rate: float) -> None:
        self._factories, (topology_seed, workload_seed, self._run_seed) = _REPLAYS[group]
        self.network = _topology(nodes, topology_seed)
        self.workload = generate_workload(
            self.network,
            WorkloadConfig(duration=duration, arrival_rate=arrival_rate, seed=workload_seed),
        )
        self.runner = ExperimentRunner(self.network, self.workload, step_size=0.1)

    def step(self) -> None:
        rng = np.random.default_rng(self._run_seed)
        for factory in self._factories:
            self.runner.run_single(factory(), rng=rng)


def _replay_spec(group: str, scale: str) -> BenchmarkSpec:
    p = XL_SCALES[scale] if scale in XL_SCALES else SCALES[scale]
    meta = {key: p[key] for key in ("nodes", "duration", "arrival_rate")}
    return _spec(group, scale, lambda: _ReplayState(group, **meta), meta)


# ---------------------------------------------------------------------- #
# path generation
# ---------------------------------------------------------------------- #
class _PathGenerationState:
    """A figure-8-family topology plus a seeded pair sample.

    Each call regenerates the full per-pair Table-II path catalog (all four
    selectors at the scale's ``k``) -- the setup work one compare-shard
    worker performs before routing anything.  Balances are skewed by seeded
    transfers first so the widest-path and heuristic selectors rank over
    non-degenerate liquidity.
    """

    def __init__(self, nodes: int, pairs: int, k: int) -> None:
        self.network = watts_strogatz_pcn(
            nodes,
            nearest_neighbors=8,
            rewire_probability=0.25,
            uniform_channel_size=200.0,
            candidate_fraction=0.08,
            seed=29,
        )
        rng = np.random.default_rng(31)
        for channel in self.network.channels():
            channel.transfer(
                channel.node_a, float(rng.uniform(0.0, 0.9 * channel.balance(channel.node_a)))
            )
        node_list = self.network.nodes()
        sampled = []
        while len(sampled) < pairs:
            source = node_list[int(rng.integers(len(node_list)))]
            target = node_list[int(rng.integers(len(node_list)))]
            if source != target:
                sampled.append((source, target))
        self.pairs = sampled
        self.k = k
        self.selectors = [PATH_SELECTORS[name] for name in ("ksp", "heuristic", "edw", "eds")]

    def step(self) -> None:
        for source, target in self.pairs:
            for selector in self.selectors:
                selector(self.network, source, target, self.k)


def _path_generation_spec(scale: str) -> BenchmarkSpec:
    p = SCALES[scale]
    meta = {"nodes": p["pathgen_nodes"], "pairs": p["pathgen_pairs"], "k": p["pathgen_k"]}
    return _spec("path-generation", scale, lambda: _PathGenerationState(**meta), meta)


# ---------------------------------------------------------------------- #
# placement solver
# ---------------------------------------------------------------------- #
class _PlacementState:
    """A candidate-bearing topology; each call re-solves placement.

    The cost model is rebuilt per call (hop-count probing included), so the
    measurement covers the full ``solve_placement(network)`` path exactly as
    the Splicer system and the figure-9 pipeline invoke it.  The small scale
    solves with the exact branch-and-bound, which ranks subsets with the
    sequentially accumulated ``sequential_placement_cost`` (that order pins
    which tied subset it reports); the greedy scales (medium/large) measure
    the regrouped ``vectorized_placement_cost`` probes.
    """

    def __init__(self, network: PCNetwork, method: str, omega: float = 0.05, **options) -> None:
        self.network = network
        self.options = dict(omega=omega, method=method, seed=0, **options)

    def step(self) -> None:
        solve_placement(self.network, **self.options)


def _placement_spec(scale: str) -> BenchmarkSpec:
    p = SCALES[scale]
    meta = {"nodes": p["nodes"], "method": p["placement_method"]}
    return _spec(
        "placement-solver",
        scale,
        lambda: _PlacementState(
            _topology(p["nodes"], 13, p["candidate_fraction"]), p["placement_method"]
        ),
        meta,
    )


def _paper_placement_spec() -> BenchmarkSpec:
    """One figure-9 paper-scale shard, network -> plan (3000 nodes, 8 % candidates).

    The three ``SCALES`` rows top out at 100 nodes and cannot see the cost
    matrices or the probe kernel; this is the instance family and method of
    ``place-compare --scale paper``.
    """
    meta = {"nodes": 3000, "method": "greedy-det", "omega": 0.02}
    return _spec(
        "placement-solver",
        "paper",
        lambda: _PlacementState(
            build_place_network(meta, 13), "greedy", meta["omega"], deterministic_greedy=True
        ),
        meta,
    )


# ---------------------------------------------------------------------- #
# topology state
# ---------------------------------------------------------------------- #
class _TopologyStateState:
    """Channel-state set-up and reset on the suite's largest topology.

    Each call rebuilds the funded network channel by channel (from an edge
    list taken once, so no generator transient sits in the measurement) and
    its CSR mirror, snapshots it, then alternates a balance mutation with a
    restore (3x) and with a balance-vector refresh (10x) -- the mutation
    keeps either from being skipped as a no-op.  Everything is allocated
    inside the call, so the record's ``peak_mib`` is the whole layout:
    channels, store, adjacency, mirror and snapshot.
    """

    def __init__(self, nodes: int) -> None:
        template = _topology(nodes, 37)
        self.nodes = [(node, template.role(node)) for node in template.nodes()]
        self.edges = [
            (*channel.endpoints, *channel.balance_pair()) for channel in template.channels()
        ]

    def step(self) -> None:
        network = PCNetwork()
        for node, role in self.nodes:
            network.add_node(node, role=role)
        for edge in self.edges:
            network.add_channel(*edge)
        arrays = network.graph_arrays()
        snapshot = network.snapshot()
        channel = next(network.channels())
        for _ in range(3):
            channel.transfer(channel.node_a, 1.0)
            network.restore(snapshot)
        for _ in range(10):
            channel.transfer(channel.node_a, 1.0)
            arrays.refresh_balances()


def _topology_state_spec(scale: str) -> BenchmarkSpec:
    nodes = XL_SCALES[scale]["nodes"] if scale in XL_SCALES else SCALES[scale]["pathgen_nodes"]
    return _spec("topology-state", scale, lambda: _TopologyStateState(nodes), {"nodes": nodes})


def build_suite(scale: str) -> List[BenchmarkSpec]:
    """All benchmarks of one scale."""
    if scale in XL_SCALES:
        return [_replay_spec("xl-epoch-stepper", scale), _topology_state_spec(scale)]
    if scale not in SCALES:
        raise KeyError(
            f"unknown suite {scale!r}; choose from {sorted(SCALES) + sorted(XL_SCALES)}"
        )
    return [
        _routing_step_spec(scale),
        _replay_spec("scenario-run", scale),
        _path_generation_spec(scale),
        _replay_spec("fig8-compare", scale),
        _replay_spec("scheme-zoo", scale),
        _placement_spec(scale),
        *([_paper_placement_spec()] if scale == "large" else []),
        _topology_state_spec(scale),
    ]


def build_suites(scales: List[str]) -> List[BenchmarkSpec]:
    """Benchmarks of several scales, in the given order."""
    specs: List[BenchmarkSpec] = []
    for scale in scales:
        specs.extend(build_suite(scale))
    return specs
