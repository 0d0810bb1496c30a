"""Named registry of built-in scenarios.

Every entry is a zero-argument factory returning a fresh
:class:`~repro.scenarios.spec.ScenarioSpec`, so callers can freely mutate
what they get back.  The built-ins cover the paper's static evaluation plus
the dynamic/adversarial conditions the reproduction adds on top:

====================  =====================================================
``paper-default``     The figure-7 setting: 60-node funded small world,
                      heavy-tailed values, skewed recipients, deadlock
                      motifs; all five schemes.
``large-scale``       The figure-8 direction: a larger network where source
                      routing pays its computation penalty.
``flash-crowd``       Arrival-rate burst (5x) mid-run.
``channel-churn``     Random channels close and reopen throughout the run.
``hub-failure``       The two best-connected hubs fail mid-run and recover.
``channel-jamming``   An adversary locks 90% of the liquidity of the
                      highest-capacity channels for most of the run.
``real-trace``        Real graph x real payments: the bundled Lightning
                      snapshot replayed against the bundled Ripple trace
                      through the source-provider API.
``scheme-zoo``        The embedding/flow-router zoo: SpeedyMurmurs and
                      waterfilling against splicer/spider under channel
                      churn (the coordinate-repair stress test).
====================  =====================================================

Register custom scenarios with :func:`register_scenario`.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Dict, List, Optional

from repro.data.sources import get_topology_source
from repro.scenarios.spec import (
    DynamicsEventSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    WorkloadSpec,
    split_descriptor,
)

ScenarioFactory = Callable[[], ScenarioSpec]

_REGISTRY: Dict[str, ScenarioFactory] = {}


def register_scenario(factory: ScenarioFactory) -> ScenarioFactory:
    """Register a scenario factory under its spec's name."""
    _REGISTRY[factory().name] = factory
    return factory


def get_scenario(name: str) -> ScenarioSpec:
    """A fresh spec of the named scenario; raises ``KeyError`` with options."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def list_scenarios() -> Dict[str, str]:
    """Mapping of scenario name to its one-line description."""
    return {name: _REGISTRY[name]().description for name in scenario_names()}


# ---------------------------------------------------------------------- #
# built-ins
# ---------------------------------------------------------------------- #
def _paper_topology(node_count: int = 60) -> TopologySpec:
    return TopologySpec(
        kind="watts-strogatz",
        params={"node_count": node_count, "nearest_neighbors": 8, "rewire_probability": 0.25,
                "candidate_fraction": 0.15},
        channel_scale=1.0,
    )


def _all_schemes() -> List[SchemeSpec]:
    return [
        SchemeSpec(name="splicer"),
        SchemeSpec(name="spider"),
        SchemeSpec(name="flash"),
        SchemeSpec(name="landmark"),
        SchemeSpec(name="a2l"),
    ]


@register_scenario
def paper_default() -> ScenarioSpec:
    """The paper's small-scale comparison (figure 7), static network."""
    return ScenarioSpec(
        name="paper-default",
        description="Figure-7 setting: static small-world PCN, all five schemes",
        topology=_paper_topology(),
        workload=WorkloadSpec(),
        schemes=_all_schemes(),
        seeds=[1, 2],
    )


@register_scenario
def large_scale() -> ScenarioSpec:
    """The figure-8 direction: a larger network, rate-based schemes only.

    The paper runs 3000 nodes; the default here is CI-sized -- sweep
    ``topology.params.node_count`` (or pass ``--nodes``) to approach it.
    """
    return ScenarioSpec(
        name="large-scale",
        description="Figure-8 direction: larger network, source routing pays its penalty",
        topology=TopologySpec(
            kind="watts-strogatz",
            params={"node_count": 200, "nearest_neighbors": 10, "rewire_probability": 0.25,
                    "candidate_fraction": 0.08},
            channel_scale=1.0,
        ),
        workload=WorkloadSpec(arrival_rate=30.0),
        schemes=[SchemeSpec(name="splicer"), SchemeSpec(name="spider"), SchemeSpec(name="flash")],
        seeds=[1],
    )


@register_scenario
def flash_crowd() -> ScenarioSpec:
    """A 5x arrival burst in the middle of the run (demand spike)."""
    return ScenarioSpec(
        name="flash-crowd",
        description="5x arrival-rate burst mid-run; stresses queues and deadlines",
        topology=_paper_topology(),
        workload=WorkloadSpec(bursts=[[2.0, 4.0, 5.0]]),
        schemes=_all_schemes(),
        seeds=[1, 2],
    )


@register_scenario
def channel_churn() -> ScenarioSpec:
    """Channels leave and rejoin throughout the run (Lightning-style churn)."""
    return ScenarioSpec(
        name="channel-churn",
        description="Random channel close/reopen churn; stale paths must be dropped",
        topology=_paper_topology(),
        workload=WorkloadSpec(),
        schemes=_all_schemes(),
        dynamics=[
            DynamicsEventSpec(
                kind="churn",
                time=1.0,
                duration=2.0,
                params={"count": 30, "start": 1.0, "end": 6.0, "down_time": 2.0},
            )
        ],
        seeds=[1, 2],
    )


@register_scenario
def hub_failure() -> ScenarioSpec:
    """The best-connected hubs fail mid-run and recover later."""
    return ScenarioSpec(
        name="hub-failure",
        description="Top-2 hub outage at t=2s for 4s; the PCH stress test",
        topology=_paper_topology(),
        workload=WorkloadSpec(),
        schemes=_all_schemes(),
        dynamics=[
            DynamicsEventSpec(kind="hub-outage", time=2.0, duration=4.0, params={"count": 2})
        ],
        seeds=[1, 2],
    )


# ---------------------------------------------------------------------- #
# figure-8 comparison pipeline
# ---------------------------------------------------------------------- #
#: Node counts and offered load of the comparison scales.  ``paper`` is the
#: paper's figure-8 network size; ``large`` is the laptop-class default of
#: ``python -m repro compare``.  ``xl`` is the beyond-paper scale tier: a
#: 100k-node network offered one million payments (arrival_rate x the
#: default 8s duration); its workers share each seed's topology, and
#: ``--nodes`` / ``--payments`` shrink it to machine-sized smokes (see
#: ``docs/scaling.md``).
COMPARISON_SCALES: Dict[str, Dict[str, float]] = {
    "small": {"nodes": 60, "arrival_rate": 20.0},
    "medium": {"nodes": 200, "arrival_rate": 30.0},
    "large": {"nodes": 600, "arrival_rate": 40.0},
    "paper": {"nodes": 3000, "arrival_rate": 60.0},
    "xl": {"nodes": 100000, "arrival_rate": 125000.0},
}


def comparison_scheme_spec(scheme: str) -> SchemeSpec:
    """A figure-8 scheme spec: Splicer places with the double greedy."""
    if scheme == "splicer":
        return SchemeSpec(name="splicer", params={"placement_method": "greedy"})
    return SchemeSpec(name=scheme)


def node_size_key(topology: TopologySpec) -> Optional[str]:
    """The source parameter a node count sizes ``topology`` through
    (:attr:`~repro.data.sources.SourceInfo.size_key`)."""
    return get_topology_source(topology.kind).size_key


def required_size_key(topology: TopologySpec) -> str:
    """:func:`node_size_key`, or a ``ValueError`` for a source sized by its
    own parameters -- raised in the parent rather than ``--nodes`` being
    ignored."""
    key = node_size_key(topology)
    if key is None:
        raise ValueError(
            f"topology source {topology.kind!r} is sized by "
            f"its own parameters and takes no node count (--nodes)"
        )
    return key


def size_topology(topology: TopologySpec, nodes: int) -> None:
    """Set ``topology``'s node count (``--nodes``) through :func:`node_size_key`."""
    topology.params[required_size_key(topology)] = nodes


def build_comparison_spec(
    scale: str,
    schemes: List[str],
    seeds: Optional[List[int]] = None,
    duration: float = 8.0,
    nodes: Optional[int] = None,
    topology_source: Optional[object] = None,
    workload_source: Optional[object] = None,
) -> ScenarioSpec:
    """The figure-8 comparison at one scale, sharded one scheme per run.

    The scheme dimension goes into the grid as whole serialized
    :class:`SchemeSpec` entries (``schemes.0``), so every (scheme, seed)
    combination is an independent run the scenario runner can place on any
    worker process and resume from its JSONL results file.

    ``topology_source`` / ``workload_source`` swap the Watts-Strogatz
    topology and/or the Poisson workload for registered sources, each a
    kind name or a ``{"kind": ..., **params}`` descriptor, e.g.
    ``lightning-snapshot`` x ``ripple-trace`` for a real-graph-x-real-payments
    comparison.  The topology descriptor becomes the spec's ``kind`` and
    ``params``; the scale's node count (or a ``nodes`` override) fills the
    source's size key (:func:`node_size_key`: a loader's ``max_nodes`` cap,
    a generator's ``node_count``) unless the descriptor sets it.  A source
    sized by its own parameters keeps them.
    Source-backed specs fingerprint on their sources, so their JSONL
    sweeps resume independently of the synthetic ones.
    """
    try:
        params = COMPARISON_SCALES[scale]
    except KeyError:
        raise KeyError(
            f"unknown comparison scale {scale!r}; available: "
            f"{', '.join(sorted(COMPARISON_SCALES))}"
        ) from None
    nodes = int(params["nodes"]) if nodes is None else int(nodes)
    if topology_source is None:
        topology = TopologySpec(
            kind="watts-strogatz",
            params={
                "node_count": nodes,
                "nearest_neighbors": 8,
                "rewire_probability": 0.25,
                "candidate_fraction": 0.15 if nodes <= 150 else 0.08,
            },
            channel_scale=1.0,
        )
    else:
        topology = TopologySpec(*split_descriptor(topology_source, "topology"))
        key = node_size_key(topology)
        if key is not None:
            topology.params.setdefault(key, nodes)
    workload = WorkloadSpec(duration=duration, arrival_rate=float(params["arrival_rate"]))
    if workload_source is not None:
        workload.source = (
            {"kind": workload_source}
            if isinstance(workload_source, str)
            else dict(workload_source)
        )
    # A mistyped source name is a configuration error, not a shard fault:
    # resolve both names against the registries here, in the parent, so it
    # raises before any dispatch instead of being retried and quarantined.
    topology.describe_source()
    workload.describe_source()
    return ScenarioSpec(
        name=f"compare-{scale}",
        description=f"Figure-8 comparison at the {scale} scale ({nodes} nodes)",
        topology=topology,
        workload=workload,
        # A constant placeholder: every run's grid override replaces it, and
        # keeping it independent of --schemes keeps the spec fingerprint
        # (and therefore resume keys) stable across invocations that share
        # the same scale/workload but name different schemes.
        schemes=[SchemeSpec(name="splicer")],
        grid={"schemes.0": [asdict(comparison_scheme_spec(scheme)) for scheme in schemes]},
        seeds=list(seeds) if seeds else [1],
    )


@register_scenario
def compare_large() -> ScenarioSpec:
    """The default ``python -m repro compare`` configuration, for discovery."""
    return build_comparison_spec("large", ["splicer", "spider", "flash", "landmark"])


@register_scenario
def real_trace() -> ScenarioSpec:
    """Real graph x real payments over the bundled fixture datasets.

    Both sides go through the source-provider API: the topology is the
    bundled Lightning-style snapshot (normalized to paper units), the
    workload is the bundled Ripple-style trace compressed to the spec's
    duration and streamed in chunks.  Point ``topology.params.path`` /
    ``workload.source.path`` at full datasets (see ``docs/datasets.md``)
    to run the same scenario at paper scale and beyond.
    """
    return ScenarioSpec(
        name="real-trace",
        description="Bundled Lightning snapshot x Ripple trace via source providers",
        topology=TopologySpec(kind="lightning-snapshot"),
        workload=WorkloadSpec(duration=8.0, source={"kind": "ripple-trace"}),
        schemes=_all_schemes(),
        seeds=[1, 2],
    )


@register_scenario
def scheme_zoo() -> ScenarioSpec:
    """The newer baselines against the rate-based schemes, under churn.

    Churn is the point: SpeedyMurmurs' landmark-tree coordinates must
    repair on every channel close/reopen, so this scenario doubles as the
    dynamics-hook stress test for embedding-state schemes.
    """
    return ScenarioSpec(
        name="scheme-zoo",
        description="SpeedyMurmurs + waterfilling vs splicer/spider under channel churn",
        topology=_paper_topology(),
        workload=WorkloadSpec(),
        schemes=[
            SchemeSpec(name="splicer"),
            SchemeSpec(name="spider"),
            SchemeSpec(name="speedymurmurs"),
            SchemeSpec(name="waterfilling"),
        ],
        dynamics=[
            DynamicsEventSpec(
                kind="churn",
                time=1.0,
                duration=2.0,
                params={"count": 30, "start": 1.0, "end": 6.0, "down_time": 2.0},
            )
        ],
        seeds=[1, 2],
    )


@register_scenario
def channel_jamming() -> ScenarioSpec:
    """A jamming adversary locks up the biggest channels' liquidity."""
    return ScenarioSpec(
        name="channel-jamming",
        description="90% of the top-15 channels' liquidity locked from t=1s for 8s",
        topology=_paper_topology(),
        workload=WorkloadSpec(),
        schemes=_all_schemes(),
        dynamics=[
            DynamicsEventSpec(
                kind="jamming",
                time=1.0,
                duration=8.0,
                params={"count": 15, "fraction": 0.9},
            )
        ],
        seeds=[1, 2],
    )
