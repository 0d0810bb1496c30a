"""Declarative scenario specifications.

Scenarios generalize the paper's evaluation setup (section VI: small-world
topologies, heavy-tailed transaction values, skewed recipients, deadlock
motifs) into data.  A :class:`ScenarioSpec` fully describes one
reproducible experiment family:
the topology to generate, the workload to offer, the routing schemes to
compare, the network dynamics to inject mid-run, the seeds to repeat over
and an optional parameter grid to sweep.  Specs are plain-data: they
serialize to and from nested dictionaries (JSON-safe), which is what the
scenario registry ships, the CLI prints, and the parallel runner sends to
worker processes.

Seed discipline: every run derives its topology/workload/dynamics/scheme
seeds from ``(base seed, purpose)`` with a stable hash, so results are
bit-identical regardless of execution order or worker count.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import itertools
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.baselines import SCHEME_REGISTRY, RoutingScheme, SplicerScheme
from repro.core.config import SplicerConfig
from repro.routing.router import RouterConfig
from repro.scenarios.dynamics import (
    ChannelClose,
    ChannelJam,
    ChannelOpen,
    DynamicsEvent,
    HubOutage,
    churn_events,
    hub_outage_events,
    jamming_events,
)
from repro.data.sources import get_topology_source, get_workload_source
from repro.simulator.experiment import ExperimentRunner, validate_stepping
from repro.simulator.workload import TransactionWorkload, WorkloadConfig, generate_workload
from repro.topology.datasets import TransactionValueDistribution
from repro.topology.network import PCNetwork

#: A source descriptor: either a bare kind name or ``{"kind": ..., **params}``.
SourceDescriptor = Union[str, Dict[str, object]]


def derive_seed(base: int, *parts: object) -> int:
    """A stable 31-bit seed derived from a base seed and a purpose label.

    Uses SHA-256 over the repr of the components, so the same (base, parts)
    always yields the same seed on every platform, Python hash randomization
    notwithstanding.
    """
    material = repr((int(base),) + tuple(parts)).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:4], "big") & 0x7FFFFFFF


# ---------------------------------------------------------------------- #
# topology
# ---------------------------------------------------------------------- #
def _normalize_descriptor(
    descriptor: SourceDescriptor, family: str
) -> Tuple[str, Dict[str, object]]:
    """Split a source descriptor into ``(kind, params)``."""
    if isinstance(descriptor, str):
        return descriptor, {}
    if isinstance(descriptor, dict) and "kind" in descriptor:
        return str(descriptor["kind"]), {
            key: value for key, value in descriptor.items() if key != "kind"
        }
    raise ValueError(
        f"{family} source must be a kind name or a dict with a 'kind' key, "
        f"got {descriptor!r}"
    )


@dataclass
class TopologySpec:
    """Which topology source to build the network from.

    Attributes:
        kind: Source name from the topology-source registry
            (:mod:`repro.data.sources`); the spelling for synthetic
            generators only -- data-backed sources go through ``source``.
        params: Keyword arguments passed to the source builder verbatim
            (e.g. ``node_count``, ``nearest_neighbors``).
        channel_scale: Scale of the paper's heavy-tailed channel-size
            distribution; ``None`` uses the generator's uniform sizing.
            Rejected (not ignored) by sources that do not support it.
        source: Explicit source descriptor -- a kind name or
            ``{"kind": ..., **params}``.  Takes precedence over ``kind``
            and ``params`` entirely.  This is the spelling for data-backed
            sources (``lightning-snapshot``), and its entries are
            reachable from grid overrides, e.g.
            ``topology.source.max_nodes``.
    """

    kind: str = "watts-strogatz"
    params: Dict[str, object] = field(default_factory=dict)
    channel_scale: Optional[float] = 1.0
    source: Optional[SourceDescriptor] = None

    def resolved_source(self) -> Tuple[str, Dict[str, object]]:
        """The effective ``(kind, params)``.

        An explicit ``source`` descriptor replaces both ``kind`` and
        ``params`` -- the legacy ``params`` field belongs to the legacy
        ``kind`` spelling (a Watts-Strogatz ``node_count`` means nothing to
        a snapshot loader), so the two spellings never mix.  ``kind`` names
        synthetic generators only; a data-backed source spelled through it
        is rejected here, where the parent resolves the spec, rather than
        inside a shard.
        """
        if self.source is not None:
            return _normalize_descriptor(self.source, "topology")
        if not get_topology_source(self.kind).synthetic:
            raise ValueError(
                f"the data-backed topology source {self.kind!r} cannot be spelled "
                f"through the 'kind' field; use topology.source = "
                f"{{'kind': {self.kind!r}, ...}} instead"
            )
        return self.kind, dict(self.params)

    def describe_source(self) -> Dict[str, object]:
        """The active source descriptor (for run manifests and reports)."""
        kind, params = self.resolved_source()
        info = get_topology_source(kind)
        return {"kind": kind, "params": params, "synthetic": info.synthetic}

    def build(self, seed: int) -> PCNetwork:
        """Build the funded network deterministically from ``seed``."""
        kind, params = self.resolved_source()
        info = get_topology_source(kind)
        if self.channel_scale not in (None, 1, 1.0) and not info.channel_scale:
            raise ValueError(
                f"topology source {kind!r} does not support channel_scale "
                f"(got channel_scale={self.channel_scale!r}); remove the "
                f"parameter or use a channel-scale-aware source"
            )
        kwargs = dict(params)
        if info.seeded:
            kwargs.setdefault("seed", seed)
        if info.channel_scale:
            kwargs.setdefault("channel_scale", self.channel_scale)
        return info.builder(**kwargs)


# ---------------------------------------------------------------------- #
# workload
# ---------------------------------------------------------------------- #
@dataclass
class WorkloadSpec:
    """Workload parameters plus optional flash-crowd bursts.

    The flat fields mirror :class:`~repro.simulator.workload.WorkloadConfig`
    and parameterize the default synthetic Poisson source; ``bursts`` is a
    list of ``(start, end, rate_multiplier)`` windows during which the
    arrival rate is multiplied, modeling flash-crowd demand spikes.

    ``source`` selects a different workload source from the registry
    (:mod:`repro.data.sources`) -- a kind name or ``{"kind": ..., **params}``
    -- e.g. ``{"kind": "ripple-trace", "path": ...}`` replays a payment
    trace instead of generating one.  Source params are reachable from grid
    overrides (``workload.source.time_scale``); the flat fields keep
    supplying defaults (duration, value scale, minimum value) that sources
    may honor.
    """

    duration: float = 8.0
    arrival_rate: float = 20.0
    value_scale: float = 1.0
    mean_value: float = 15.0
    tail_fraction: float = 0.08
    tail_start: float = 80.0
    sender_skew: float = 0.6
    recipient_skew: float = 1.2
    deadlock_fraction: float = 0.2
    min_value: float = 1.0
    bursts: List[List[float]] = field(default_factory=list)
    source: Optional[SourceDescriptor] = None

    def resolved_source(self) -> Tuple[str, Dict[str, object]]:
        """The effective ``(kind, params)``; no ``source`` means Poisson."""
        if self.source is None:
            return "poisson", {}
        return _normalize_descriptor(self.source, "workload")

    def describe_source(self) -> Dict[str, object]:
        """The active source descriptor (for run manifests and reports)."""
        kind, params = self.resolved_source()
        info = get_workload_source(kind)
        return {"kind": kind, "params": params, "synthetic": info.synthetic}

    def with_poisson_params(self, params: Dict[str, object]) -> "WorkloadSpec":
        """A copy with Poisson fields overridden from a source descriptor.

        Lets an explicit ``{"kind": "poisson", "arrival_rate": ...}``
        descriptor override the flat spec fields, so grid overrides compose
        identically through either spelling.
        """
        allowed = {
            spec_field.name for spec_field in fields(self) if spec_field.name != "source"
        }
        unknown = sorted(set(params) - allowed)
        if unknown:
            raise ValueError(
                f"unknown poisson workload parameter(s) {unknown}; "
                f"expected one of {sorted(allowed)}"
            )
        return replace(self, source=None, **params)

    def _config(self, seed: int, duration: float, arrival_rate: float) -> WorkloadConfig:
        return WorkloadConfig(
            duration=duration,
            arrival_rate=arrival_rate,
            value_distribution=TransactionValueDistribution(
                mean_value=self.mean_value,
                tail_fraction=self.tail_fraction,
                tail_start=self.tail_start,
            ),
            value_scale=self.value_scale,
            sender_skew=self.sender_skew,
            recipient_skew=self.recipient_skew,
            deadlock_fraction=self.deadlock_fraction,
            min_value=self.min_value,
            seed=seed,
        )

    def build(self, network: PCNetwork, seed: int):
        """Build the workload by dispatching to the active source.

        Returns either a materialized
        :class:`~repro.simulator.workload.TransactionWorkload` or a
        :class:`~repro.simulator.workload.StreamingWorkload`, depending on
        the source.
        """
        kind, params = self.resolved_source()
        info = get_workload_source(kind)
        return info.builder(network, seed, params, self)

    def build_poisson(self, network: PCNetwork, seed: int) -> TransactionWorkload:
        """Generate the synthetic workload (baseline Poisson process plus bursts)."""
        base = generate_workload(network, self._config(seed, self.duration, self.arrival_rate))
        requests = list(base.requests)
        for index, burst in enumerate(self.bursts):
            start, end, multiplier = float(burst[0]), float(burst[1]), float(burst[2])
            extra_rate = self.arrival_rate * (multiplier - 1.0)
            if end <= start or extra_rate <= 0:
                continue
            extra = generate_workload(
                network,
                self._config(derive_seed(seed, "burst", index), end - start, extra_rate),
            )
            requests.extend(
                replace(request, arrival_time=request.arrival_time + start)
                for request in extra.requests
            )
        requests.sort(key=lambda request: request.arrival_time)
        return TransactionWorkload(
            requests=requests, config=base.config, deadlock_motifs=base.deadlock_motifs
        )


# ---------------------------------------------------------------------- #
# dynamics
# ---------------------------------------------------------------------- #
@dataclass
class DynamicsEventSpec:
    """One declarative dynamics entry, resolved against the built network.

    Kinds:
        ``channel-close`` / ``channel-open`` / ``hub-outage`` / ``channel-jam``
            One concrete event; targets come from ``params`` (for
            ``hub-outage`` without an explicit ``node``, and for the
            factory kinds, targets are resolved from the topology).
        ``churn``
            A train of random channel closures with reopening
            (params: ``count``, ``start``, ``end``, ``down_time``).
        ``jamming``
            Jams the highest-capacity channels
            (params: ``count``, ``fraction``).
    """

    kind: str = "channel-close"
    time: float = 0.0
    duration: Optional[float] = None
    params: Dict[str, object] = field(default_factory=dict)

    def build(self, network: PCNetwork, rng: np.random.Generator) -> List[DynamicsEvent]:
        """Resolve the spec into concrete events on the given network."""
        params = dict(self.params)
        if self.kind == "channel-close":
            return [
                ChannelClose(
                    time=self.time,
                    duration=self.duration,
                    node_a=params["node_a"],
                    node_b=params["node_b"],
                )
            ]
        if self.kind == "channel-open":
            return [
                ChannelOpen(
                    time=self.time,
                    duration=self.duration,
                    node_a=params["node_a"],
                    node_b=params["node_b"],
                    balance_a=float(params.get("balance_a", 100.0)),
                    balance_b=params.get("balance_b"),
                )
            ]
        if self.kind == "hub-outage":
            if "node" in params:
                return [HubOutage(time=self.time, duration=self.duration, node=params["node"])]
            return hub_outage_events(
                network,
                at=self.time,
                duration=self.duration,
                count=int(params.get("count", 1)),
            )
        if self.kind == "channel-jam":
            return [
                ChannelJam(
                    time=self.time,
                    duration=self.duration,
                    node_a=params["node_a"],
                    node_b=params["node_b"],
                    fraction=float(params.get("fraction", 0.9)),
                )
            ]
        if self.kind == "churn":
            return churn_events(
                network,
                rng,
                count=int(params.get("count", 10)),
                start=float(params.get("start", self.time)),
                end=float(params.get("end", self.time + 5.0)),
                down_time=float(params.get("down_time", self.duration or 2.0)),
            )
        if self.kind == "jamming":
            return jamming_events(
                network,
                at=self.time,
                duration=self.duration,
                count=int(params.get("count", 10)),
                fraction=float(params.get("fraction", 0.9)),
            )
        raise ValueError(f"unknown dynamics kind {self.kind!r}")


# ---------------------------------------------------------------------- #
# schemes
# ---------------------------------------------------------------------- #
@dataclass
class SchemeSpec:
    """One routing scheme by registry name plus constructor parameters."""

    name: str = "splicer"
    params: Dict[str, object] = field(default_factory=dict)

    def build(self) -> RoutingScheme:
        """Instantiate the scheme from the baselines registry.

        An unknown scheme name or constructor parameter raises a
        ``ValueError`` naming both, so :meth:`ScenarioSpec.validate` can
        report it from the parent before any shard is dispatched.
        """
        if self.name not in SCHEME_REGISTRY:
            raise ValueError(
                f"unknown scheme {self.name!r}; expected one of {sorted(SCHEME_REGISTRY)}"
            )
        params = dict(self.params)
        if self.name == "splicer":
            router_params = dict(params.pop("router", {}))
            self._reject_unknown(RouterConfig, router_params, prefix="router.")
            self._reject_unknown(SplicerConfig, params)
            config = SplicerConfig(
                router=RouterConfig(**router_params),
                placement_method=params.pop("placement_method", "greedy"),
                placement_seed=params.pop("placement_seed", 0),
                **params,
            )
            return SplicerScheme(config)
        factory = SCHEME_REGISTRY[self.name]
        self._reject_unknown(factory, params)
        return factory(**params)

    def _reject_unknown(self, factory: type, params: Dict[str, object], prefix: str = "") -> None:
        """Raise for the first of ``params`` that ``factory`` does not accept."""
        accepted = inspect.signature(factory).parameters
        for key in params:
            if key not in accepted:
                removed = " (the execution-backend option was removed)" if key == "backend" else ""
                raise ValueError(
                    f"scheme {self.name!r}: unknown parameter {prefix + key!r}{removed}; "
                    f"expected one of {sorted(accepted)}"
                )


# ---------------------------------------------------------------------- #
# the scenario itself
# ---------------------------------------------------------------------- #
@dataclass
class ScenarioSpec:
    """A complete, serializable scenario definition.

    Attributes:
        name: Registry / results-file name.
        description: One-line human description (shown by ``repro list``).
        topology / workload / schemes / dynamics: The experiment pieces.
        seeds: Base seeds; every seed is one independent run.
        grid: Parameter sweep as dotted override paths to value lists, e.g.
            ``{"workload.value_scale": [1, 2, 4]}``; the runner executes the
            full Cartesian product for every seed.
        step_size / drain_time: Experiment-runner stepping parameters.
        obs: Observability settings, or ``None`` (the default) for no
            recording.  Keys: ``dir`` (artifact directory; per-run trace
            JSONL and health NPZ files land there), ``sample_rate``
            (fraction of payments traced), ``trace_seed`` (sampling seed,
            independent of all simulation seeds) and ``health_interval``
            (probe period in simulated seconds; 0 disables health probes).
            Observability is transparent -- metrics are bit-identical with
            it on or off -- so it stays out of the runner's resume
            fingerprint.
        fault_plan: Serialized deterministic fault-injection plan
            (:meth:`~repro.scenarios.faults.FaultPlan.to_dict`), or ``None``
            (the default) for no injection.  Faults perturb *execution*,
            never results -- a faulted sweep retries/resumes to the same
            rows a clean sweep produces -- so the field is pruned while
            unset and excluded from the resume fingerprint like ``obs``.
    """

    name: str
    description: str = ""
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    schemes: List[SchemeSpec] = field(
        default_factory=lambda: [SchemeSpec(name="splicer"), SchemeSpec(name="spider")]
    )
    dynamics: List[DynamicsEventSpec] = field(default_factory=list)
    seeds: List[int] = field(default_factory=lambda: [1])
    grid: Dict[str, List[object]] = field(default_factory=dict)
    step_size: float = 0.1
    drain_time: float = 4.0
    obs: Optional[Dict[str, object]] = None
    fault_plan: Optional[Dict[str, object]] = None

    # -- serialization ------------------------------------------------- #
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict (JSON-safe) representation.

        An unset ``source`` is pruned from the topology/workload sections:
        specs that predate the source-provider API keep the exact dict
        shape (and therefore the exact resume fingerprint) they had before
        the field existed.
        """
        data = asdict(self)
        for section in ("topology", "workload"):
            sub = data.get(section)
            if isinstance(sub, dict) and sub.get("source") is None:
                sub.pop("source", None)
        if data.get("fault_plan") is None:
            data.pop("fault_plan", None)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        payload = copy.deepcopy(dict(data))
        payload["topology"] = TopologySpec(**payload.get("topology", {}))
        payload["workload"] = WorkloadSpec(**payload.get("workload", {}))
        payload["schemes"] = [SchemeSpec(**entry) for entry in payload.get("schemes", [])]
        payload["dynamics"] = [
            DynamicsEventSpec(**entry) for entry in payload.get("dynamics", [])
        ]
        known = {spec_field.name for spec_field in fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})

    # -- overrides and grid expansion ---------------------------------- #
    def with_overrides(self, overrides: Dict[str, object]) -> "ScenarioSpec":
        """A deep copy with dotted-path fields replaced.

        Paths traverse dataclass attributes, dictionary keys and list
        indices, e.g. ``workload.arrival_rate``,
        ``topology.params.node_count`` or ``dynamics.0.params.fraction``.
        """
        spec = copy.deepcopy(self)
        for path, value in overrides.items():
            target: object = spec
            parts = path.split(".")
            for part in parts[:-1]:
                if isinstance(target, dict):
                    target = target[part]
                elif isinstance(target, list):
                    target = target[int(part)]
                else:
                    target = getattr(target, part)
            last = parts[-1]
            if isinstance(target, dict):
                target[last] = value
            elif isinstance(target, list):
                target[int(last)] = value
            elif hasattr(target, last):
                setattr(target, last, value)
            else:
                raise KeyError(f"override path {path!r} does not resolve on {type(target).__name__}")
        return spec

    def _grid_points(self) -> List[Dict[str, object]]:
        """Every override combination of the grid (one empty dict without one)."""
        keys = sorted(self.grid)
        return [
            dict(zip(keys, values))
            for values in itertools.product(*(self.grid[key] for key in keys))
        ]

    def expand_runs(self) -> List[Tuple[int, Dict[str, object]]]:
        """All (seed, overrides) pairs of the seeds x grid Cartesian product."""
        combos = self._grid_points()
        return [(seed, dict(combo)) for seed in self.seeds for combo in combos]

    def validate(self) -> None:
        """Resolve, for every grid point, what a shard would only find at build time.

        Source names are looked up in their registries, every scheme is
        constructed once (constructors are cheap and need no network) and
        the stepping parameters go through the experiment runner's own
        check, so a mistyped source, scheme name, scheme parameter or a
        non-positive ``step_size`` raises ``ValueError`` in the parent -- a
        configuration error -- instead of failing inside each shard, where
        it would be retried as if transient and then quarantined.
        """
        for overrides in self._grid_points():
            point = self.with_overrides(overrides) if overrides else self
            validate_stepping(point.step_size, point.drain_time)
            point.topology.describe_source()
            point.workload.describe_source()
            for scheme in point.scheme_specs():
                scheme.build()

    # -- building ------------------------------------------------------ #
    def scheme_specs(self) -> List[SchemeSpec]:
        """The scheme list with plain-dict entries coerced to specs.

        Grid overrides may replace a whole ``schemes.<i>`` entry with a
        serialized dict (the comparison pipeline shards its scheme dimension
        that way); they are normalized here so every consumer sees
        :class:`SchemeSpec` objects.
        """
        return [
            entry if isinstance(entry, SchemeSpec) else SchemeSpec(**entry)
            for entry in self.schemes
        ]

    def build_experiment(
        self, seed: int, network: Optional[PCNetwork] = None
    ) -> Tuple[ExperimentRunner, List[RoutingScheme]]:
        """Build the runner (network + workload + dynamics) and the schemes.

        ``network`` may carry a pre-built topology (the shared-memory
        compare path reconstructs it from a read-only block); it must be
        identical to what ``topology.build`` would produce for ``seed``,
        which :class:`~repro.topology.shared.SharedTopologyBlock`
        guarantees by preserving node, adjacency and channel order.
        """
        if network is None:
            network = self.topology.build(derive_seed(seed, "topology"))
        workload = self.workload.build(network, derive_seed(seed, "workload"))
        dynamics_rng = np.random.default_rng(derive_seed(seed, "dynamics"))
        events: List[DynamicsEvent] = []
        for event_spec in self.dynamics:
            events.extend(event_spec.build(network, dynamics_rng))
        events.sort(key=lambda event: event.time)
        runner = ExperimentRunner(
            network,
            workload,
            step_size=self.step_size,
            drain_time=self.drain_time,
            dynamics=events,
        )
        return runner, [scheme_spec.build() for scheme_spec in self.scheme_specs()]
