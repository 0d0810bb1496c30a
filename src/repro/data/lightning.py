"""Lightning-style channel-graph snapshot loader.

Turns a channel-graph snapshot -- ``lnd describegraph`` JSON or a simple
edge-list CSV -- into a funded :class:`~repro.topology.network.PCNetwork`
ready for placement and routing experiments:

1. **Parse** nodes and channels, tolerating the mess real snapshots carry
   (string-encoded capacities, missing fee policies, parallel channels
   between the same pair, zero-capacity edges).
2. **Normalize** capacities into the paper's token units -- by default the
   snapshot is rescaled so its *median* channel matches the paper's median
   channel size (152 tokens), preserving the capacity distribution's shape;
   base fees rescale by the same factor, proportional fee rates pass
   through unchanged.
3. **Reduce** to the largest connected component, optionally capped to
   ``max_nodes`` by keeping the highest-degree (then highest-capacity)
   nodes so the hub structure the paper's placement schemes target
   survives the cut.
4. **Assign roles**: the top ``candidate_fraction`` of nodes by degree
   become PCH candidates, mirroring the synthetic generators.

Everything here is deterministic -- no RNG is involved, ties break on node
ids -- so the source registers ``seeded=False`` and snapshot-backed runs
fingerprint/resume exactly like synthetic ones.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.data.fixtures import fixture_path
from repro.data.sources import last_parse, topology_source
from repro.topology.datasets import PAPER_CHANNEL_MEDIAN, PAPER_CHANNEL_MIN
from repro.topology.network import PCNetwork, reachable

__all__ = [
    "DEFAULT_SNAPSHOT_FIXTURE",
    "SnapshotChannel",
    "SnapshotGraph",
    "load_snapshot",
    "parse_snapshot",
    "snapshot_info",
]

DEFAULT_SNAPSHOT_FIXTURE = "lightning_small.json"

#: Accepted spellings for the two endpoint columns / keys.
_ENDPOINT_KEYS = (
    ("node1_pub", "node2_pub"),
    ("node1", "node2"),
    ("source", "target"),
    ("from", "to"),
)


@dataclass(frozen=True)
class SnapshotChannel:
    """One (aggregated) channel parsed from a snapshot."""

    node_a: str
    node_b: str
    capacity: float
    base_fee: float = 0.0
    fee_rate: float = 0.0


@dataclass
class SnapshotGraph:
    """Parsed snapshot: aggregated channels plus parse statistics."""

    channels: List[SnapshotChannel]
    nodes: List[str]
    #: raw channel records seen, before aggregation/dropping
    raw_channels: int = 0
    dropped_invalid: int = 0
    merged_parallel: int = 0
    isolated_nodes: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)


def _parse_amount(value: object) -> Optional[float]:
    """A float from a snapshot field, or ``None`` if it is not a number."""
    if value is None or isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _endpoints(record: Dict[str, object]) -> Optional[Tuple[str, str]]:
    for key_a, key_b in _ENDPOINT_KEYS:
        if key_a in record and key_b in record:
            node_a = str(record[key_a]).strip()
            node_b = str(record[key_b]).strip()
            if node_a and node_b:
                return node_a, node_b
            return None
    return None


def _policy_fees(record: Dict[str, object]) -> Tuple[float, float]:
    """Extract (base_fee, fee_rate) from explicit fields or an lnd policy.

    ``lnd`` policies quote base fees in millisatoshi and rates in
    milli-msat per sat (parts per million); both are converted to the
    snapshot's native capacity unit / plain proportions here so the later
    capacity normalization treats them uniformly.
    """
    base_fee = _parse_amount(record.get("base_fee"))
    fee_rate = _parse_amount(record.get("fee_rate"))
    if base_fee is None or fee_rate is None:
        for policy_key in ("node1_policy", "node2_policy"):
            policy = record.get(policy_key)
            if not isinstance(policy, dict):
                continue
            if base_fee is None:
                msat = _parse_amount(policy.get("fee_base_msat"))
                if msat is not None:
                    base_fee = msat / 1000.0
            if fee_rate is None:
                ppm = _parse_amount(policy.get("fee_rate_milli_msat"))
                if ppm is not None:
                    fee_rate = ppm / 1_000_000.0
            if base_fee is not None and fee_rate is not None:
                break
    return (
        max(base_fee, 0.0) if base_fee is not None else 0.0,
        max(fee_rate, 0.0) if fee_rate is not None else 0.0,
    )


def _iter_json_records(payload: object) -> Iterable[Dict[str, object]]:
    if isinstance(payload, dict):
        for key in ("edges", "channels"):
            records = payload.get(key)
            if isinstance(records, list):
                return (r for r in records if isinstance(r, dict))
        raise ValueError("snapshot JSON has no 'edges' or 'channels' list")
    if isinstance(payload, list):
        return (r for r in payload if isinstance(r, dict))
    raise ValueError("snapshot JSON must be an object or a list of channels")


def _iter_csv_records(path: str) -> Iterable[Dict[str, object]]:
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            yield {
                (key.strip().lower() if key else ""): value
                for key, value in row.items()
                if key is not None
            }


#: The last snapshot file :func:`parse_snapshot` parsed (see :func:`last_parse`).
_PARSED_SNAPSHOT: Dict[tuple, SnapshotGraph] = {}


def parse_snapshot(path: str) -> SnapshotGraph:
    """Parse a snapshot file into aggregated channels plus statistics.

    The last file's parse is kept per process while the file is unchanged;
    every call gets its own :class:`SnapshotGraph` and lists (the channel
    records are frozen).
    """
    parsed = last_parse(_PARSED_SNAPSHOT, path, _parse_snapshot_file)
    return replace(
        parsed,
        channels=list(parsed.channels),
        nodes=list(parsed.nodes),
        metadata=dict(parsed.metadata),
    )


def _parse_snapshot_file(path: str) -> SnapshotGraph:
    """:func:`parse_snapshot`'s parse.

    JSON (``.json``) is read in ``describegraph`` shape (an ``edges`` or
    ``channels`` list, or a bare list of channel objects); anything else is
    read as CSV with a header naming the endpoints and ``capacity``.
    Parallel channels between the same pair are merged by summing capacity
    (first policy wins for fees); channels with missing endpoints,
    self-loops or non-positive capacity are dropped and counted.
    """
    declared_nodes: set = set()
    metadata: Dict[str, object] = {}
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        records = _iter_json_records(payload)
        if isinstance(payload, dict):
            for node in payload.get("nodes", []) or []:
                if isinstance(node, dict):
                    pub = node.get("pub_key") or node.get("id")
                    if pub:
                        declared_nodes.add(str(pub))
            for key in ("timestamp", "height", "network"):
                if key in payload:
                    metadata[key] = payload[key]
    else:
        records = _iter_csv_records(path)

    aggregated: Dict[Tuple[str, str], SnapshotChannel] = {}
    raw = invalid = merged = 0
    for record in records:
        raw += 1
        endpoints = _endpoints(record)
        capacity = _parse_amount(record.get("capacity"))
        if endpoints is None or capacity is None or capacity <= 0:
            invalid += 1
            continue
        node_a, node_b = endpoints
        if node_a == node_b:
            invalid += 1
            continue
        key = (node_a, node_b) if node_a < node_b else (node_b, node_a)
        base_fee, fee_rate = _policy_fees(record)
        existing = aggregated.get(key)
        if existing is None:
            aggregated[key] = SnapshotChannel(
                node_a=key[0],
                node_b=key[1],
                capacity=capacity,
                base_fee=base_fee,
                fee_rate=fee_rate,
            )
        else:
            merged += 1
            aggregated[key] = SnapshotChannel(
                node_a=existing.node_a,
                node_b=existing.node_b,
                capacity=existing.capacity + capacity,
                base_fee=existing.base_fee,
                fee_rate=existing.fee_rate,
            )

    channels = [aggregated[key] for key in sorted(aggregated)]
    connected = {node for ch in channels for node in (ch.node_a, ch.node_b)}
    isolated = len(declared_nodes - connected)
    return SnapshotGraph(
        channels=channels,
        nodes=sorted(connected),
        raw_channels=raw,
        dropped_invalid=invalid,
        merged_parallel=merged,
        isolated_nodes=isolated,
        metadata=metadata,
    )


#: Node -> neighbor -> channel, insertion-ordered like ``PCNetwork.adj``.
Adjacency = Dict[str, Dict[str, SnapshotChannel]]


def _adjacency(snapshot: SnapshotGraph) -> Adjacency:
    adjacency: Adjacency = {node: {} for node in snapshot.nodes}
    for channel in snapshot.channels:
        adjacency[channel.node_a][channel.node_b] = channel
        adjacency[channel.node_b][channel.node_a] = channel
    return adjacency


def _components(adjacency: Adjacency) -> List[Set[str]]:
    """The connected components, as node sets."""
    components: List[Set[str]] = []
    seen: Set[str] = set()
    for root in adjacency:
        if root not in seen:
            components.append(reachable(adjacency, root))
            seen |= components[-1]
    return components


def _induced(adjacency: Adjacency, keep: Iterable[str]) -> Adjacency:
    """The sub-adjacency over ``keep``, rows rebuilt in edge-enumeration order.

    What ``networkx.Graph.subgraph(keep).copy()`` does (the order
    ``GraphArrays._working_adjacency`` reproduces for EDS); the capacity
    sums of :func:`_node_rank_key` follow it.
    """
    keep = set(keep)
    induced: Adjacency = {node: {} for node in adjacency if node in keep}
    for node, row in induced.items():
        for neighbor, channel in adjacency[node].items():
            if neighbor in keep:
                row[neighbor] = induced[neighbor][node] = channel
    return induced


def _node_rank_key(adjacency: Adjacency):
    """Sort key ranking nodes hub-first: degree, then total capacity, then id."""
    strength = {
        node: sum(channel.capacity for channel in row.values())
        for node, row in adjacency.items()
    }

    def key(node: str) -> Tuple[int, float, str]:
        return (-len(adjacency[node]), -strength[node], str(node))

    return key


def _largest_component(adjacency: Adjacency) -> Adjacency:
    if not adjacency:
        raise ValueError("snapshot has no usable channels")
    components = sorted(_components(adjacency), key=lambda c: (-len(c), min(c)))
    return _induced(adjacency, components[0])


def _cap_nodes(adjacency: Adjacency, max_nodes: int) -> Adjacency:
    """Keep the ``max_nodes`` best-connected nodes, then re-extract the LCC.

    Ranking by degree (capacity as tie-break) keeps the snapshot's hubs and
    their periphery, which is the structure hub-placement experiments need;
    cutting low-degree leaves first means the survivor graph usually stays
    connected, but the LCC is re-extracted to guarantee it.
    """
    if len(adjacency) <= max_nodes:
        return adjacency
    keep = sorted(adjacency, key=_node_rank_key(adjacency))[:max_nodes]
    return _largest_component(_induced(adjacency, keep))


def load_snapshot(
    path: Optional[str] = None,
    *,
    max_nodes: Optional[int] = None,
    candidate_fraction: float = 0.15,
    capacity_unit: object = "auto",
    min_capacity: Optional[float] = PAPER_CHANNEL_MIN,
    channel_scale: Optional[float] = None,
) -> PCNetwork:
    """Load a channel-graph snapshot into a funded :class:`PCNetwork`.

    Args:
        path: Snapshot file (JSON or CSV); defaults to the bundled
            ``lightning_small.json`` fixture.
        max_nodes: Optional cap applied hub-first (see :func:`_cap_nodes`).
        candidate_fraction: Fraction of nodes (highest degree first)
            marked as PCH candidates; at least one node is always a
            candidate.
        capacity_unit: ``"auto"`` rescales so the median channel equals
            the paper's 152-token median; a positive number divides raw
            capacities by that unit instead; ``None``/``1`` keeps raw
            units.
        min_capacity: Floor (in normalized tokens) applied after scaling,
            mirroring the paper's 10-token minimum channel; ``None``
            disables the floor.
        channel_scale: The spec-level channel-size multiplier, applied
            after normalization so figure-8-style capacity sweeps work on
            real snapshots too.

    Returns:
        A :class:`PCNetwork` whose balances split each channel's capacity
        evenly between its endpoints.
    """
    if path is None:
        path = fixture_path(DEFAULT_SNAPSHOT_FIXTURE)
    if not isinstance(candidate_fraction, (int, float)) or not 0 < candidate_fraction <= 1:
        raise ValueError("candidate_fraction must be in (0, 1]")
    snapshot = parse_snapshot(path)
    adjacency = _largest_component(_adjacency(snapshot))
    if max_nodes is not None:
        if int(max_nodes) < 2:
            raise ValueError("max_nodes must be at least 2")
        adjacency = _cap_nodes(adjacency, int(max_nodes))

    # The surviving channels, in the snapshot's (sorted) endpoint order: a
    # reduction keeps every channel between two nodes it keeps.
    channels = [
        channel
        for channel in snapshot.channels
        if channel.node_a in adjacency and channel.node_b in adjacency
    ]
    capacities = sorted(channel.capacity for channel in channels)
    if capacity_unit == "auto":
        median = capacities[len(capacities) // 2]
        unit = median / PAPER_CHANNEL_MEDIAN if median > 0 else 1.0
    elif capacity_unit in (None, 1, 1.0):
        unit = 1.0
    else:
        unit = float(capacity_unit)
        if unit <= 0:
            raise ValueError("capacity_unit must be positive or 'auto'")
    scale = float(channel_scale) if channel_scale is not None else 1.0
    if scale <= 0:
        raise ValueError("channel_scale must be positive")

    nodes = sorted(adjacency)
    ranked = sorted(nodes, key=_node_rank_key(adjacency))
    candidate_count = max(1, round(candidate_fraction * len(nodes)))
    candidates = set(ranked[:candidate_count])

    network = PCNetwork()
    for node in nodes:
        network.add_node(node, role="candidate" if node in candidates else "client")
    for channel in channels:
        capacity = channel.capacity / unit
        if min_capacity is not None:
            capacity = max(capacity, float(min_capacity))
        capacity *= scale
        network.add_channel(
            channel.node_a,
            channel.node_b,
            balance_a=capacity / 2.0,
            balance_b=capacity / 2.0,
            base_fee=channel.base_fee / unit * scale,
            fee_rate=channel.fee_rate,
        )
    return network


def snapshot_info(path: Optional[str] = None) -> Dict[str, object]:
    """Summary statistics for ``python -m repro data info``."""
    if path is None:
        path = fixture_path(DEFAULT_SNAPSHOT_FIXTURE)
    snapshot = parse_snapshot(path)
    components = sorted((len(c) for c in _components(_adjacency(snapshot))), reverse=True)
    capacities = sorted(channel.capacity for channel in snapshot.channels)
    info: Dict[str, object] = {
        "path": os.path.abspath(path),
        "format": "lightning-snapshot",
        "nodes": len(snapshot.nodes),
        "channels": len(snapshot.channels),
        "raw_channels": snapshot.raw_channels,
        "dropped_invalid": snapshot.dropped_invalid,
        "merged_parallel": snapshot.merged_parallel,
        "isolated_nodes": snapshot.isolated_nodes,
        "components": components,
        "largest_component": components[0] if components else 0,
    }
    if capacities:
        info["capacity_min"] = capacities[0]
        info["capacity_median"] = capacities[len(capacities) // 2]
        info["capacity_max"] = capacities[-1]
        info["capacity_total"] = sum(capacities)
    if snapshot.metadata:
        info["metadata"] = snapshot.metadata
    return info


@topology_source(
    "lightning-snapshot",
    description="Lightning-style channel-graph snapshot (JSON/CSV), normalized to paper units",
    seeded=False,
    channel_scale=True,
    synthetic=False,
)
def _lightning_snapshot_source(channel_scale=None, **params):
    return load_snapshot(channel_scale=channel_scale, **params)
