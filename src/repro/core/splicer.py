"""The Splicer system facade.

:class:`SplicerSystem` wires every piece of the paper together over a
payment channel network:

1. *Candidate election* -- when the network does not already designate
   candidate smooth nodes, the multiwinner voting contract elects them.
2. *Placement* -- the placement-optimization contract solves for the actual
   PCHs (MILP for small candidate sets, double-greedy otherwise) and every
   client is attached to its Lemma-1 optimal hub.
3. *Routing* -- the smooth nodes run the rate-based deadlock-free routing
   protocol over the shared (epoch-synchronized) network state.
4. *Workflow* -- payments follow the encrypted prepare/execute/acknowledge
   workflow of section III-A, with keys issued by the key management group.

The facade exposes a small API (``setup``, ``submit_payment``, ``step``)
that the examples, tests, benchmarks and the simulator scheme wrapper all
share.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.client import Client
from repro.core.config import SplicerConfig
from repro.core.epochs import EpochClock
from repro.core.kmg import KeyManagementGroup
from repro.core.payment import PaymentSession
from repro.core.smooth_node import SmoothNode
from repro.crypto.contracts import PlacementContract, VotingContract
from repro.placement.problem import PlacementPlan
from repro.routing.router import RateRouter, RoutingDecision, StepReport
from repro.topology.generators import assign_roles_from_placement
from repro.topology.network import PCNetwork

NodeId = Hashable


class SplicerSystem:
    """A deployed Splicer instance over a payment channel network."""

    def __init__(self, network: PCNetwork, config: Optional[SplicerConfig] = None) -> None:
        self.network = network
        self.config = config or SplicerConfig()
        self.voting_contract = VotingContract()
        self.placement_contract = PlacementContract(
            omega=self.config.omega, method=self.config.placement_method
        )
        self.router = RateRouter(network, self.config.router)
        self.epoch_clock = EpochClock(duration=self.config.epoch_duration)
        self.placement_plan: Optional[PlacementPlan] = None
        self.smooth_nodes: Dict[NodeId, SmoothNode] = {}
        self.clients: Dict[NodeId, Client] = {}
        self.kmg: Optional[KeyManagementGroup] = None
        self._hub_pair_hops: Dict[Tuple[NodeId, NodeId], int] = {}
        self._is_setup = False

    # ------------------------------------------------------------------ #
    # setup: election, placement, wiring
    # ------------------------------------------------------------------ #
    def setup(self) -> PlacementPlan:
        """Elect candidates, solve placement and attach clients to hubs.

        Idempotent: calling it twice returns the already-computed plan.
        """
        if self._is_setup and self.placement_plan is not None:
            return self.placement_plan

        candidates = self.network.candidates()
        if self.config.candidate_count is not None or not candidates:
            winners = self.config.candidate_count or max(2, self.network.node_count() // 10)
            population = self.network.node_count()
            candidates = self.voting_contract.elect_candidates(
                self.network,
                winners=winners,
                votes_for=population,
                votes_total=population,
            )

        plan = self.placement_contract.decide_placement(
            self.network, candidates=candidates, seed=self.config.placement_seed
        )
        self.placement_plan = plan
        assign_roles_from_placement(self.network, plan.hubs)

        self.kmg = KeyManagementGroup(
            members=sorted(plan.hubs, key=repr)[: max(self.config.kmg_size, 1)]
        )
        self.smooth_nodes = {
            hub: SmoothNode(node_id=hub, router=self.router, kmg=self.kmg) for hub in plan.hubs
        }

        self.clients = {}
        hubs = list(plan.hubs)
        hub_index = {hub: i for i, hub in enumerate(hubs)}
        hops = self._hop_counts(hubs, list(plan.assignment) + hubs)
        for column, (client_id, hub_id) in enumerate(plan.assignment.items()):
            client = Client(node_id=client_id)
            self.smooth_nodes[hub_id].attach_client(client, int(hops[hub_index[hub_id], column]))
            self.clients[client_id] = client

        between = hops[:, len(plan.assignment) :]
        self._hub_pair_hops = {
            (a, b): int(between[i, j])
            for i, a in enumerate(hubs)
            for j, b in enumerate(hubs)
            if a != b
        }
        self._is_setup = True
        return plan

    def _hop_counts(self, sources: List[NodeId], targets: List[NodeId]) -> np.ndarray:
        """``(sources, targets)`` hop counts from one batched BFS over the source rows.

        An unreachable or unknown target counts ``node_count()`` hops.  The
        channel graph is undirected, so row ``i`` also holds the hops from
        each target back to ``sources[i]``.
        """
        graph = self.network.graph_arrays()
        distances = graph.distances_from(graph.rows_of(sources))
        columns = np.array([graph.node_row.get(node, -1) for node in targets], dtype=np.intp)
        hops = distances[:, columns]
        hops[:, columns < 0] = np.inf
        hops[~np.isfinite(hops)] = self.network.node_count()
        return hops.astype(np.int64)

    # ------------------------------------------------------------------ #
    # payment workflow
    # ------------------------------------------------------------------ #
    def hub_of(self, client_id: NodeId) -> NodeId:
        """The smooth node serving a client."""
        self._require_setup()
        client = self.clients.get(client_id)
        if client is None or client.smooth_node_id is None:
            raise KeyError(f"{client_id!r} is not a client of this Splicer instance")
        return client.smooth_node_id

    def submit_payment(
        self,
        sender: NodeId,
        recipient: NodeId,
        value: float,
        now: float = 0.0,
        created_at: Optional[float] = None,
    ) -> Tuple[PaymentSession, RoutingDecision]:
        """Run the full encrypted workflow for one payment demand.

        Returns the workflow session and the routing decision.  The payment
        is dated ``created_at`` (default ``now``) and its deadline is
        ``created_at + payment_timeout``.
        """
        self._require_setup()
        hub_id = self.hub_of(sender)
        smooth_node = self.smooth_nodes[hub_id]
        client = self.clients[sender]
        session = smooth_node.open_payment(sender)
        ciphertext = client.build_request(session, recipient, value)
        decision = smooth_node.execute_payment(
            session, ciphertext, now, self.config.payment_timeout, created_at
        )
        return session, decision

    def step(self, now: float, dt: float) -> StepReport:
        """Advance the system: route, acknowledge, and synchronize at epoch edges."""
        self._require_setup()
        report = self.router.step(now, dt)
        for smooth_node in self.smooth_nodes.values():
            smooth_node.process_acknowledgments()
        if self.epoch_clock.crossed_boundary(now):
            self.epoch_clock.advance(now)
            self.epoch_clock.record_sync(self._hub_pair_hops, self.config.hub_sync_hop_delay)
            for smooth_node in self.smooth_nodes.values():
                smooth_node.record_sync_round()
        return report

    def run(self, duration: float, dt: Optional[float] = None) -> List[StepReport]:
        """Convenience loop: step from 0 to ``duration`` and return every report."""
        self._require_setup()
        step_size = dt if dt is not None else self.config.router.update_interval
        reports = []
        steps = int(duration / step_size)
        for index in range(1, steps + 1):
            reports.append(self.step(index * step_size, step_size))
        return reports

    # ------------------------------------------------------------------ #
    # metrics helpers
    # ------------------------------------------------------------------ #
    def management_delay(self, client_id: NodeId) -> float:
        """Round-trip client-to-hub communication delay for one payment."""
        self._require_setup()
        client = self.clients[client_id]
        return client.request_round_trip_hops * self.config.client_hub_hop_delay

    def management_hops(self, client_id: NodeId) -> int:
        """Round-trip client-to-hub hops for one payment (overhead metric)."""
        self._require_setup()
        return self.clients[client_id].request_round_trip_hops

    def sync_message_hops_per_epoch(self) -> int:
        """Hop traversals consumed by one hub-to-hub synchronization round."""
        self._require_setup()
        return sum(self._hub_pair_hops.values())

    @property
    def hubs(self) -> List[NodeId]:
        """The placed smooth nodes."""
        self._require_setup()
        return sorted(self.placement_plan.hubs, key=repr)

    def _require_setup(self) -> None:
        if not self._is_setup:
            raise RuntimeError("call setup() before using the Splicer system")
