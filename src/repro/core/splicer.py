"""The Splicer system facade.

:class:`SplicerSystem` wires every piece of the paper together over a
payment channel network:

1. *Candidate election* -- when the network does not already designate
   candidate smooth nodes, multiwinner voting elects them.
2. *Placement* -- the placement optimization solves for the actual PCHs
   (MILP for small candidate sets, double-greedy otherwise) and every
   client is attached to its Lemma-1 optimal hub.
3. *Routing* -- the smooth nodes run the rate-based deadlock-free routing
   protocol over the shared (epoch-synchronized) network state.
4. *Workflow* -- the prepare/execute/acknowledge workflow of section III-A
   is counted, not simulated: each client submission costs three
   management messages (payment request, the ``(tid, pk)`` reply and the
   encrypted demand) and each completed client payment one final ACK.
   The demand reaches the router unchanged either way, so the counts are
   the workflow's whole effect on a run.

The facade exposes a small API (``setup``, ``submit_payment``, ``step``)
that the examples, tests, benchmarks and the simulator scheme wrapper all
share.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.config import SplicerConfig
from repro.core.epochs import EpochClock
from repro.core.voting import multiwinner_vote
from repro.placement.problem import PlacementPlan
from repro.placement.solver import PlacementSolver, build_problem
from repro.routing.router import RateRouter, RoutingDecision, StepReport
from repro.routing.transaction import Payment
from repro.topology.generators import assign_roles_from_placement
from repro.topology.network import PCNetwork

NodeId = Hashable


class SplicerSystem:
    """A deployed Splicer instance over a payment channel network.

    Attributes:
        clients: Each client's serving smooth node.
        management_messages: Workflow messages between clients and their
            hubs, three per client submission.
        acks_forwarded: Final acknowledgments forwarded to senders, one per
            completed client payment.
    """

    def __init__(self, network: PCNetwork, config: Optional[SplicerConfig] = None) -> None:
        self.network = network
        self.config = config or SplicerConfig()
        self.router = RateRouter(network, self.config.router)
        self.epoch_clock = EpochClock(duration=self.config.epoch_duration)
        self.placement_plan: Optional[PlacementPlan] = None
        self.clients: Dict[NodeId, NodeId] = {}
        self._client_hops: Dict[NodeId, int] = {}
        self._hub_pair_hops: Dict[Tuple[NodeId, NodeId], int] = {}
        self.management_messages = 0
        self.acks_forwarded = 0
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

        config = self.config
        candidates = self.network.candidates()
        if config.candidate_count is not None or not candidates:
            winners = config.candidate_count or max(2, self.network.node_count() // 10)
            candidates = multiwinner_vote(self.network, winners)

        problem = build_problem(self.network, omega=config.omega, candidates=candidates)
        plan = PlacementSolver(
            problem, method=config.placement_method, seed=config.placement_seed
        ).solve()
        self.placement_plan = plan
        assign_roles_from_placement(self.network, plan.hubs)

        hubs = list(plan.hubs)
        hub_index = {hub: i for i, hub in enumerate(hubs)}
        hops = self._hop_counts(hubs, list(plan.assignment) + hubs)
        self.clients = dict(plan.assignment)
        self._client_hops = {
            client_id: int(hops[hub_index[hub_id], column])
            for column, (client_id, hub_id) in enumerate(plan.assignment.items())
        }

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
        hub_id = self.clients.get(client_id)
        if hub_id is None:
            raise KeyError(f"{client_id!r} is not a client of this Splicer instance")
        return hub_id

    def submit_payment(
        self,
        sender: NodeId,
        recipient: NodeId,
        value: float,
        now: float = 0.0,
        created_at: Optional[float] = None,
    ) -> RoutingDecision:
        """Hand one client's payment demand to the router through its hub.

        Counts the three management messages of the submission.  The payment
        is dated ``created_at`` (default ``now``) and its deadline is
        ``created_at + payment_timeout``.
        """
        self.hub_of(sender)
        self.management_messages += 3
        payment = Payment.create(
            sender=sender,
            recipient=recipient,
            value=value,
            created_at=now if created_at is None else created_at,
            timeout=self.config.payment_timeout,
        )
        return self.router.submit(payment, now)

    def step(self, now: float, dt: float) -> StepReport:
        """Advance the system: route, acknowledge, and synchronize at epoch edges."""
        self._require_setup()
        report = self.router.step(now, dt)
        clients = self.clients
        self.acks_forwarded += sum(p.sender in clients for p in report.completed_payments)
        if self.epoch_clock.crossed_boundary(now):
            self.epoch_clock.advance(now)
            self.epoch_clock.record_sync(self._hub_pair_hops, self.config.hub_sync_hop_delay)
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
        return self.management_hops(client_id) * self.config.client_hub_hop_delay

    def management_hops(self, client_id: NodeId) -> int:
        """Round-trip client-to-hub hops for one payment (overhead metric)."""
        self._require_setup()
        return 2 * self._client_hops[client_id]

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
