"""Splicer: placed payment channel hubs in front of the rate-based router.

:class:`SplicerScheme` deploys the paper's system over a payment channel
network behind the ``prepare`` / ``submit`` / ``step`` interface the
baselines implement, so the experiment runner replays identical workloads
over all of them:

1. *Candidate election* -- when the network designates no candidate smooth
   nodes, multiwinner voting elects ``max(2, n // 10)`` of them.
2. *Placement* -- the placement optimization solves for the actual PCHs
   (MILP for small candidate sets, double-greedy otherwise) and every
   client is attached to its Lemma-1 optimal hub.
3. *Routing* -- the smooth nodes run the rate-based deadlock-free routing
   protocol over the shared network state.
4. *Workflow* -- the prepare/execute/acknowledge workflow of section III-A
   is counted, not simulated: each client submission costs three
   management messages (payment request, the ``(tid, pk)`` reply and the
   encrypted demand) and each completed client payment one final ACK.
   The demand reaches the router unchanged either way, so the counts are
   the workflow's whole effect on a run.
5. *Epochs* -- at every epoch boundary the hubs synchronize the global
   state of the epoch that ended (figure 5): one message per ordered pair
   of hubs, H(H-1) per boundary crossed.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.baselines.base import RoutingScheme, SchemeStepReport
from repro.core.config import SplicerConfig
from repro.core.voting import multiwinner_vote
from repro.placement.problem import PlacementPlan
from repro.placement.solver import PlacementSolver, build_problem
from repro.routing.router import RateRouter
from repro.routing.transaction import Payment
from repro.simulator.workload import TransactionRequest
from repro.topology.generators import assign_roles_from_placement
from repro.topology.network import PCNetwork

NodeId = Hashable

#: Length of one communication epoch in seconds.
EPOCH_DURATION = 1.0
#: One-way delay per hop between a client and its smooth node, in seconds.
CLIENT_HUB_HOP_DELAY = 0.01


class SplicerScheme(RoutingScheme):
    """This paper's system: placed PCHs plus rate-based deadlock-free routing.

    Attributes:
        router: The rate router the smooth nodes route through.
        placement_plan: The placement decided by :meth:`prepare`.
        management_messages: Workflow messages between clients and their
            hubs, three per client submission.
        acks_forwarded: Final acknowledgments forwarded to senders, one per
            completed client payment.
        sync_messages: Hub-to-hub synchronization messages, H(H-1) per epoch
            boundary crossed.
    """

    name = "splicer"

    def __init__(self, config: Optional[SplicerConfig] = None) -> None:
        super().__init__()
        self.config = config or SplicerConfig()
        self.router: Optional[RateRouter] = None
        self.placement_plan: Optional[PlacementPlan] = None
        self._client_hops: Dict[NodeId, int] = {}

    def prepare(self, network: PCNetwork, rng: Optional[np.random.Generator] = None) -> None:
        """Elect candidates, solve placement and attach every client to its hub."""
        super().prepare(network, rng)
        config = self.config
        self.router = RateRouter(network, config.router)
        self.management_messages = self.acks_forwarded = self.sync_messages = 0
        self._epoch = 0

        candidates = network.candidates()
        if not candidates:
            candidates = multiwinner_vote(network, max(2, network.node_count() // 10))
        problem = build_problem(network, omega=config.omega, candidates=candidates)
        plan = PlacementSolver(
            problem, method=config.placement_method, seed=config.placement_seed
        ).solve()
        self.placement_plan = plan
        assign_roles_from_placement(network, plan.hubs)

        hubs = list(plan.hubs)
        hub_index = {hub: i for i, hub in enumerate(hubs)}
        hops = _hop_counts(network, hubs, list(plan.assignment) + hubs)
        self._client_hops = {
            client_id: int(hops[hub_index[hub_id], column])
            for column, (client_id, hub_id) in enumerate(plan.assignment.items())
        }
        # Hub-to-hub hops; the diagonal (a hub to itself) is zero.
        self._sync_hops = int(hops[:, len(plan.assignment) :].sum())

    def submit(self, request: TransactionRequest, now: float) -> Payment:
        if self.router is None:
            raise RuntimeError("splicer: prepare() must be called before submit()")
        # Hubs themselves (or unplaced candidates) can also send payments;
        # they reach the router directly, without the client workflow.
        if request.sender in self._client_hops:
            self.management_messages += 3
        payment = Payment.create(
            sender=request.sender,
            recipient=request.recipient,
            value=request.value,
            created_at=request.arrival_time,
            timeout=self.config.payment_timeout,
        )
        self.router.submit(payment, now)
        return payment

    def step(self, now: float, dt: float) -> SchemeStepReport:
        if self.router is None:
            raise RuntimeError("splicer: prepare() must be called before step()")
        self._route_waiting(now)
        report = self.router.step(now, dt)
        clients = self._client_hops
        self.acks_forwarded += sum(p.sender in clients for p in report.completed_payments)
        epoch = int(now // EPOCH_DURATION)
        if epoch > self._epoch:
            hub_count = self.placement_plan.hub_count
            self.sync_messages += (epoch - self._epoch) * hub_count * (hub_count - 1)
            self._epoch = epoch
        self.control_messages = float(
            self.management_messages
            + self.acks_forwarded
            + self.sync_messages
            + self.router.total_probe_messages
        )
        return SchemeStepReport(
            completed=list(report.completed_payments),
            failed=list(report.failed_payments),
            fees_paid=report.fees_paid,
        )

    def extra_delay(self, request: TransactionRequest) -> float:
        if request.sender not in self._client_hops:
            return 0.0
        return self.management_delay(request.sender)

    # ------------------------------------------------------------------ #
    # metrics helpers
    # ------------------------------------------------------------------ #
    def management_delay(self, client_id: NodeId) -> float:
        """Round-trip client-to-hub communication delay for one payment."""
        return self.management_hops(client_id) * CLIENT_HUB_HOP_DELAY

    def management_hops(self, client_id: NodeId) -> int:
        """Round-trip client-to-hub hops for one payment (overhead metric)."""
        return 2 * self._client_hops[client_id]

    def sync_message_hops_per_epoch(self) -> int:
        """Hop traversals consumed by one hub-to-hub synchronization round."""
        return self._sync_hops


def _hop_counts(network: PCNetwork, sources: List[NodeId], targets: List[NodeId]) -> np.ndarray:
    """``(sources, targets)`` hop counts from one batched BFS over the source rows.

    An unreachable or unknown target counts ``node_count()`` hops.  The
    channel graph is undirected, so row ``i`` also holds the hops from each
    target back to ``sources[i]``.
    """
    graph = network.graph_arrays()
    distances = graph.distances_from(graph.rows_of(sources))
    columns = np.array([graph.node_row.get(node, -1) for node in targets], dtype=np.intp)
    hops = distances[:, columns]
    hops[:, columns < 0] = np.inf
    hops[~np.isfinite(hops)] = network.node_count()
    return hops.astype(np.int64)
