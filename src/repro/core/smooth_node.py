"""Smooth node (PCH) entities.

A smooth node serves the payment requests of its directly-attached clients:
it mints transaction ids, obtains keys from the KMG, decrypts demands, hands
them to the routing engine, and forwards acknowledgments back to the
clients.  It also participates in the per-epoch global state synchronization
with the other smooth nodes, which is what the placement problem's
synchronization cost pays for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from repro.core.client import Client
from repro.core.kmg import KeyManagementGroup
from repro.core.payment import PaymentSession, open_session
from repro.routing.router import RateRouter, RoutingDecision
from repro.routing.transaction import Payment

NodeId = Hashable


@dataclass
class SmoothNodeStats:
    """Lifetime counters of a smooth node, used by the overhead metrics."""

    requests_received: int = 0
    payments_accepted: int = 0
    payments_rejected: int = 0
    acks_forwarded: int = 0
    management_messages: int = 0
    sync_rounds: int = 0


@dataclass
class SmoothNode:
    """A placed PCH running the distributed routing decision protocol.

    Attributes:
        node_id: The smooth node's id in the PCN topology.
        router: The (epoch-synchronized) routing engine.
        kmg: The key management group the node belongs to or queries.
        clients: Clients attached to this smooth node, keyed by node id.
        sessions: Open payment sessions by transaction id.  A session
            retires once its final ACK is forwarded, once its payment fails,
            or when the router rejects the payment.
        stats: Lifetime counters.
    """

    node_id: NodeId
    router: RateRouter
    kmg: KeyManagementGroup
    clients: Dict[NodeId, Client] = field(default_factory=dict)
    sessions: Dict[str, PaymentSession] = field(default_factory=dict)
    stats: SmoothNodeStats = field(default_factory=SmoothNodeStats)

    # ------------------------------------------------------------------ #
    # client management
    # ------------------------------------------------------------------ #
    def attach_client(self, client: Client, hops: int) -> None:
        """Attach a client to this smooth node."""
        client.attach(self.node_id, hops)
        self.clients[client.node_id] = client

    @property
    def client_count(self) -> int:
        """Number of clients served by this smooth node."""
        return len(self.clients)

    # ------------------------------------------------------------------ #
    # payment workflow
    # ------------------------------------------------------------------ #
    def open_payment(self, client_id: NodeId) -> PaymentSession:
        """Payment preparation: mint a tid/key pair for an attached client."""
        if client_id not in self.clients:
            raise KeyError(f"client {client_id!r} is not attached to smooth node {self.node_id!r}")
        session = open_session(self.kmg)
        self.sessions[session.tid] = session
        self.stats.management_messages += 2  # request + (tid, pk) reply
        return session

    def execute_payment(
        self,
        session: PaymentSession,
        ciphertext: bytes,
        now: float,
        timeout: float,
        created_at: Optional[float] = None,
    ) -> RoutingDecision:
        """Payment execution: decrypt the demand, split it and start routing."""
        self.stats.requests_received += 1
        self.stats.management_messages += 1
        demand = session.decrypt_demand(ciphertext)
        payment = Payment.create(
            sender=demand.sender,
            recipient=demand.recipient,
            value=demand.value,
            created_at=now if created_at is None else created_at,
            timeout=timeout,
        )
        decision = self.router.submit(payment, now)
        if decision.accepted:
            session.attach_payment(payment)
            self.stats.payments_accepted += 1
        else:
            self.sessions.pop(session.tid, None)
            self.stats.payments_rejected += 1
        return decision

    def process_acknowledgments(self) -> List[str]:
        """Flip per-unit flags from delivered units and forward final ACKs.

        Returns the transaction ids completed during this call.  Completed
        and failed sessions retire.
        """
        completed: List[str] = []
        retired: List[str] = []
        for tid, session in self.sessions.items():
            payment = session.payment
            if payment is None:
                continue
            if payment.is_failed:
                retired.append(tid)
                continue
            for unit in payment.units:
                if unit.delivered and not session.unit_states.get(unit.unit_id, False):
                    session.record_unit_ack(unit.unit_id)
            if session.finalize():
                completed.append(tid)
                retired.append(tid)
                self.stats.acks_forwarded += 1
                client = self.clients.get(payment.sender)
                if client is not None:
                    client.receive_ack(tid)
        for tid in retired:
            del self.sessions[tid]
        return completed

    def record_sync_round(self) -> None:
        """Count one epoch-boundary synchronization with the other smooth nodes."""
        self.stats.sync_rounds += 1
