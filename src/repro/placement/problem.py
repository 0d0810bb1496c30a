"""Data model of the PCH placement problem and its solutions.

:class:`PlacementProblem` carries the paper's decision-variable structure
(binary placements ``x_n``, binary assignments ``y_mn``, equations 1-5): a
:class:`~repro.placement.costs.PlacementCostModel` whose index-mapped
:class:`~repro.placement.costs.CostArrays` the solvers evaluate objectives on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Mapping, Tuple

from repro.placement.costs import CostArrays, PlacementCostModel

NodeId = Hashable


@dataclass(frozen=True)
class PlacementPlan:
    """A solved placement: which candidates are hubs and who serves each client.

    Attributes:
        hubs: The placed smooth nodes (``x_n = 1``).
        assignment: Mapping from each client to the hub serving it
            (``y_mn = 1``).
        management_cost: ``C_M(y)`` of the plan.
        synchronization_cost: ``C_S(x, y)`` of the plan.
        balance_cost: ``C_B = C_M + omega * C_S`` of the plan.
        omega: Weight between management and synchronization cost.
        method: Name of the solver that produced the plan.
    """

    hubs: FrozenSet[NodeId]
    assignment: Mapping[NodeId, NodeId]
    management_cost: float
    synchronization_cost: float
    balance_cost: float
    omega: float
    method: str = "unspecified"

    @property
    def hub_count(self) -> int:
        """Number of placed smooth nodes."""
        return len(self.hubs)

    def clients_of(self, hub: NodeId) -> Tuple[NodeId, ...]:
        """Clients assigned to a given hub."""
        return tuple(client for client, assigned in self.assignment.items() if assigned == hub)

    def load_per_hub(self) -> Dict[NodeId, int]:
        """Number of clients served by each placed hub (load-balance view)."""
        loads: Dict[NodeId, int] = {hub: 0 for hub in self.hubs}
        for hub in self.assignment.values():
            loads[hub] = loads.get(hub, 0) + 1
        return loads


class PlacementProblem:
    """An instance of the placement problem: a cost model plus the weight omega.

    The problem's decision variables follow the paper: binary placement
    variables ``x_n`` for every candidate and binary assignment variables
    ``y_mn`` for every (client, candidate) pair, with each client assigned to
    exactly one *placed* candidate.
    """

    def __init__(self, cost_model: PlacementCostModel, omega: float = 0.05) -> None:
        if omega < 0:
            raise ValueError("omega must be non-negative")
        self.costs = cost_model
        self.omega = float(omega)

    # ------------------------------------------------------------------ #
    # convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def clients(self):
        """Client node ids (``V_CLI``)."""
        return self.costs.clients

    @property
    def candidates(self):
        """Candidate smooth-node ids (``V_SNC``)."""
        return self.costs.candidates

    @property
    def client_count(self) -> int:
        """Number of clients."""
        return len(self.costs.clients)

    @property
    def candidate_count(self) -> int:
        """Number of candidate smooth nodes."""
        return len(self.costs.candidates)

    @property
    def arrays(self) -> CostArrays:
        """The cost model's dense index-mapped matrices."""
        return self.costs.as_arrays()

    # ------------------------------------------------------------------ #
    # plan construction and validation
    # ------------------------------------------------------------------ #
    def make_plan(
        self,
        hubs: Iterable[NodeId],
        assignment: Mapping[NodeId, NodeId],
        method: str = "unspecified",
    ) -> PlacementPlan:
        """Build a :class:`PlacementPlan` (with costs) from raw decisions."""
        hub_set = frozenset(hubs)
        self.validate(hub_set, assignment)
        management = self.costs.management_cost(assignment)
        synchronization = self.costs.synchronization_cost(hub_set, assignment)
        balance = management + self.omega * synchronization
        return PlacementPlan(
            hubs=hub_set,
            assignment=dict(assignment),
            management_cost=management,
            synchronization_cost=synchronization,
            balance_cost=balance,
            omega=self.omega,
            method=method,
        )

    def validate(self, hubs: FrozenSet[NodeId], assignment: Mapping[NodeId, NodeId]) -> None:
        """Check a candidate solution against the problem constraints.

        Raises ``ValueError`` if the placement uses a non-candidate node, a
        client is unassigned / assigned to an unplaced node, or an unknown
        client appears in the assignment.
        """
        if not hubs:
            raise ValueError("a placement must contain at least one smooth node")
        unknown_hubs = hubs - set(self.candidates)
        if unknown_hubs:
            raise ValueError(f"placement uses non-candidate nodes: {sorted(map(repr, unknown_hubs))}")
        client_set = set(self.clients)
        assigned_clients = set(assignment)
        missing = client_set - assigned_clients
        if missing:
            raise ValueError(f"clients without an assigned smooth node: {sorted(map(repr, missing))}")
        extra = assigned_clients - client_set
        if extra:
            raise ValueError(f"assignment references unknown clients: {sorted(map(repr, extra))}")
        for client, hub in assignment.items():
            if hub not in hubs:
                raise ValueError(f"client {client!r} is assigned to unplaced node {hub!r}")

    def balance_cost(self, hubs: Iterable[NodeId], assignment: Mapping[NodeId, NodeId]) -> float:
        """``C_B`` of an explicit (placement, assignment) pair."""
        return self.costs.balance_cost(hubs, assignment, self.omega)

    def with_omega(self, omega: float) -> "PlacementProblem":
        """A copy of the problem with a different cost weight (for omega sweeps)."""
        return PlacementProblem(self.costs, omega)
