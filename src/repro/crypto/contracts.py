"""Smart-contract simulations: candidate voting and placement optimization.

The paper's trust transference model (figure 4) runs two on-chain contracts:
a voting contract that elects the smooth-node candidate list, and a
placement-optimization contract the candidates run to decide the actual
PCHs.  Both are simulated as deterministic in-process objects that also
track the deposits hubs pledge for access and the slashing of misbehaving
hubs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence

from repro.crypto.voting import multiwinner_vote
from repro.placement.problem import PlacementPlan
from repro.placement.solver import build_problem, PlacementSolver
from repro.topology.network import PCNetwork

NodeId = Hashable


@dataclass
class VotingContract:
    """The community's multiwinner voting contract for the candidate list.

    Attributes:
        approval_threshold: Fraction of votes required (the paper's community
            requires a 67% majority for decisions).
    """

    approval_threshold: float = 0.67
    _last_result: List[NodeId] = field(default_factory=list)

    def elect_candidates(
        self,
        network: PCNetwork,
        winners: int,
        votes_for: int,
        votes_total: int,
        eligible: Optional[Sequence[NodeId]] = None,
    ) -> List[NodeId]:
        """Run the election if the community approved the proposal.

        Raises ``PermissionError`` when the approval threshold is not met.
        """
        if votes_total <= 0:
            raise ValueError("votes_total must be positive")
        if votes_for / votes_total < self.approval_threshold:
            raise PermissionError(
                f"proposal rejected: {votes_for}/{votes_total} approvals is below "
                f"the {self.approval_threshold:.0%} threshold"
            )
        self._last_result = multiwinner_vote(network, winners, eligible=eligible)
        return list(self._last_result)

    @property
    def candidate_list(self) -> List[NodeId]:
        """The most recently elected candidate list."""
        return list(self._last_result)


@dataclass
class PlacementContract:
    """The placement-optimization contract run by the candidate smooth nodes.

    Every candidate evaluates the same deterministic optimization on the same
    synchronized request-distribution data, so all candidates reach the same
    actual-PCH decision (as the paper's trust model requires).  The contract
    also manages the access deposits and slashing of malicious PCHs.
    """

    omega: float = 0.05
    method: str = "auto"
    required_deposit: float = 100.0
    deposits: Dict[NodeId, float] = field(default_factory=dict)
    slashed: Dict[NodeId, float] = field(default_factory=dict)
    _last_plan: Optional[PlacementPlan] = None

    def pledge(self, hub: NodeId, amount: float) -> None:
        """A hub pledges its access deposit to the public pool."""
        if amount <= 0:
            raise ValueError("deposit must be positive")
        self.deposits[hub] = self.deposits.get(hub, 0.0) + amount

    def has_access(self, hub: NodeId) -> bool:
        """Whether a hub has pledged at least the required deposit."""
        return self.deposits.get(hub, 0.0) >= self.required_deposit

    def slash(self, hub: NodeId) -> float:
        """Confiscate a misbehaving hub's deposit and revoke its access."""
        amount = self.deposits.pop(hub, 0.0)
        if amount:
            self.slashed[hub] = self.slashed.get(hub, 0.0) + amount
        return amount

    def decide_placement(
        self,
        network: PCNetwork,
        candidates: Optional[Sequence[NodeId]] = None,
        seed: Optional[int] = 0,
    ) -> PlacementPlan:
        """Run the placement optimization over the candidate list.

        The seed defaults to a constant so that every candidate executing the
        contract computes the identical plan.
        """
        problem = build_problem(network, omega=self.omega, candidates=candidates)
        solver = PlacementSolver(problem, method=self.method, seed=seed)
        self._last_plan = solver.solve()
        return self._last_plan

    @property
    def current_plan(self) -> Optional[PlacementPlan]:
        """The most recently decided placement plan."""
        return self._last_plan
