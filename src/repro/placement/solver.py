"""Unified placement solver facade (paper section V).

Routes a placement instance to the right algorithm:

* very small instances -> brute force (optional, mainly for verification),
* small-scale instances -> the optimal solution, either through the paper's
  MILP formulation (:mod:`repro.placement.milp`) or through a lighter
  combinatorial branch-and-bound that exploits Lemma 1 directly,
* large-scale instances -> the double-greedy supermodular approximation
  (:mod:`repro.placement.supermodular`).

The facade also builds cost models straight from a
:class:`~repro.topology.network.PCNetwork`, which is how the rest of the
library (and the Splicer system itself) invokes placement.

The scalable paths -- the double-greedy family and the Lemma-1 client
attachment, which is where large instances spend their time -- evaluate on
the :class:`~repro.placement.costs.CostArrays` kernels.  The exact
enumerative methods (``brute``/``milp``/``exact``) score candidate subsets
with :func:`~repro.placement.assignment.scalar_placement_cost`: they are
small-scale by definition, and evaluating ties with one fixed evaluation
order pins which of several tied subsets is reported as the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Sequence, Set, Tuple, Union


from repro.placement.assignment import plan_for_placement, scalar_placement_cost
from repro.placement.bruteforce import MAX_BRUTE_FORCE_CANDIDATES, brute_force_placement
from repro.placement.costs import cost_model_from_network
from repro.placement.milp import solve_placement_milp
from repro.placement.problem import PlacementPlan, PlacementProblem
from repro.placement.supermodular import double_greedy_placement
from repro.topology.network import PCNetwork

NodeId = Hashable

#: Methods understood by the facade.
METHODS = ("auto", "brute", "milp", "exact", "greedy")

#: Candidate-count threshold below which "auto" uses an exact method.
SMALL_SCALE_CANDIDATE_LIMIT = 12


class CombinatorialBranchAndBound:
    """Exact placement search that branches on ``x`` with combinatorial bounds.

    Unlike the MILP route (:mod:`repro.placement.milp`), this solver never
    builds the (large) linearized program.  Its lower bound
    for a partial decision (some candidates forced in, some forced out) is

    ``sum_m min_{n allowed} zeta[m][n] + omega * sum_{n,l forced in} epsilon[n][l]``

    which is valid because management costs can only increase when choices
    are removed and every placed pair contributes at least its constant
    synchronization cost.  Incumbents come from Lemma-1 completion.
    """

    def __init__(self, problem: PlacementProblem, node_limit: int = 200_000) -> None:
        self.problem = problem
        self.node_limit = node_limit
        self.nodes_explored = 0

    def solve(self, initial_hubs: Optional[Sequence[NodeId]] = None) -> PlacementPlan:
        """Run the search and return the best plan found (optimal within the node budget)."""
        problem = self.problem
        candidates = list(problem.candidates)
        # Order candidates by how attractive they are as the sole hub, which
        # tends to find good incumbents early.
        candidates.sort(key=lambda c: scalar_placement_cost(problem, {c}))

        best_hubs: Optional[Tuple[NodeId, ...]] = None
        best_cost = float("inf")
        if initial_hubs:
            warm = tuple(set(initial_hubs) & set(candidates))
            if warm:
                best_hubs = warm
                best_cost = scalar_placement_cost(problem, warm)

        zeta = problem.costs.zeta
        epsilon = problem.costs.epsilon
        omega = problem.omega
        clients = problem.clients

        def lower_bound(forced_in: Set[NodeId], forced_out: Set[NodeId]) -> float:
            allowed = [c for c in candidates if c not in forced_out]
            if not allowed:
                return float("inf")
            management = sum(min(zeta[m][n] for n in allowed) for m in clients)
            synchronization = sum(
                epsilon[n][l] for n in forced_in for l in forced_in
            )
            return management + omega * synchronization

        def visit(index: int, forced_in: Set[NodeId], forced_out: Set[NodeId]) -> None:
            nonlocal best_hubs, best_cost
            if self.nodes_explored >= self.node_limit:
                return
            self.nodes_explored += 1
            if lower_bound(forced_in, forced_out) >= best_cost - 1e-12:
                return
            if index == len(candidates):
                if forced_in:
                    cost = scalar_placement_cost(problem, forced_in)
                    if cost < best_cost:
                        best_cost = cost
                        best_hubs = tuple(forced_in)
                return
            candidate = candidates[index]
            # Explore "place the candidate" first: placements discovered early
            # give tighter incumbents for pruning.
            visit(index + 1, forced_in | {candidate}, forced_out)
            visit(index + 1, forced_in, forced_out | {candidate})

        visit(0, set(), set())
        if best_hubs is None:
            best_hubs = tuple(candidates)
        return plan_for_placement(self.problem, best_hubs, method="exact-bnb")


@dataclass
class PlacementSolver:
    """Facade over the placement algorithms.

    Attributes:
        problem: The placement instance to solve.
        method: One of :data:`METHODS`; ``"auto"`` picks an exact method for
            small candidate sets and the double-greedy approximation otherwise.
        seed: Seed for the randomized double-greedy variant.  Defaults to a
            constant so repeated solves are reproducible; seeding from OS
            entropy is opt-in via ``seed=None``.
        deterministic_greedy: Use the deterministic double-greedy variant.
        local_search: Polish the greedy output with single-swap local search.
        small_scale_limit: Candidate-count threshold for ``"auto"``.
    """

    problem: PlacementProblem
    method: str = "auto"
    seed: Optional[int] = 0
    deterministic_greedy: bool = False
    local_search: bool = True
    small_scale_limit: int = SMALL_SCALE_CANDIDATE_LIMIT

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown placement method {self.method!r}; expected one of {METHODS}")

    def solve(self) -> PlacementPlan:
        """Solve the instance with the configured method."""
        method = self._resolve_method()
        if method == "brute":
            return brute_force_placement(self.problem)
        if method == "milp":
            return solve_placement_milp(self.problem).plan
        if method == "exact":
            warm = self._greedy_plan()
            solver = CombinatorialBranchAndBound(self.problem)
            return solver.solve(initial_hubs=tuple(warm.hubs))
        return self._greedy_plan()

    def _resolve_method(self) -> str:
        if self.method != "auto":
            return self.method
        if self.problem.candidate_count <= min(self.small_scale_limit, MAX_BRUTE_FORCE_CANDIDATES):
            return "exact"
        return "greedy"

    def _greedy_plan(self) -> PlacementPlan:
        return double_greedy_placement(
            self.problem,
            deterministic=self.deterministic_greedy,
            local_search=self.local_search,
            seed=self.seed,
        )


def build_problem(
    network: PCNetwork,
    omega: float = 0.05,
    clients: Optional[Sequence[NodeId]] = None,
    candidates: Optional[Sequence[NodeId]] = None,
    uniform_delta: bool = False,
    hops=None,
) -> PlacementProblem:
    """Construct a placement problem from a PCN with the paper's cost model.

    ``hops`` optionally injects a pre-made probe (the figure-9 pipeline's
    persistent hop-matrix rows, or the oracle's per-candidate dicts; see
    :func:`~repro.placement.costs.cost_model_from_network`); otherwise the
    network is probed with one batched csgraph sweep.
    """
    cost_model = cost_model_from_network(
        network,
        clients=clients,
        candidates=candidates,
        uniform_delta=uniform_delta,
        hops=hops,
    )
    return PlacementProblem(cost_model, omega=omega)


def solve_placement(
    network_or_problem: Union[PCNetwork, PlacementProblem],
    omega: float = 0.05,
    method: str = "auto",
    seed: Optional[int] = 0,
    **solver_options: object,
) -> PlacementPlan:
    """Solve the PCH placement problem for a network or a prepared instance.

    This is the public entry point of the placement subsystem (paper
    section V: the MILP of equations 6-10 at small scale, Algorithm 1's
    double-greedy approximation of the supermodular objective of equation 14
    at large scale, with Lemma-1 client attachment throughout).

    Args:
        network_or_problem: Either a :class:`PCNetwork` (the cost model is
            probed from hop counts with the paper's coefficients) or an
            already-built :class:`PlacementProblem`.
        omega: Weight between management and synchronization costs (only used
            when a network is supplied).
        method: Placement algorithm, see :data:`METHODS`.
        seed: Seed for the randomized greedy variant.
        **solver_options: Extra :class:`PlacementSolver` fields
            (``deterministic_greedy``, ``local_search``, ``small_scale_limit``).
    """
    if isinstance(network_or_problem, PlacementProblem):
        problem = network_or_problem
    else:
        problem = build_problem(network_or_problem, omega=omega)
    solver = PlacementSolver(problem, method=method, seed=seed, **solver_options)
    return solver.solve()
