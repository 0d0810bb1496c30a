"""Unified placement solver facade (paper section V).

Routes a placement instance to the right algorithm:

* small-scale instances -> the optimal solution, either through the paper's
  MILP formulation (:mod:`repro.placement.milp`) or through a lighter
  combinatorial branch-and-bound that exploits Lemma 1 directly,
* large-scale instances -> the double-greedy supermodular approximation
  (:mod:`repro.placement.supermodular`).

The facade also builds cost models straight from a
:class:`~repro.topology.network.PCNetwork`, which is how the rest of the
library (and the Splicer system itself) invokes placement.

Every method evaluates on the :class:`~repro.placement.costs.CostArrays`.
The double-greedy family probes with the regrouped
:func:`~repro.placement.assignment.vectorized_placement_cost`; the
branch-and-bound ranks subsets with
:func:`~repro.placement.assignment.sequential_placement_cost`, whose
left-to-right accumulation is the plan's own cost arithmetic -- that order
is what pins which of several floating-point-tied subsets ``exact`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.placement.assignment import plan_for_placement, sequential_placement_cost
from repro.placement.costs import cost_model_from_network, sequential_sum
from repro.placement.milp import solve_placement_milp
from repro.placement.problem import PlacementPlan, PlacementProblem
from repro.placement.supermodular import double_greedy_placement
from repro.topology.network import PCNetwork

NodeId = Hashable

#: Methods understood by the facade.
METHODS = ("auto", "milp", "exact", "greedy")

#: Candidate-count threshold below which "auto" uses an exact method.
SMALL_SCALE_CANDIDATE_LIMIT = 12

#: The exact search refuses more candidates than this: its tree has at most
#: ``2^(z+1) - 1`` nodes, 131,071 here, so it always runs to a proven optimum.
MAX_EXACT_CANDIDATES = 16


class CombinatorialBranchAndBound:
    """Exact placement search that branches on ``x`` with combinatorial bounds.

    Unlike the MILP route (:mod:`repro.placement.milp`), this solver never
    builds the (large) linearized program.  Its lower bound
    for a partial decision (some candidates forced in, some forced out) is

    ``sum_m min_{n allowed} zeta[m][n] + omega * sum_{n,l forced in} epsilon[n][l]``

    which is valid because management costs can only increase when choices
    are removed and every placed pair contributes at least its constant
    synchronization cost.  Incumbents come from Lemma-1 completion.

    Raises:
        ValueError: If the instance has more candidates than
            :data:`MAX_EXACT_CANDIDATES`.
    """

    def __init__(self, problem: PlacementProblem) -> None:
        if problem.candidate_count > MAX_EXACT_CANDIDATES:
            raise ValueError(
                f"exact placement search limited to {MAX_EXACT_CANDIDATES} candidates, "
                f"got {problem.candidate_count}"
            )
        self.problem = problem
        self.nodes_explored = 0

    def solve(self, initial_hubs: Iterable[NodeId] = ()) -> PlacementPlan:
        """Run the search to the proven optimum, warm-started from ``initial_hubs``."""
        problem = self.problem
        arrays = problem.arrays
        omega = problem.omega

        def cost(rows: Sequence[int]) -> float:
            return sequential_placement_cost(problem, np.sort(np.asarray(rows, dtype=np.intp)))

        # Order candidates by how attractive they are as the sole hub, which
        # tends to find good incumbents early.
        order = sorted(range(arrays.candidate_count), key=lambda row: cost([row]))

        best_rows: Tuple[int, ...] = tuple(
            arrays.candidate_index[hub] for hub in initial_hubs if hub in arrays.candidate_index
        )
        best_cost = cost(best_rows) if best_rows else float("inf")
        allowed = np.ones(arrays.candidate_count, dtype=bool)

        def visit(index: int, placed: Tuple[int, ...], management: float, synchronization: float) -> None:
            nonlocal best_rows, best_cost
            self.nodes_explored += 1
            if management + omega * synchronization >= best_cost - 1e-12:
                return
            if index == len(order):
                leaf_cost = cost(placed)
                if leaf_cost < best_cost:
                    best_cost = leaf_cost
                    best_rows = placed
                return
            row = order[index]
            # Explore "place the candidate" first: placements discovered early
            # give tighter incumbents for pruning.  Placing leaves the allowed
            # columns, and with them the management term, unchanged.
            grown = placed + (row,)
            pairs = sequential_sum(arrays.epsilon[np.ix_(grown, grown)])
            visit(index + 1, grown, management, pairs)
            allowed[row] = False
            if allowed.any():  # excluding every candidate places nothing
                visit(
                    index + 1,
                    placed,
                    sequential_sum(arrays.zeta_t[allowed].min(axis=0)),
                    synchronization,
                )
            allowed[row] = True

        visit(0, (), sequential_sum(arrays.zeta_t.min(axis=0)), 0.0)
        hubs = [arrays.candidates[row] for row in sorted(best_rows)]
        return plan_for_placement(problem, hubs, method="exact-bnb")


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
    """

    problem: PlacementProblem
    method: str = "auto"
    seed: Optional[int] = 0
    deterministic_greedy: bool = False
    local_search: bool = True

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown placement method {self.method!r}; expected one of {METHODS}")

    def solve(self) -> PlacementPlan:
        """Solve the instance with the configured method."""
        method = self.method
        if method == "auto":
            small = self.problem.candidate_count <= SMALL_SCALE_CANDIDATE_LIMIT
            method = "exact" if small else "greedy"
        if method == "milp":
            return solve_placement_milp(self.problem)
        if method == "exact":
            # Constructed first: the candidate-count guard fires before any work.
            search = CombinatorialBranchAndBound(self.problem)
            return search.solve(initial_hubs=self._greedy_plan().hubs)
        return self._greedy_plan()

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
    network is probed with batched bit-parallel BFS sweeps.
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
            (``deterministic_greedy``, ``local_search``).
    """
    if isinstance(network_or_problem, PlacementProblem):
        problem = network_or_problem
    else:
        problem = build_problem(network_or_problem, omega=omega)
    solver = PlacementSolver(problem, method=method, seed=seed, **solver_options)
    return solver.solve()
