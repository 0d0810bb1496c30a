"""Nested-dict placement arithmetic and from-scratch solvers.

The scalar side of the placement subsystem, and the only reader of the cost
model's nested-dict views: the per-candidate networkx hop probe, Lemma 1 as
a ``min`` over a candidate-ordered hub list, ``f(X)`` as ``C_M + omega *
C_S`` of that assignment, the exhaustive optimum, and the greedy solvers
written directly against that objective -- every marginal gain is two
from-scratch evaluations, with no incremental engine, no gain cache and no
row vectors.  The decision rules (gain snapping, tolerances, random draws,
sweep orders) are those of :mod:`repro.placement.supermodular`, so the plans
are comparable hub for hub.

``tests/placement/test_backend_equivalence.py`` pins production against
this module: identical hub sets and assignments, costs within 1e-9 for the
regrouped greedy kernels and ``==`` for the exact search's sequential one.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Hashable, Iterable, Optional, Sequence, Set

import numpy as np

from repro.placement.problem import PlacementPlan, PlacementProblem
from repro.placement.supermodular import GAIN_TOLERANCE, objective_upper_bound
from repro.reference.topology import hop_counts_from
from repro.topology.network import PCNetwork

NodeId = Hashable


def hop_probe(
    network: PCNetwork, candidates: Optional[Sequence[NodeId]] = None
) -> Dict[NodeId, Dict[NodeId, int]]:
    """Per-candidate hop-count dicts, one networkx BFS per candidate.

    Feeds ``build_problem(network, ..., hops=hop_probe(network))`` in place
    of the batched bit-parallel BFS sweep.
    """
    candidate_list = list(candidates) if candidates is not None else network.candidates()
    return {candidate: hop_counts_from(network, candidate) for candidate in candidate_list}


def _candidate_hub_list(problem: PlacementProblem, hubs: Iterable[NodeId]) -> list:
    """``hubs`` filtered to candidates, in candidate order; never empty."""
    hub_set = set(hubs)
    hub_list = [hub for hub in problem.candidates if hub in hub_set]
    if not hub_list:
        raise ValueError("cannot assign clients: the placement is empty")
    return hub_list


def assignment_key(problem: PlacementProblem, hubs: Sequence[NodeId], hub: NodeId) -> float:
    """The per-client-independent part of Lemma 1's assignment cost for ``hub``."""
    return problem.omega * sum(problem.costs.delta[hub][l] for l in hubs)


def _scalar_assignment(problem: PlacementProblem, hub_list: Sequence[NodeId]) -> Dict[NodeId, NodeId]:
    """The Lemma-1 assignment over a prepared hub list, nested-dict arithmetic."""
    sync_part = {hub: assignment_key(problem, hub_list, hub) for hub in hub_list}
    assignment: Dict[NodeId, NodeId] = {}
    for client in problem.clients:
        zeta_row = problem.costs.zeta[client]
        assignment[client] = min(hub_list, key=lambda hub: sync_part[hub] + zeta_row[hub])
    return assignment


def optimal_assignment(problem: PlacementProblem, hubs: Iterable[NodeId]) -> Dict[NodeId, NodeId]:
    """Assign every client to its Lemma-1 optimal hub among ``hubs``."""
    return _scalar_assignment(problem, _candidate_hub_list(problem, hubs))


def placement_cost(problem: PlacementProblem, hubs: Iterable[NodeId]) -> float:
    """``f(X)`` as ``C_M + omega * C_S`` of the nested-dict Lemma-1 assignment.

    The one fixed evaluation order the exhaustive optimum ranks subsets
    with; production's ``sequential_placement_cost`` must reproduce it bit
    for bit.  An empty placement is infeasible and maps to ``+inf``.
    """
    hub_set = set(hubs)
    if not hub_set:
        return float("inf")
    hub_list = _candidate_hub_list(problem, hub_set)
    assignment = _scalar_assignment(problem, hub_list)
    return problem.costs.balance_cost(hub_list, assignment, problem.omega)


def is_assignment_optimal(
    problem: PlacementProblem,
    plan: PlacementPlan,
    tolerance: float = 1e-9,
) -> bool:
    """Whether no single client could switch hubs and lower the balance cost.

    Used by tests to verify Lemma 1: for every client, its assigned hub must
    achieve the minimum of ``omega * sum_l delta[n][l] + zeta[m][n]`` over
    the placed hubs.
    """
    hub_list = [hub for hub in problem.candidates if hub in plan.hubs]
    sync_part = {hub: assignment_key(problem, hub_list, hub) for hub in hub_list}
    for client, assigned in plan.assignment.items():
        zeta_row = problem.costs.zeta[client]
        current = sync_part[assigned] + zeta_row[assigned]
        best = min(sync_part[hub] + zeta_row[hub] for hub in hub_list)
        if current > best + tolerance:
            return False
    return True


def plan_for_placement(
    problem: PlacementProblem, hubs: Iterable[NodeId], method: str = "lemma1"
) -> PlacementPlan:
    """The full plan (with costs) induced by a placement via Lemma 1."""
    hub_set = set(hubs)
    return problem.make_plan(hub_set, optimal_assignment(problem, hub_set), method=method)


def placement_objective(problem: PlacementProblem, subset: Iterable[NodeId]) -> float:
    """``f`` with the infeasible empty placement mapped to the upper bound."""
    subset = set(subset)
    if not subset:
        return objective_upper_bound(problem)
    return placement_cost(problem, subset)


def _gain(problem: PlacementProblem, before: Set[NodeId], after: Set[NodeId]) -> float:
    """``f(after) - f(before)``, snapped to zero within ``GAIN_TOLERANCE``."""
    gain = placement_objective(problem, after) - placement_objective(problem, before)
    return 0.0 if abs(gain) < GAIN_TOLERANCE else gain


def double_greedy_placement(
    problem: PlacementProblem,
    deterministic: bool = False,
    local_search: bool = True,
    seed: Optional[int] = 0,
) -> PlacementPlan:
    """Algorithm 1 with every marginal gain evaluated from scratch."""
    rng = np.random.default_rng(seed)
    candidates = list(problem.candidates)
    lower: Set[NodeId] = set()
    upper: Set[NodeId] = set(candidates)
    for element in candidates:
        gain_add = -_gain(problem, lower, lower | {element})
        gain_remove = -_gain(problem, upper, upper - {element})
        add_gain = max(gain_add, 0.0)
        remove_gain = max(gain_remove, 0.0)
        if add_gain == 0.0 and remove_gain == 0.0:
            take_add = True  # line 10 of Algorithm 1
        elif deterministic:
            take_add = gain_add >= gain_remove - GAIN_TOLERANCE
        else:
            take_add = rng.random() < add_gain / (add_gain + remove_gain)
        if take_add:
            lower.add(element)
        else:
            upper.discard(element)
    solution = set(lower)
    if not solution:
        solution = {min(candidates, key=lambda c: placement_cost(problem, {c}))}
    if local_search:
        solution = _local_search(problem, solution)
    return plan_for_placement(problem, solution, method="double-greedy")


def _local_search(problem: PlacementProblem, solution: Set[NodeId]) -> Set[NodeId]:
    """Sweep the candidates, toggling any that improves, until a pass changes nothing."""
    improved = True
    while improved:
        improved = False
        for candidate in problem.candidates:
            toggled = solution ^ {candidate}
            if toggled and _gain(problem, solution, toggled) < -GAIN_TOLERANCE:
                solution = toggled
                improved = True
    return solution


def greedy_descent_placement(problem: PlacementProblem) -> PlacementPlan:
    """Start from all candidates; drop the best removal while one helps."""
    members: Set[NodeId] = set(problem.candidates)
    improved = True
    while improved and len(members) > 1:
        improved = False
        best_candidate = None
        best_gain = -GAIN_TOLERANCE
        for candidate in problem.candidates:
            if candidate not in members:
                continue
            gain = _gain(problem, members, members - {candidate})
            if gain < best_gain - GAIN_TOLERANCE:
                best_gain = gain
                best_candidate = candidate
        if best_candidate is not None:
            members.discard(best_candidate)
            improved = True
    return plan_for_placement(problem, members, method="greedy-descent")


def brute_force_placement(problem: PlacementProblem) -> PlacementPlan:
    """The exhaustive optimum: the first cheapest non-empty candidate subset."""
    candidates = list(problem.candidates)
    best_cost = float("inf")
    best_subset = None
    for size in range(1, len(candidates) + 1):
        for subset in combinations(candidates, size):
            cost = placement_cost(problem, subset)
            if cost < best_cost:
                best_cost = cost
                best_subset = subset
    return plan_for_placement(problem, best_subset, method="brute-force")
