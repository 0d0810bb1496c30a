"""Optimal client-to-hub assignment (Lemma 1 of the paper).

Given a fixed placement ``x``, the balance cost separates per client: client
``m`` should be assigned to the placed hub ``n`` that minimizes
``omega * sum_{l placed} delta[n][l] + zeta[m][n]``.  This module computes
that assignment and, for a given placement, the resulting plan and cost.

The assignment and the set function ``f(X)`` are evaluated on the
:class:`~repro.placement.costs.CostArrays`.  The kernels are
constructed to be *decision-identical* to the nested-dict arithmetic kept in
:mod:`repro.reference.placement`: synchronization parts accumulate
hub-by-hub in candidate order (the scalar ``sum`` order), the per-client
score is the same two-term addition, and ``argmin`` breaks ties by the first
(candidate-order) minimum exactly as ``min`` over a candidate-ordered hub
list does.  :func:`scalar_placement_cost` is the one evaluation production
keeps on the model's nested-dict views: the exact enumerative solvers rank
subsets with it.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Sequence

import numpy as np

from repro.placement.problem import PlacementPlan, PlacementProblem

NodeId = Hashable


def assignment_key(problem: PlacementProblem, hubs: Sequence[NodeId], hub: NodeId) -> float:
    """The per-client-independent part of Lemma 1's assignment cost for ``hub``."""
    return problem.omega * sum(problem.costs.delta[hub][l] for l in hubs)


def hub_sync_parts(problem: PlacementProblem, hub_rows: np.ndarray) -> np.ndarray:
    """``omega * sum_l delta[n][l]`` for every hub row, vectorized.

    The last column of a row-wise ``cumsum`` over the hubs' delta block:
    ``cumsum`` accumulates left to right, i.e. hub-by-hub in ``hub_rows``
    (candidate) order, reproducing the scalar ``sum`` over the hub list
    bit-for-bit.
    """
    block = problem.arrays.delta[hub_rows[:, None], hub_rows]
    return problem.omega * np.cumsum(block, axis=1)[:, -1]


def _hub_scores(problem: PlacementProblem, hub_rows: np.ndarray) -> np.ndarray:
    """``(hubs, clients)`` Lemma-1 scores: one contiguous ``zeta`` row per hub."""
    return problem.arrays.zeta_t[hub_rows] + hub_sync_parts(problem, hub_rows)[:, None]


def assignment_rows(problem: PlacementProblem, hub_rows: np.ndarray) -> np.ndarray:
    """Per-client index into ``hub_rows`` of each client's Lemma-1 hub."""
    return np.argmin(_hub_scores(problem, hub_rows), axis=0)


def _candidate_hub_list(problem: PlacementProblem, hubs: Iterable[NodeId]) -> list:
    """``hubs`` filtered to candidates, in candidate order; never empty.

    Raises the subsystem's canonical error when the placement contains no
    usable hub (empty, or disjoint from the candidate set).
    """
    hub_set = set(hubs)
    hub_list = [hub for hub in problem.candidates if hub in hub_set]
    if not hub_list:
        raise ValueError("cannot assign clients: the placement is empty")
    return hub_list


def _scalar_assignment(problem: PlacementProblem, hub_list: Sequence[NodeId]) -> Dict[NodeId, NodeId]:
    """The Lemma-1 assignment over a prepared hub list, nested-dict arithmetic."""
    sync_part = {hub: assignment_key(problem, hub_list, hub) for hub in hub_list}
    assignment: Dict[NodeId, NodeId] = {}
    for client in problem.clients:
        zeta_row = problem.costs.zeta[client]
        assignment[client] = min(hub_list, key=lambda hub: sync_part[hub] + zeta_row[hub])
    return assignment


def optimal_assignment(
    problem: PlacementProblem,
    hubs: Iterable[NodeId],
) -> Dict[NodeId, NodeId]:
    """Assign every client to its Lemma-1 optimal hub among ``hubs``.

    Ties are broken deterministically by the candidate ordering of the cost
    model so that repeated runs produce identical plans.  Hubs outside the
    candidate set are ignored; a placement with no usable hub raises
    ``ValueError``.
    """
    hub_list = _candidate_hub_list(problem, hubs)
    arrays = problem.arrays
    choices = assignment_rows(problem, arrays.candidate_rows(hub_list))
    return {client: hub_list[choice] for client, choice in zip(arrays.clients, choices)}


def plan_for_placement(
    problem: PlacementProblem,
    hubs: Iterable[NodeId],
    method: str = "lemma1",
) -> PlacementPlan:
    """The full plan (with costs) induced by a placement via Lemma 1."""
    hub_set = set(hubs)
    assignment = optimal_assignment(problem, hub_set)
    return problem.make_plan(hub_set, assignment, method=method)


def placement_cost(problem: PlacementProblem, hubs: Iterable[NodeId]) -> float:
    """Balance cost of a placement under its optimal assignment.

    This is the set function ``f(X)`` of equation (14); it is the objective
    both exact and approximate placement solvers optimize over subsets of the
    candidate set.  An empty placement is infeasible and maps to ``+inf``;
    hubs outside the candidate set are ignored.
    """
    hub_set = set(hubs)
    if not hub_set:
        return float("inf")
    hub_list = _candidate_hub_list(problem, hub_set)
    return vectorized_placement_cost(problem, problem.arrays.candidate_rows(hub_list))


def scalar_placement_cost(problem: PlacementProblem, hubs: Iterable[NodeId]) -> float:
    """``f(X)`` as ``C_M + omega * C_S`` over the nested-dict cost model.

    The exact enumerative solvers (brute force, the branch-and-bound, the
    double greedy's degenerate-case seed) rank candidate subsets with this
    one fixed evaluation order, so which of several floating-point-tied
    subsets they report as the optimum is pinned by the arithmetic below
    rather than by the regrouped sum of :func:`vectorized_placement_cost`.
    They are small-scale by definition, so the per-client loop is cheap.
    """
    hub_set = set(hubs)
    if not hub_set:
        return float("inf")
    hub_list = _candidate_hub_list(problem, hub_set)
    assignment = _scalar_assignment(problem, hub_list)
    return problem.costs.balance_cost(hub_list, assignment, problem.omega)


def vectorized_placement_cost(problem: PlacementProblem, hub_rows: np.ndarray) -> float:
    """``f(X)`` evaluated on the arrays for a non-empty hub-row index vector.

    Uses the separable form ``f(X) = sum_m min_n (zeta[m][n] + omega *
    sum_l delta[n][l]) + omega * sum_{n,l in X} epsilon[n][l]``, which equals
    the scalar ``C_M + omega * C_S`` regrouped; the two agree to well below
    the differential suite's 1e-9 tolerance.
    """
    per_client = _hub_scores(problem, hub_rows).min(axis=0)
    epsilon_total = float(problem.arrays.epsilon[hub_rows[:, None], hub_rows].sum())
    return float(per_client.sum()) + problem.omega * epsilon_total


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
