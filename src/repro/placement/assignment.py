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
list does.  :func:`sequential_placement_cost` is ``C_M + omega * C_S`` in the
accumulation order of :meth:`PlacementProblem.make_plan`; the exact search
ranks subsets with it, so the cost it compares is the cost the plan reports.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable

import numpy as np

from repro.placement.costs import scratch_rows, sequential_sum
from repro.placement.problem import PlacementPlan, PlacementProblem

NodeId = Hashable


def hub_sync_parts(problem: PlacementProblem, hub_rows: np.ndarray) -> np.ndarray:
    """``omega * sum_l delta[n][l]`` for every hub row, vectorized.

    The last column of a row-wise ``cumsum`` over the hubs' delta block:
    ``cumsum`` accumulates left to right, i.e. hub-by-hub in ``hub_rows``
    (candidate) order, reproducing the scalar ``sum`` over the hub list
    bit-for-bit.  The ``(hubs, hubs)`` block is gathered with two ``take``
    calls (rows, then columns): the same values in the same C layout as the
    2-D fancy index, at about half its cost.
    """
    block = problem.arrays.delta.take(hub_rows, axis=0).take(hub_rows, axis=1)
    return problem.omega * np.cumsum(block, axis=1)[:, -1]


def _hub_scores(problem: PlacementProblem, hub_rows: np.ndarray) -> np.ndarray:
    """``(hubs, clients)`` Lemma-1 scores: one contiguous ``zeta`` row per hub."""
    scores = problem.arrays.zeta_t[hub_rows]
    scores += hub_sync_parts(problem, hub_rows)[:, None]
    return scores


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


def sequential_placement_cost(problem: PlacementProblem, hub_rows: np.ndarray) -> float:
    """``f(X)`` as ``C_M + omega * C_S`` for a non-empty candidate-ordered row vector.

    The arithmetic of :meth:`PlacementProblem.make_plan` without the dicts:
    the Lemma-1 choice per client, the chosen ``zeta`` entries summed in
    client order, ``C_S`` from the same :meth:`CostArrays.synchronization`
    the plan's cost comes from.  The exact search and the double greedy's degenerate-case seed
    rank subsets with it: which of several floating-point-tied subsets they
    report is pinned by this sequential accumulation order, not by the
    regrouped pairwise sums of :func:`vectorized_placement_cost`.
    """
    arrays = problem.arrays
    choices = assignment_rows(problem, hub_rows)
    management = sequential_sum(arrays.zeta_t[hub_rows[choices], np.arange(len(choices))])
    loads = np.bincount(choices, minlength=len(hub_rows)).astype(float)
    return management + problem.omega * arrays.synchronization(hub_rows, loads)


def vectorized_placement_cost(problem: PlacementProblem, hub_rows: np.ndarray) -> float:
    """``f(X)`` evaluated on the arrays for a non-empty hub-row index vector.

    Uses the separable form ``f(X) = sum_m min_n (zeta[m][n] + omega *
    sum_l delta[n][l]) + omega * sum_{n,l in X} epsilon[n][l]``, which equals
    the scalar ``C_M + omega * C_S`` regrouped; the two agree to well below
    the differential suite's 1e-9 tolerance.

    The per-client minimum is folded over blocks of :func:`scratch_rows` hub
    rows, so a probe never holds the ``(hubs, clients)`` score matrix.
    ``min`` is exact, so the blocking cannot change a bit of ``per_client``.
    """
    arrays = problem.arrays
    sync = hub_sync_parts(problem, hub_rows)
    block = scratch_rows(arrays.client_count)
    scratch = np.empty((min(block, len(hub_rows)), arrays.client_count))
    per_client = None
    for start in range(0, len(hub_rows), block):
        rows = hub_rows[start : start + block]
        scores = scratch[: len(rows)]
        np.take(arrays.zeta_t, rows, axis=0, out=scores, mode="clip")  # unbuffered
        scores += sync[start : start + block, None]
        if per_client is None:
            per_client = scores.min(axis=0)
        else:
            np.minimum(per_client, scores.min(axis=0), out=per_client)
    epsilon_total = float(arrays.epsilon.take(hub_rows, axis=0).take(hub_rows, axis=1).sum())
    return float(per_client.sum()) + problem.omega * epsilon_total
