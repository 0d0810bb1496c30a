"""Exhaustive placement optimum, used as ground truth in tests.

The placement objective is a set function over subsets of the candidate set
(the assignment is determined by Lemma 1), so the true optimum of a small
instance can be found by enumerating all non-empty subsets.  This is
exponential and only intended for instances with at most ~16 candidates.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from repro.placement.assignment import plan_for_placement, scalar_placement_cost
from repro.placement.problem import PlacementPlan, PlacementProblem

#: Refuse to enumerate more candidates than this (2^16 subsets).
MAX_BRUTE_FORCE_CANDIDATES = 16


def brute_force_placement(
    problem: PlacementProblem,
    max_hubs: Optional[int] = None,
) -> PlacementPlan:
    """Enumerate every placement and return the cheapest plan.

    Args:
        problem: The placement instance.
        max_hubs: Optional cap on the number of placed hubs (enumerate only
            subsets up to this size).

    Raises:
        ValueError: If the instance has more candidates than
            :data:`MAX_BRUTE_FORCE_CANDIDATES`.
    """
    candidates = list(problem.candidates)
    if len(candidates) > MAX_BRUTE_FORCE_CANDIDATES:
        raise ValueError(
            f"brute force limited to {MAX_BRUTE_FORCE_CANDIDATES} candidates, "
            f"got {len(candidates)}"
        )
    limit = len(candidates) if max_hubs is None else min(max_hubs, len(candidates))
    if limit < 1:
        raise ValueError("max_hubs must allow at least one hub")

    best_cost = float("inf")
    best_subset = None
    for size in range(1, limit + 1):
        for subset in combinations(candidates, size):
            cost = scalar_placement_cost(problem, subset)
            if cost < best_cost:
                best_cost = cost
                best_subset = subset
    if best_subset is None:  # pragma: no cover - only when there are no candidates
        raise ValueError("no feasible placement found")
    return plan_for_placement(problem, best_subset, method="brute-force")
