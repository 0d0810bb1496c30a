"""Large-scale approximate placement via supermodular minimization.

For large networks the MILP becomes intractable, so the paper minimizes the
set function ``f(X) = C_B(x_X, y(x_X))`` (equation 14) by maximizing its
submodular complement ``g(X) = f_ub - f(X)`` with the Buchbinder et al.
double-greedy algorithm (Algorithm 1 in the paper), which carries a tight
1/2 approximation guarantee for unconstrained submodular maximization.

This module implements:

* :func:`placement_objective` -- the set function ``f``, evaluated from
  scratch (the reference the incremental engine is validated against),
* :func:`objective_upper_bound` -- a valid ``f_ub``,
* :class:`ObjectiveEngine` -- an incremental evaluator of ``f`` over an
  evolving placement, with per-candidate marginal-gain caching; probes run
  on the :class:`~repro.placement.costs.CostArrays` kernels,
* :func:`double_greedy_placement` -- Algorithm 1 (randomized, or the
  deterministic variant when ``deterministic=True``), with an optional
  single-swap local-search polish driven by a lazy re-evaluation queue,
* :func:`greedy_descent_placement` -- a drop-while-it-helps ablation,
* :func:`is_supermodular` -- an exhaustive/sampled checker for the
  supermodularity property (used to validate Lemma 2's uniform-cost case).

Decision stability: marginal gains within ``GAIN_TOLERANCE`` of zero are
snapped to exactly zero before any branch, and every gain comparison -- the
deterministic keep/drop choice, the local-search improvement test and greedy
descent's cross-candidate best-removal pick -- carries the same tolerance,
so floating-point noise between this regrouped arithmetic and the
nested-dict oracle in :mod:`repro.reference.placement` cannot flip a
decision.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.placement.assignment import (
    placement_cost,
    plan_for_placement,
    sequential_placement_cost,
    vectorized_placement_cost,
)
from repro.placement.costs import sequential_sum
from repro.placement.problem import PlacementPlan, PlacementProblem

NodeId = Hashable

#: Marginal gains within this tolerance of zero are treated as exactly zero,
#: and improvement/keep-drop comparisons use it as slack, so (near-)tied
#: probes branch the same way whatever the floating-point evaluation order.
GAIN_TOLERANCE = 1e-12


def placement_objective(problem: PlacementProblem, subset: Iterable[NodeId]) -> float:
    """The set function ``f(X)``: balance cost of placement ``X`` under Lemma 1.

    The empty placement is infeasible; it is mapped to the objective upper
    bound so that the double-greedy arithmetic stays finite while the empty
    set remains unattractive.  This is the from-scratch evaluation; the
    solvers go through :class:`ObjectiveEngine`, whose incremental values the
    property suite pins to this function.
    """
    subset = set(subset)
    if not subset:
        return objective_upper_bound(problem)
    return placement_cost(problem, subset)


def objective_upper_bound(problem: PlacementProblem) -> float:
    """A finite ``f_ub`` with ``f_ub >= f(X)`` for every non-empty placement ``X``.

    Management cost is bounded by assigning every client to its worst
    candidate; synchronization cost is bounded by placing every candidate and
    charging every pair for the full client population.
    """
    arrays = problem.arrays
    management_bound = sequential_sum(arrays.zeta_t.max(axis=0))
    synchronization_bound = sequential_sum(arrays.delta * arrays.client_count + arrays.epsilon)
    return management_bound + problem.omega * synchronization_bound + 1.0


class ObjectiveEngine:
    """Incremental evaluator of ``f`` over an evolving placement.

    Instead of re-running :func:`placement_objective` from scratch for every
    probe, the engine maintains the current subset, its objective value and
    the sorted hub-row vector of the
    :class:`~repro.placement.costs.CostArrays`.  Marginal gains are
    cached per candidate and keyed by a state *version* that bumps on every
    applied move: a cached gain is served for free while the subset is
    unchanged and lazily re-evaluated the next time the candidate is probed
    after a move -- the re-evaluation queue of the local search leans on
    exactly this.
    """

    def __init__(self, problem: PlacementProblem, members: Iterable[NodeId] = ()) -> None:
        self.problem = problem
        self.members: Set[NodeId] = set(members)
        self.version = 0
        #: ``candidate -> (version, gain, resulting value, resulting rows)``.
        self._gain_cache: Dict[NodeId, Tuple[int, float, float, np.ndarray]] = {}
        self._rows = problem.arrays.candidate_rows(self.members)
        self.value = self._evaluate_rows(self._rows)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def _evaluate_rows(self, rows: np.ndarray) -> float:
        if not len(rows):
            return objective_upper_bound(self.problem)
        return vectorized_placement_cost(self.problem, rows)

    def _probe(self, candidate: NodeId) -> Tuple[float, float, np.ndarray]:
        """(gain, resulting value, resulting rows) of toggling ``candidate``."""
        cached = self._gain_cache.get(candidate)
        if cached is not None and cached[0] == self.version:
            return cached[1:]
        row = self.problem.arrays.candidate_index[candidate]
        if candidate in self.members:
            rows = self._rows[self._rows != row]
        else:
            at = int(np.searchsorted(self._rows, row))
            rows = np.concatenate((self._rows[:at], [row], self._rows[at:]))
        value = self._evaluate_rows(rows)
        gain = value - self.value
        if abs(gain) < GAIN_TOLERANCE:
            gain = 0.0
        self._gain_cache[candidate] = (self.version, gain, value, rows)
        return gain, value, rows

    def add_gain(self, candidate: NodeId) -> float:
        """``f(S | {u}) - f(S)``; ``candidate`` must not be a member."""
        assert candidate not in self.members
        return self._probe(candidate)[0]

    def remove_gain(self, candidate: NodeId) -> float:
        """``f(S - {u}) - f(S)``; ``candidate`` must be a member."""
        assert candidate in self.members
        return self._probe(candidate)[0]

    def toggle_gain(self, candidate: NodeId) -> Optional[float]:
        """Gain of flipping the candidate's membership; None if it would empty S."""
        if candidate in self.members and len(self.members) == 1:
            return None
        return self._probe(candidate)[0]

    # ------------------------------------------------------------------ #
    # state transitions
    # ------------------------------------------------------------------ #
    def apply_toggle(self, candidate: NodeId) -> None:
        """Flip the candidate's membership, reusing the probe's exact value."""
        _, self.value, self._rows = self._probe(candidate)
        self.members ^= {candidate}
        self.version += 1


def double_greedy_placement(
    problem: PlacementProblem,
    deterministic: bool = False,
    local_search: bool = True,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = 0,
    element_order: Optional[Sequence[NodeId]] = None,
) -> PlacementPlan:
    """Algorithm 1: double-greedy placement approximation.

    Probes run through two :class:`ObjectiveEngine` instances (the growing
    lower set and the shrinking upper set), so each candidate costs two
    incremental evaluations instead of two from-scratch
    :func:`placement_objective` recomputations.

    Args:
        problem: The placement instance.
        deterministic: Use the deterministic variant (keep/drop by comparing
            marginal gains) instead of the randomized 1/2-approximation.
        local_search: Apply a single-element add/remove local search to the
            double-greedy output; this never worsens the plan and mirrors the
            "community keeps optimizing" behaviour of the paper's contract.
        rng: Random generator used by the randomized variant.
        seed: Seed for a fresh generator when ``rng`` is not supplied.
        element_order: Candidate processing order ``u_1 .. u_z`` (defaults to
            the problem's candidate order).
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    candidates = list(element_order) if element_order is not None else list(problem.candidates)
    if set(candidates) != set(problem.candidates):
        raise ValueError("element_order must be a permutation of the candidate set")

    lower = ObjectiveEngine(problem)
    upper = ObjectiveEngine(problem, candidates)

    for element in candidates:
        # In g(X) = f_ub - f(X) terms: the gain of adding to the lower set is
        # -Δf there, the gain of dropping from the upper set is -Δf there.
        gain_add = -lower.add_gain(element)
        gain_remove = -upper.remove_gain(element)
        add_gain = max(gain_add, 0.0)
        remove_gain = max(gain_remove, 0.0)
        if add_gain == 0.0 and remove_gain == 0.0:
            take_add = True  # line 10 of Algorithm 1
        elif deterministic:
            take_add = gain_add >= gain_remove - GAIN_TOLERANCE
        else:
            take_add = rng.random() < add_gain / (add_gain + remove_gain)
        if take_add:
            lower.apply_toggle(element)
        else:
            upper.apply_toggle(element)

    assert lower.members == upper.members, "double greedy must converge to a single solution"
    solution = set(lower.members)
    if not solution:
        # Infeasible corner case (can only happen on degenerate cost models):
        # fall back to the single cheapest hub.
        rows = problem.arrays.candidate_rows
        solution = {min(candidates, key=lambda c: sequential_placement_cost(problem, rows([c])))}
        lower = ObjectiveEngine(problem, solution)

    if local_search:
        solution = _local_search(problem, lower)

    return plan_for_placement(problem, solution, method="double-greedy")


def _local_search(problem: PlacementProblem, engine: ObjectiveEngine) -> Set[NodeId]:
    """Single add/remove local search; stops at a local optimum.

    Sweeps the candidates in order, applying any improving toggle
    immediately, until one full pass makes no progress.  ``pending`` is the
    lazy re-evaluation queue: a candidate's gain is (re-)computed only when
    it is popped, and the engine serves it from the version-keyed cache when
    the solution has not changed since the last probe -- which makes the
    final confirming pass (every candidate re-checked, nothing improves)
    mostly cache hits.
    """
    candidates = list(problem.candidates)
    pending = deque(candidates)
    improved_in_pass = False
    while True:
        if not pending:
            if not improved_in_pass:
                break
            pending = deque(candidates)
            improved_in_pass = False
            continue
        candidate = pending.popleft()
        gain = engine.toggle_gain(candidate)
        if gain is not None and gain < -GAIN_TOLERANCE:
            engine.apply_toggle(candidate)
            improved_in_pass = True
    return set(engine.members)


def greedy_descent_placement(problem: PlacementProblem) -> PlacementPlan:
    """A simple greedy-descent baseline: start from all candidates, drop while it helps.

    Provided as an ablation against the double-greedy algorithm; it has no
    approximation guarantee for non-monotone objectives.  Removal probes go
    through the same gain cache as the double greedy, so each round costs one
    incremental evaluation per surviving candidate.
    """
    engine = ObjectiveEngine(problem, problem.candidates)
    improved = True
    while improved and len(engine.members) > 1:
        improved = False
        best_candidate = None
        best_gain = -GAIN_TOLERANCE
        for candidate in problem.candidates:
            if candidate not in engine.members:
                continue
            gain = engine.remove_gain(candidate)
            # Tolerance also on the cross-candidate comparison: a later
            # candidate must beat the incumbent by more than floating-point
            # noise, so near-tied gains resolve to the earlier
            # (candidate-order) choice.
            if gain < best_gain - GAIN_TOLERANCE:
                best_gain = gain
                best_candidate = candidate
        if best_candidate is not None:
            engine.apply_toggle(best_candidate)
            improved = True
    return plan_for_placement(problem, engine.members, method="greedy-descent")


def is_supermodular(
    problem: PlacementProblem,
    max_subset_size: Optional[int] = None,
    sample_checks: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    tolerance: float = 1e-9,
) -> bool:
    """Check definition 2 (supermodularity) of the objective on an instance.

    For every pair of nested subsets ``A ⊆ B`` and element ``i ∉ B`` the
    marginal increase at ``B`` must be at least the marginal increase at
    ``A``.  Exhaustive over all subsets when the candidate set is small;
    ``sample_checks`` random triples otherwise.
    """
    candidates = list(problem.candidates)
    z = len(candidates)
    if sample_checks is None and z > 12:
        raise ValueError("exhaustive supermodularity check is limited to 12 candidates")

    def f(subset: Tuple[NodeId, ...]) -> float:
        return placement_objective(problem, subset)

    if sample_checks is not None:
        if rng is None:
            rng = np.random.default_rng(0)
        for _ in range(sample_checks):
            mask_b = rng.random(z) < 0.5
            b = {c for c, take in zip(candidates, mask_b) if take}
            if len(b) >= z:
                continue
            a = {c for c in b if rng.random() < 0.5}
            outside = [c for c in candidates if c not in b]
            i = outside[int(rng.integers(len(outside)))]
            lhs = f(tuple(a | {i})) - f(tuple(a))
            rhs = f(tuple(b | {i})) - f(tuple(b))
            if lhs > rhs + tolerance:
                return False
        return True

    limit = z if max_subset_size is None else min(max_subset_size, z)
    cache: Dict[FrozenSet[NodeId], float] = {}

    def f_cached(subset: FrozenSet[NodeId]) -> float:
        if subset not in cache:
            cache[subset] = f(tuple(subset))
        return cache[subset]

    subsets: List[Tuple[NodeId, ...]] = []
    for size in range(0, limit + 1):
        subsets.extend(combinations(candidates, size))
    for b in subsets:
        b_set = frozenset(b)
        outside = [c for c in candidates if c not in b_set]
        for size in range(0, len(b) + 1):
            for a in combinations(b, size):
                a_set = frozenset(a)
                for i in outside:
                    lhs = f_cached(a_set | {i}) - f_cached(a_set)
                    rhs = f_cached(b_set | {i}) - f_cached(b_set)
                    if lhs > rhs + tolerance:
                        return False
    return True
