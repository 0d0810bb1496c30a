"""MILP formulation of the placement problem (small-scale optimal solution).

The paper linearizes the nonlinear balance-cost objective by introducing the
auxiliary binary variables ``theta[n][l] = x_n * x_l`` and
``phi[n][l][m] = theta[n][l] * y_mn`` (equations 6-10) and solving the
resulting mixed-integer linear program with a commercial solver.  Since no
commercial solver is available offline, this module provides:

* :func:`linearize_placement` -- builds the exact MILP of the paper
  (objective vector, inequality and equality constraint matrices, variable
  index maps),
* :class:`BranchAndBoundSolver` -- an in-house branch-and-bound solver over
  the placement variables ``x``, using the scipy/HiGHS LP relaxation of the
  linearized program as the lower bound and Lemma-1 completion to produce
  incumbents,
* :func:`solve_placement_milp` -- the public entry point, which also uses
  ``scipy.optimize.milp`` (HiGHS branch-and-cut) when it is available as a
  faster backend and falls back to the in-house solver otherwise.

The in-house solver is validated against brute force in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.placement.assignment import plan_for_placement, scalar_placement_cost
from repro.placement.problem import PlacementPlan, PlacementProblem

NodeId = Hashable
_INT_TOL = 1e-6


@dataclass
class MILPModel:
    """The linearized placement MILP in standard ``min c.x`` form.

    Attributes:
        objective: Objective coefficient vector ``c``.
        a_ub: Inequality constraint matrix (``A_ub @ v <= b_ub``), CSR sparse.
        b_ub: Inequality right-hand side.
        a_eq: Equality constraint matrix (``A_eq @ v == b_eq``), CSR sparse.
        b_eq: Equality right-hand side.
        index: Map from symbolic variable name (e.g. ``("x", n)``,
            ``("y", m, n)``, ``("theta", n, l)``, ``("phi", n, l, m)``) to its
            column index.
        x_indices: Column indices of the placement variables in candidate order.
        problem: The originating placement problem.
    """

    objective: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    index: Dict[Tuple, int]
    x_indices: List[int]
    problem: PlacementProblem

    @property
    def variable_count(self) -> int:
        """Total number of decision variables."""
        return int(self.objective.size)

    @property
    def constraint_count(self) -> int:
        """Total number of linear constraints."""
        return int(self.a_ub.shape[0] + self.a_eq.shape[0])

    def decode_placement(self, solution: np.ndarray) -> List[NodeId]:
        """Candidates whose ``x_n`` is (numerically) one in a solution vector."""
        hubs = []
        for candidate, column in zip(self.problem.candidates, self.x_indices):
            if solution[column] > 0.5:
                hubs.append(candidate)
        return hubs


def linearize_placement(problem: PlacementProblem) -> MILPModel:
    """Build the paper's linearized MILP (equations 6-10) for a problem instance."""
    clients = list(problem.clients)
    candidates = list(problem.candidates)
    omega = problem.omega
    costs = problem.costs

    index: Dict[Tuple, int] = {}

    def add_var(key: Tuple) -> int:
        index[key] = len(index)
        return index[key]

    for n in candidates:
        add_var(("x", n))
    for m in clients:
        for n in candidates:
            add_var(("y", m, n))
    for n in candidates:
        for l in candidates:
            add_var(("theta", n, l))
    for n in candidates:
        for l in candidates:
            for m in clients:
                add_var(("phi", n, l, m))

    var_count = len(index)
    objective = np.zeros(var_count)
    # Management cost: sum_m sum_n zeta[m][n] * y_mn.
    for m in clients:
        for n in candidates:
            objective[index[("y", m, n)]] += costs.zeta[m][n]
    # Synchronization cost: omega * sum_nl (sum_m delta[n][l] * phi_nlm + eps[n][l] * theta_nl).
    for n in candidates:
        for l in candidates:
            objective[index[("theta", n, l)]] += omega * costs.epsilon[n][l]
            for m in clients:
                objective[index[("phi", n, l, m)]] += omega * costs.delta[n][l]

    ub_rows: List[Tuple[List[int], List[float], float]] = []
    eq_rows: List[Tuple[List[int], List[float], float]] = []

    # Each client is assigned to exactly one candidate (constraint on y).
    for m in clients:
        cols = [index[("y", m, n)] for n in candidates]
        eq_rows.append((cols, [1.0] * len(cols), 1.0))

    # Assignment only to placed candidates: y_mn - x_n <= 0.
    for m in clients:
        for n in candidates:
            ub_rows.append(([index[("y", m, n)], index[("x", n)]], [1.0, -1.0], 0.0))

    # Linearization of theta = x_n * x_l (equation 8).
    for n in candidates:
        for l in candidates:
            t = index[("theta", n, l)]
            xn = index[("x", n)]
            xl = index[("x", l)]
            ub_rows.append(([t, xn], [1.0, -1.0], 0.0))
            ub_rows.append(([t, xl], [1.0, -1.0], 0.0))
            ub_rows.append(([xn, xl, t], [1.0, 1.0, -1.0], 1.0))

    # Linearization of phi = theta * y (equation 9).
    for n in candidates:
        for l in candidates:
            t = index[("theta", n, l)]
            for m in clients:
                p = index[("phi", n, l, m)]
                y = index[("y", m, n)]
                ub_rows.append(([p, t], [1.0, -1.0], 0.0))
                ub_rows.append(([p, y], [1.0, -1.0], 0.0))
                ub_rows.append(([t, y, p], [1.0, 1.0, -1.0], 1.0))

    # At least one smooth node must be placed.
    ub_rows.append(([index[("x", n)] for n in candidates], [-1.0] * len(candidates), -1.0))

    a_ub, b_ub = _rows_to_sparse(ub_rows, var_count)
    a_eq, b_eq = _rows_to_sparse(eq_rows, var_count)
    x_indices = [index[("x", n)] for n in candidates]
    return MILPModel(objective, a_ub, b_ub, a_eq, b_eq, index, x_indices, problem)


def _rows_to_sparse(
    rows: Sequence[Tuple[List[int], List[float], float]],
    var_count: int,
) -> Tuple[sparse.csr_matrix, np.ndarray]:
    """Assemble (cols, coefficients, rhs) row triples into a CSR matrix."""
    data: List[float] = []
    row_idx: List[int] = []
    col_idx: List[int] = []
    rhs: List[float] = []
    for row_number, (cols, coefficients, bound) in enumerate(rows):
        rhs.append(bound)
        for col, coefficient in zip(cols, coefficients):
            row_idx.append(row_number)
            col_idx.append(col)
            data.append(coefficient)
    matrix = sparse.csr_matrix(
        (data, (row_idx, col_idx)), shape=(len(rows), var_count), dtype=float
    )
    return matrix, np.asarray(rhs, dtype=float)


@dataclass
class MILPResult:
    """Outcome of a MILP solve: the plan plus solver diagnostics."""

    plan: PlacementPlan
    objective_value: float
    nodes_explored: int
    backend: str
    optimal: bool = True


class BranchAndBoundSolver:
    """Branch-and-bound over the placement variables with LP-relaxation bounds.

    The solver branches only on the ``x`` (placement) variables: once every
    ``x`` is fixed, the optimal assignment is determined by Lemma 1, so the
    incumbent at each integral node is computed combinatorially rather than
    trusting a fractional LP assignment.  Lower bounds come from the HiGHS LP
    relaxation of the full linearized program with the branching decisions
    imposed as variable bounds.
    """

    def __init__(
        self,
        model: MILPModel,
        node_limit: int = 2000,
        gap_tolerance: float = 1e-6,
    ) -> None:
        self.model = model
        self.node_limit = node_limit
        self.gap_tolerance = gap_tolerance
        self.nodes_explored = 0

    def solve(self, initial_hubs: Optional[Sequence[NodeId]] = None) -> MILPResult:
        """Run branch and bound, optionally warm-started with an initial placement."""
        problem = self.model.problem
        candidates = list(problem.candidates)

        best_hubs: Optional[Tuple[NodeId, ...]] = None
        best_cost = float("inf")
        if initial_hubs:
            warm = tuple(h for h in candidates if h in set(initial_hubs))
            if warm:
                best_hubs = warm
                best_cost = scalar_placement_cost(problem, warm)

        # Depth-first stack of partial fixings: candidate -> 0/1.
        stack: List[Dict[NodeId, int]] = [{}]
        proven_optimal = True
        while stack:
            if self.nodes_explored >= self.node_limit:
                proven_optimal = False
                break
            fixing = stack.pop()
            self.nodes_explored += 1

            relaxation = self._solve_relaxation(fixing)
            if relaxation is None:
                continue
            bound, x_values = relaxation
            if bound >= best_cost - self.gap_tolerance:
                continue

            fractional = self._most_fractional(candidates, fixing, x_values)
            if fractional is None:
                # All x integral in the relaxation: evaluate via Lemma 1.
                hubs = tuple(
                    c
                    for c, value in zip(candidates, x_values)
                    if fixing.get(c, 1 if value > 0.5 else 0) == 1
                )
                if not hubs:
                    continue
                cost = scalar_placement_cost(problem, hubs)
                if cost < best_cost:
                    best_cost = cost
                    best_hubs = hubs
                continue

            for value in (1, 0):
                child = dict(fixing)
                child[fractional] = value
                stack.append(child)

        if best_hubs is None:
            # Degenerate fallback: place every candidate.
            best_hubs = tuple(candidates)
            best_cost = scalar_placement_cost(problem, best_hubs)
            proven_optimal = False

        plan = plan_for_placement(problem, best_hubs, method="milp-branch-and-bound")
        return MILPResult(
            plan=plan,
            objective_value=best_cost,
            nodes_explored=self.nodes_explored,
            backend="in-house-bnb",
            optimal=proven_optimal,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _solve_relaxation(
        self, fixing: Dict[NodeId, int]
    ) -> Optional[Tuple[float, np.ndarray]]:
        """LP relaxation with branching decisions imposed; None if infeasible."""
        model = self.model
        lower = np.zeros(model.variable_count)
        upper = np.ones(model.variable_count)
        for candidate, column in zip(model.problem.candidates, model.x_indices):
            if candidate in fixing:
                lower[column] = upper[column] = float(fixing[candidate])
        # Imported on use (here and in _solve_with_scipy_milp): loading
        # scipy.optimize costs ~0.1 s that only a MILP solve should pay.
        from scipy import optimize

        result = optimize.linprog(
            model.objective,
            A_ub=model.a_ub,
            b_ub=model.b_ub,
            A_eq=model.a_eq,
            b_eq=model.b_eq,
            bounds=np.column_stack([lower, upper]),
            method="highs",
        )
        if not result.success:
            return None
        x_values = np.array([result.x[column] for column in model.x_indices])
        return float(result.fun), x_values

    @staticmethod
    def _most_fractional(
        candidates: Sequence[NodeId],
        fixing: Dict[NodeId, int],
        x_values: np.ndarray,
    ) -> Optional[NodeId]:
        """The unfixed candidate whose relaxed value is closest to 0.5."""
        best: Optional[NodeId] = None
        best_distance = 0.5 - _INT_TOL
        for candidate, value in zip(candidates, x_values):
            if candidate in fixing:
                continue
            distance = abs(value - 0.5)
            if distance < best_distance:
                best_distance = distance
                best = candidate
        if best is not None:
            return best
        # No fractional variable but some are still unfixed: if any unfixed
        # remains they are integral in the relaxation, which is fine.
        return None


def _solve_with_scipy_milp(model: MILPModel) -> Optional[MILPResult]:
    """Solve the linearized program with scipy's HiGHS MILP, if available."""
    from scipy import optimize

    milp = getattr(optimize, "milp", None)
    if milp is None:  # pragma: no cover - scipy always ships milp in our env
        return None
    constraints = []
    if model.a_ub.shape[0]:
        constraints.append(optimize.LinearConstraint(model.a_ub, -np.inf, model.b_ub))
    if model.a_eq.shape[0]:
        constraints.append(optimize.LinearConstraint(model.a_eq, model.b_eq, model.b_eq))
    result = milp(
        c=model.objective,
        constraints=constraints,
        integrality=np.ones(model.variable_count),
        bounds=optimize.Bounds(0, 1),
    )
    if not result.success or result.x is None:
        return None
    hubs = model.decode_placement(result.x)
    if not hubs:
        return None
    plan = plan_for_placement(model.problem, hubs, method="milp-highs")
    return MILPResult(
        plan=plan,
        objective_value=plan.balance_cost,
        nodes_explored=0,
        backend="scipy-highs",
        optimal=True,
    )


def solve_placement_milp(
    problem: PlacementProblem,
    backend: str = "auto",
    node_limit: int = 2000,
    initial_hubs: Optional[Sequence[NodeId]] = None,
) -> MILPResult:
    """Solve the placement problem exactly through the MILP formulation.

    Args:
        problem: The placement instance (small-scale: the MILP grows as
            ``O(|V_SNC|^2 * |V_CLI|)`` variables).
        backend: ``"auto"`` (scipy HiGHS MILP if available, otherwise the
            in-house branch and bound), ``"scipy"`` or ``"bnb"``.
        node_limit: Node budget for the in-house branch and bound.
        initial_hubs: Optional warm-start placement used as the first incumbent.
    """
    model = linearize_placement(problem)
    if backend not in ("auto", "scipy", "bnb"):
        raise ValueError(f"unknown MILP backend {backend!r}")
    if backend in ("auto", "scipy"):
        result = _solve_with_scipy_milp(model)
        if result is not None:
            return result
        if backend == "scipy":
            raise RuntimeError("scipy.optimize.milp failed to solve the placement MILP")
    solver = BranchAndBoundSolver(model, node_limit=node_limit)
    return solver.solve(initial_hubs=initial_hubs)
