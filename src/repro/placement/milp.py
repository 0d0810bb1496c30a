"""MILP formulation of the placement problem (small-scale optimal solution).

The paper linearizes the nonlinear balance-cost objective by introducing the
auxiliary binary variables ``theta[n][l] = x_n * x_l`` and
``phi[n][l][m] = theta[n][l] * y_mn`` (equations 6-10) and hands the
resulting mixed-integer linear program to a solver.  This module does the
same with the solver scipy ships:

* :func:`linearize_placement` -- builds the exact MILP of the paper
  (objective vector, inequality and equality constraint matrices, variable
  index maps),
* :func:`solve_placement_milp` -- solves it with ``scipy.optimize.milp``
  (HiGHS branch-and-cut, part of every scipy >= 1.9) and decodes the plan.

The result is validated against brute force in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.placement.assignment import plan_for_placement
from repro.placement.problem import PlacementPlan, PlacementProblem

NodeId = Hashable


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
    """Outcome of a MILP solve: the decoded plan and its objective value."""

    plan: PlacementPlan
    objective_value: float


def solve_placement_milp(problem: PlacementProblem) -> MILPResult:
    """Solve the placement problem exactly through the MILP formulation.

    Args:
        problem: The placement instance (small-scale: the MILP grows as
            ``O(|V_SNC|^2 * |V_CLI|)`` variables).

    Raises:
        RuntimeError: When HiGHS reports no solution or one that places no hub.
    """
    # Imported on use: loading scipy.optimize costs ~0.1 s that only a MILP
    # solve should pay.
    from scipy import optimize

    model = linearize_placement(problem)
    constraints = []
    if model.a_ub.shape[0]:
        constraints.append(optimize.LinearConstraint(model.a_ub, -np.inf, model.b_ub))
    if model.a_eq.shape[0]:
        constraints.append(optimize.LinearConstraint(model.a_eq, model.b_eq, model.b_eq))
    result = optimize.milp(
        c=model.objective,
        constraints=constraints,
        integrality=np.ones(model.variable_count),
        bounds=optimize.Bounds(0, 1),
    )
    hubs = model.decode_placement(result.x) if result.success else []
    if not hubs:
        raise RuntimeError("scipy.optimize.milp failed to solve the placement MILP")
    plan = plan_for_placement(problem, hubs, method="milp-highs")
    return MILPResult(plan=plan, objective_value=plan.balance_cost)
