"""MILP formulation of the placement problem (small-scale optimal solution).

The paper linearizes the nonlinear balance cost

``C_B = sum_mn zeta_mn y_mn + omega * sum_nl x_n x_l (delta_nl * sum_m y_mn + epsilon_nl)``

with auxiliary binaries ``theta_nl = x_n x_l`` and ``phi_nlm = theta_nl y_mn``
(equations 6-10: three rows per product) and hands the mixed-integer linear
program to a solver.  :func:`linearize_placement` builds the same model in an
aggregated form that is ``z^2 m`` variables and ``3 z^2 m`` rows smaller:

* ``y_mn <= x_n`` (a client attaches to a placed candidate only) makes
  ``phi_nlm = x_n x_l y_mn = x_l y_mn``, so the objective needs ``phi`` only
  through ``s_nl = sum_m phi_nlm = x_l * sum_m y_mn``: the number of clients
  hub ``n`` synchronizes towards hub ``l``, between 0 and ``M = |V_CLI|``;
* the program minimizes and ``omega * delta``, ``omega * epsilon`` are
  non-negative, so of each product's three rows only the lower bound can be
  active at an optimum: ``theta_nl >= x_n + x_l - 1`` and
  ``s_nl >= sum_m y_mn - M (1 - x_l)``; ``theta`` and ``s`` then take their
  product values without being declared integer.

Variables: binary ``x_n``, ``y_mn``; continuous ``theta_nl`` in ``[0, 1]`` and
``s_nl`` in ``[0, M]``.  Rows: ``sum_n y_mn = 1``; ``y_mn <= x_n``; the two
lower bounds above; ``sum_n x_n >= 1``.
:func:`solve_placement_milp` solves it with ``scipy.optimize.milp`` (HiGHS
branch-and-cut) and decodes the plan; the suite validates the optimum against
the exhaustive oracle of :mod:`repro.reference.placement`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List

import numpy as np
from scipy import sparse

from repro.placement.assignment import plan_for_placement
from repro.placement.problem import PlacementPlan, PlacementProblem

NodeId = Hashable


@dataclass
class MILPModel:
    """The linearized placement MILP in standard ``min c.v`` form.

    Columns are laid out ``x`` (``z``), ``y`` (``m z``, client-major),
    ``theta`` (``z^2``, row-major), ``s`` (``z^2``, row-major); see
    :meth:`column`.

    Attributes:
        objective: Objective coefficient vector ``c``.
        a_ub: Inequality constraint matrix (``A_ub @ v <= b_ub``), CSR sparse.
        b_ub: Inequality right-hand side.
        a_eq: Equality constraint matrix (``A_eq @ v == b_eq``), CSR sparse.
        b_eq: Equality right-hand side.
        integrality: 1 for the binary ``x`` / ``y`` columns, 0 for ``theta`` / ``s``.
        upper: Per-column upper bound (every lower bound is 0).
        problem: The originating placement problem.
    """

    objective: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    integrality: np.ndarray
    upper: np.ndarray
    problem: PlacementProblem

    @property
    def variable_count(self) -> int:
        """Total number of decision variables."""
        return int(self.objective.size)

    def column(self, name: str, *ids: NodeId) -> int:
        """Column of ``("x", n)``, ``("y", m, n)``, ``("theta", n, l)`` or ``("s", n, l)``."""
        arrays = self.problem.arrays
        z, m = arrays.candidate_count, arrays.client_count
        if name == "x":
            return arrays.candidate_index[ids[0]]
        if name == "y":
            return z + arrays.client_index[ids[0]] * z + arrays.candidate_index[ids[1]]
        block = {"theta": 0, "s": 1}[name]
        pair = arrays.candidate_index[ids[0]] * z + arrays.candidate_index[ids[1]]
        return z + m * z + block * z * z + pair

    def decode_placement(self, solution: np.ndarray) -> List[NodeId]:
        """Candidates some client attaches to (``y_mn`` numerically one) in a solution vector.

        ``y_mn <= x_n`` makes every such candidate a placed one.  A placed
        candidate no client attaches to is left out: with non-negative costs
        it only adds synchronization cost, yet HiGHS keeps it open when that
        cost is below its tolerances (``omega = 1e-9``, say).
        """
        z, m = self.problem.candidate_count, self.problem.client_count
        attached = np.asarray(solution)[z : z + m * z].reshape(m, z) > 0.5
        return [hub for hub, take in zip(self.problem.candidates, attached.any(axis=0)) if take]


def linearize_placement(problem: PlacementProblem) -> MILPModel:
    """Build the aggregated linearization of equations 6-10 (see the module docstring).

    Raises:
        ValueError: On a negative ``delta`` / ``epsilon`` entry -- dropping
            the products' upper-bound rows is only valid when no
            synchronization coefficient rewards a larger ``theta`` / ``s``.
    """
    arrays = problem.arrays
    z, m = arrays.candidate_count, arrays.client_count
    if arrays.delta.min() < 0 or arrays.epsilon.min() < 0:
        raise ValueError("the placement MILP needs non-negative delta and epsilon costs")

    x = np.arange(z)
    y = z + np.arange(m * z).reshape(m, z)
    theta = z + m * z + np.arange(z * z)
    s = theta + z * z
    objective = np.concatenate(
        [
            np.zeros(z),
            arrays.zeta.ravel(),
            problem.omega * arrays.epsilon.ravel(),
            problem.omega * arrays.delta.ravel(),
        ]
    )
    first, second = np.repeat(x, z), np.tile(x, z)  # n and l of every (n, l) pair
    attach = np.arange(m * z)
    both = m * z + np.arange(z * z)
    load = both + z * z
    some_hub = m * z + 2 * z * z
    # (rows, columns, coefficient) of every non-zero of A_ub.
    entries = [
        # y_mn - x_n <= 0
        (attach, y.ravel(), 1.0),
        (attach, np.tile(x, m), -1.0),
        # x_n + x_l - theta_nl <= 1   (n == l sums to 2 x_n - theta_nn <= 1)
        (both, first, 1.0),
        (both, second, 1.0),
        (both, theta, -1.0),
        # sum_m y_mn + M x_l - s_nl <= M
        (np.repeat(load, m), y.T[first].ravel(), 1.0),
        (load, second, float(m)),
        (load, s, -1.0),
        # -sum_n x_n <= -1
        (np.full(z, some_hub), x, -1.0),
    ]
    a_ub = sparse.csr_matrix(
        (
            np.concatenate([np.full(len(rows), value) for rows, _, value in entries]),
            (
                np.concatenate([rows for rows, _, _ in entries]),
                np.concatenate([columns for _, columns, _ in entries]),
            ),
        ),
        shape=(some_hub + 1, objective.size),
    )
    b_ub = np.concatenate([np.zeros(m * z), np.ones(z * z), np.full(z * z, float(m)), [-1.0]])
    # Each client is assigned to exactly one candidate.
    a_eq = sparse.csr_matrix(
        (np.ones(m * z), (np.repeat(np.arange(m), z), y.ravel())), shape=(m, objective.size)
    )
    binary = z + m * z
    return MILPModel(
        objective,
        a_ub,
        b_ub,
        a_eq,
        np.ones(m),
        integrality=(np.arange(objective.size) < binary).astype(float),
        upper=np.concatenate([np.ones(binary + z * z), np.full(z * z, float(m))]),
        problem=problem,
    )


def solve_placement_milp(problem: PlacementProblem) -> PlacementPlan:
    """Solve the placement problem exactly through the MILP formulation.

    HiGHS decides the placement; the returned plan attaches the clients by
    Lemma 1 and carries the costs of :meth:`PlacementProblem.make_plan`.

    Args:
        problem: The placement instance (small-scale: ``z + z m + 2 z^2``
            variables, ``m z`` of them in branch-and-cut's hands).

    Raises:
        RuntimeError: When HiGHS reports no solution or one that attaches no client.
    """
    # Imported on use: loading scipy.optimize costs ~0.1 s that only a MILP
    # solve should pay.
    from scipy import optimize

    model = linearize_placement(problem)
    constraints = [optimize.LinearConstraint(model.a_ub, -np.inf, model.b_ub)]
    if model.a_eq.shape[0]:
        constraints.append(optimize.LinearConstraint(model.a_eq, model.b_eq, model.b_eq))
    result = optimize.milp(
        c=model.objective,
        constraints=constraints,
        integrality=model.integrality,
        bounds=optimize.Bounds(0, model.upper),
    )
    hubs = model.decode_placement(result.x) if result.success else []
    if not hubs:
        raise RuntimeError("scipy.optimize.milp failed to solve the placement MILP")
    return plan_for_placement(problem, hubs, method="milp-highs")
