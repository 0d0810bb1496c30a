"""PCH placement optimization (paper sections IV-B and IV-C).

The placement problem selects which candidate nodes become smooth nodes
(payment channel hubs) and assigns every client to exactly one of them so
that the *balance cost* -- management cost of client/hub communication plus
``omega`` times the hub/hub synchronization cost -- is minimized.

The subpackage provides:

* :mod:`repro.placement.costs` -- hop-count based cost model (zeta, delta, epsilon).
* :mod:`repro.placement.problem` -- the problem/plan data model and cost evaluation.
* :mod:`repro.placement.assignment` -- Lemma-1 optimal client assignment.
* :mod:`repro.placement.milp` -- the paper's MILP linearization, solved by
  HiGHS through ``scipy.optimize.milp`` (small-scale optimal solution).
* :mod:`repro.placement.supermodular` -- the double-greedy 1/2-approximation
  (large-scale solution, Algorithm 1) with the incremental cached-gain
  :class:`~repro.placement.supermodular.ObjectiveEngine`.
* :mod:`repro.placement.solver` -- the exact branch-and-bound and a unified
  facade that picks the right method.
* :mod:`repro.placement.compare` -- the sharded figure-9 sweep pipeline behind
  ``python -m repro place-compare`` (imported on demand, not re-exported here,
  to keep this package import-light).
"""

from repro.placement.assignment import optimal_assignment
from repro.placement.costs import CostArrays, PlacementCostModel, cost_model_from_network
from repro.placement.milp import MILPModel, linearize_placement, solve_placement_milp
from repro.placement.problem import PlacementPlan, PlacementProblem
from repro.placement.solver import PlacementSolver, solve_placement
from repro.placement.supermodular import (
    ObjectiveEngine,
    double_greedy_placement,
    greedy_descent_placement,
    is_supermodular,
)

__all__ = [
    "PlacementCostModel",
    "CostArrays",
    "cost_model_from_network",
    "PlacementProblem",
    "PlacementPlan",
    "optimal_assignment",
    "ObjectiveEngine",
    "greedy_descent_placement",
    "MILPModel",
    "linearize_placement",
    "solve_placement_milp",
    "double_greedy_placement",
    "is_supermodular",
    "PlacementSolver",
    "solve_placement",
]
