"""Splicer reproduction: optimal PCH placement and deadlock-free routing.

This package reproduces the system described in "Optimal Hub Placement and
Deadlock-Free Routing for Payment Channel Network Scalability" (ICDCS 2023).
It contains:

* :mod:`repro.topology` -- payment channel network graph substrate.
* :mod:`repro.placement` -- the PCH placement optimization (MILP for
  small-scale networks, supermodular double-greedy for large-scale).
* :mod:`repro.routing` -- the rate-based, deadlock-free routing protocol.
* :mod:`repro.core` -- the Splicer system tying placement and routing together.
* :mod:`repro.baselines` -- Spider, Flash, landmark routing, A2L and
  shortest-path comparison schemes.
* :mod:`repro.simulator` -- a discrete-event PCN simulator used by the
  evaluation harness.
* :mod:`repro.scenarios` -- declarative scenarios, mid-run network dynamics
  and the parallel sweep runner behind the ``python -m repro`` CLI.
* :mod:`repro.crypto` -- simulated key management, HTLC and contract layer.
* :mod:`repro.analysis` -- metrics tables and summary statistics.
"""

import importlib

#: Public name -> defining module.  Resolved on first access (PEP 562), so
#: ``import repro`` -- which every ``repro.*`` import and ``python -m repro``
#: runs first -- pulls in neither the scheme zoo nor networkx.
_EXPORTS = {
    "SplicerConfig": "repro.core.config",
    "SplicerSystem": "repro.core.splicer",
    "PlacementPlan": "repro.placement.problem",
    "PlacementProblem": "repro.placement.problem",
    "PlacementSolver": "repro.placement.solver",
    "solve_placement": "repro.placement.solver",
    "RateRouter": "repro.routing.router",
    "ScenarioRunner": "repro.scenarios.runner",
    "ScenarioSpec": "repro.scenarios.spec",
    "get_scenario": "repro.scenarios.registry",
    "list_scenarios": "repro.scenarios.registry",
    "register_scenario": "repro.scenarios.registry",
    "ExperimentResult": "repro.simulator.experiment",
    "ExperimentRunner": "repro.simulator.experiment",
    "PCNetwork": "repro.topology.network",
}

#: The one version string: ``pyproject.toml`` reads this attribute
#: (``[tool.setuptools.dynamic]``), it does not state a version of its own.
__version__ = "1.2.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
