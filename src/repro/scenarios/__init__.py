"""Scenario and orchestration subsystem.

Three layers on top of the simulator:

* :mod:`repro.scenarios.spec` -- declarative, serializable scenario
  definitions (:class:`ScenarioSpec` and its parts) with deterministic
  per-run seed derivation,
* :mod:`repro.scenarios.dynamics` -- mid-run network mutations (channel
  churn, hub outages, capacity jamming) injected through the simulation
  engine,
* :mod:`repro.scenarios.runner` -- parallel grid execution with resumable
  JSONL results,

plus :mod:`repro.scenarios.registry`, the named catalog of built-in
scenarios the ``python -m repro`` CLI exposes.
"""

from repro.scenarios.dynamics import (
    ChannelClose,
    ChannelJam,
    ChannelOpen,
    DynamicsEvent,
    HubOutage,
    churn_events,
    hub_outage_events,
    jamming_events,
)
from repro.scenarios.registry import (
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
)
from repro.scenarios.runner import (
    ScenarioRunner,
    execute_run,
    load_result_rows,
    run_key,
    spec_fingerprint,
)
from repro.scenarios.spec import (
    DynamicsEventSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    WorkloadSpec,
    derive_seed,
)

__all__ = [
    "ChannelClose",
    "ChannelJam",
    "ChannelOpen",
    "DynamicsEvent",
    "DynamicsEventSpec",
    "HubOutage",
    "ScenarioRunner",
    "ScenarioSpec",
    "SchemeSpec",
    "TopologySpec",
    "WorkloadSpec",
    "churn_events",
    "derive_seed",
    "execute_run",
    "get_scenario",
    "hub_outage_events",
    "jamming_events",
    "list_scenarios",
    "load_result_rows",
    "register_scenario",
    "run_key",
    "scenario_names",
    "spec_fingerprint",
]
