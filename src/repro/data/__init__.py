"""Real-trace data layer: pluggable topology & workload source providers.

The paper's evaluation runs on synthetic Watts-Strogatz graphs and Poisson
workloads; this package opens the seam for real data.  It has three parts:

* :mod:`repro.data.sources` -- the provider registries behind the scenario
  layer's ``topology.kind`` and ``workload.source`` fields.  Every
  topology source, synthetic generator and real loader alike, registers
  under a ``kind`` name, as does every workload source but the spec's own
  Poisson generator; new sources plug in with a decorator.
* :mod:`repro.data.lightning` -- a Lightning-Network-style channel-graph
  snapshot loader (JSON/CSV -> :class:`~repro.topology.network.PCNetwork`),
  with capacity/fee normalization, largest-connected-component extraction
  and hub-preserving node capping.
* :mod:`repro.data.ripple` -- a Ripple-style payment-trace pipeline: raw
  CSV cleaning into a canonical, content-fingerprinted NPZ plus a chunked
  streaming replay that feeds the experiment runner's epoch-batched
  arrival drain without materializing the full trace.

Small fixture datasets are bundled under ``repro/data/fixtures`` so the
``real-trace`` scenario and the ``python -m repro data`` CLI work offline.
"""

from repro.data.sources import (
    SourceInfo,
    get_topology_source,
    get_workload_source,
    list_topology_sources,
    list_workload_sources,
    topology_source,
    workload_source,
)

__all__ = [
    "SourceInfo",
    "get_topology_source",
    "get_workload_source",
    "list_topology_sources",
    "list_workload_sources",
    "topology_source",
    "workload_source",
]
