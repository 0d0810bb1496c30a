"""The traced pass: one workload driven in-process, layer by layer.

The same spec the CLI builds is pushed through the layers' public functions
with a :class:`~bench.spans.Tracer` span around every call, so the ledger
says which layer the untraced wall time went to.  Routing schemes run behind
a :class:`~bench.spans.SchemeProxy`; kernels whose cost does not depend on
the run (path selectors, no-op dispatch, data loaders) are timed in separate
phases outside the traced wall.

Call surface (kept narrow so the twin-backend and engine collapses can land
without touching this file): ``build_comparison_spec``, ``spec.with_overrides``,
``topology.build``, ``build_experiment``, ``run_single``, the ``RoutingScheme``
lifecycle, ``SharedTopologyBlock`` export/attach (xl scale only, as the CLI
does), ``build_place_spec``, ``build_place_network``, ``hop_count_rows``,
``build_problem``, ``solve_placement``, ``JsonlGridRunner``, ``PATH_SELECTORS``
and the data loaders.  No ``backend=``/``engine=`` argument is passed anywhere.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import Dict, List

import numpy as np

from bench.metrics import BASELINE_SCHEMES, scheme_metric_names
from bench.spans import SchemeProxy, Tracer
from bench.workloads import Inputs, Workload, compare_spec, place_spec

#: Pairs each path selector is timed over, and the ``k`` it is asked for.
KERNEL_PAIRS = 16
KERNEL_K = 5


# ---------------------------------------------------------------------- #
# compare workloads
# ---------------------------------------------------------------------- #
def trace_compare(workload: Workload, inputs: Inputs, tracer: Tracer) -> Dict[str, float]:
    """Drive every (seed, scheme) shard of a ``compare`` workload under spans."""
    from repro.scenarios.spec import derive_seed

    spec = compare_spec(workload, inputs)
    # The CLI shares each seed's topology through shared memory at the xl
    # scale and rebuilds it per shard elsewhere.
    shared = workload.scale == "xl"
    blocks: Dict[int, object] = {}
    proxies: Dict[str, List[SchemeProxy]] = {}
    completed: Dict[str, int] = {}
    nodes = channels = 0
    try:
        if shared:
            from repro.topology.shared import SharedTopologyBlock

            for seed in spec.seeds:
                tracer.run = f"seed={seed}"
                with tracer.span("topology.build"):
                    network = spec.topology.build(derive_seed(seed, "topology"))
                with tracer.span("topology.shared_export"):
                    blocks[seed] = SharedTopologyBlock.from_network(network)
        for seed, overrides in spec.expand_runs():
            shard_spec = spec.with_overrides(overrides)
            scheme_name = shard_spec.scheme_specs()[0].name
            tracer.run = f"seed={seed}|{scheme_name}"
            with tracer.span("scenarios.shard"):
                if shared:
                    with tracer.span("topology.shared_attach"):
                        block = SharedTopologyBlock.attach(blocks[seed].name)
                        network = block.build_network()
                else:
                    with tracer.span("topology.build"):
                        network = shard_spec.topology.build(derive_seed(seed, "topology"))
                with tracer.span("simulator.workload_build"):
                    runner, schemes = shard_spec.build_experiment(seed, network=network)
                proxy = SchemeProxy(schemes[0], tracer, f"scheme.{scheme_name}")
                proxies.setdefault(scheme_name, []).append(proxy)
                rng = np.random.default_rng(derive_seed(seed, "schemes"))
                with tracer.span("simulator.run_single"):
                    metrics = runner.run_single(proxy, rng=rng)
            completed[scheme_name] = completed.get(scheme_name, 0) + metrics.completed_count
            nodes, channels = network.node_count(), network.channel_count()
    finally:
        for block in blocks.values():
            block.unlink()

    every_proxy = [proxy for group in proxies.values() for proxy in group]
    ledger: Dict[str, float] = {
        "topology.build_s": tracer.total("topology.build"),
        "topology.nodes": nodes,
        "topology.channels": channels,
        "simulator.workload_build_s": tracer.total("simulator.workload_build"),
        "simulator.engine_self_s": tracer.self_total("simulator.run_single"),
        "simulator.ticks": sum(proxy.ticks for proxy in every_proxy),
        "simulator.batches": sum(proxy.batches for proxy in every_proxy),
        "simulator.payments": sum(proxy.payments for proxy in every_proxy),
        "simulator.distinct_pairs": sum(len(proxy.pairs) for proxy in every_proxy),
    }
    if shared:
        ledger["topology.shared_export_s"] = tracer.total("topology.shared_export")
        ledger["topology.shared_attach_s"] = tracer.total("topology.shared_attach")
    for scheme_name, group in proxies.items():
        if scheme_name != "splicer" and scheme_name not in BASELINE_SCHEMES:
            continue
        prefix = f"scheme.{scheme_name}"
        payments = sum(proxy.payments for proxy in group)
        submit = tracer.total(f"{prefix}.route_batch")
        step = tracer.total(f"{prefix}.step")
        values = (
            tracer.total(f"{prefix}.prepare"),
            submit,
            step,
            payments,
            completed[scheme_name],
            1e6 * (submit + step) / payments if payments else 0.0,
        )
        ledger.update(zip(scheme_metric_names(scheme_name), values))
    return ledger


def compare_topology(workload: Workload, inputs: Inputs):
    """The first seed's funded network, for the path-selector kernels."""
    from repro.scenarios.spec import derive_seed

    spec = compare_spec(workload, inputs)
    return spec.topology.build(derive_seed(spec.seeds[0], "topology"))


# ---------------------------------------------------------------------- #
# place-compare workloads
# ---------------------------------------------------------------------- #
def trace_place(workload: Workload, inputs: Inputs, tracer: Tracer) -> Dict[str, float]:
    """Drive every (seed, method, omega) shard of a placement sweep under spans.

    As in the CLI, every shard rebuilds the network and the first shard of a
    seed probes the hop-count rows its siblings then reuse.
    """
    from repro.placement.compare import build_place_network
    from repro.placement.solver import build_problem, solve_placement
    from repro.scenarios.spec import derive_seed
    from repro.topology.path_store import hop_dicts_from_rows

    spec = place_spec(workload, inputs)
    spec_dict = spec.to_dict()
    hops_by_seed: Dict[int, dict] = {}
    plans: Dict[tuple, object] = {}
    nodes = channels = 0
    for seed, overrides in spec.expand_runs():
        method, omega = str(overrides["method"]), float(overrides["omega"])
        if method not in ("greedy", "greedy-det"):
            raise ValueError(f"the traced placement driver cannot solve with {method!r}")
        tracer.run = f"seed={seed}|{method}|omega={omega}"
        with tracer.span("scenarios.shard"):
            with tracer.span("topology.build"):
                network = build_place_network(spec_dict, seed)
            if seed not in hops_by_seed:
                with tracer.span("topology.hop_rows"):
                    candidates = network.candidates()
                    node_order, matrix = network.hop_count_rows(candidates)
                    hops_by_seed[seed] = hop_dicts_from_rows(node_order, candidates, matrix)
            with tracer.span("placement.build_problem"):
                problem = build_problem(network, omega=omega, hops=hops_by_seed[seed])
            with tracer.span(f"placement.solve.{method}"):
                plans[(seed, omega, method)] = solve_placement(
                    problem,
                    method="greedy",
                    seed=derive_seed(seed, "place-solver"),
                    deterministic_greedy=method == "greedy-det",
                )
        nodes, channels = network.node_count(), network.channel_count()

    gaps = [
        100.0 * (plans[(seed, omega, "greedy-det")].balance_cost - plan.balance_cost)
        / plan.balance_cost
        for (seed, omega, method), plan in plans.items()
        if method == "greedy"
        and (seed, omega, "greedy-det") in plans
        and plan.balance_cost > 0
    ]
    return {
        "topology.build_s": tracer.total("topology.build"),
        "topology.nodes": nodes,
        "topology.channels": channels,
        "topology.hop_rows_s": tracer.total("topology.hop_rows"),
        "placement.build_problem_s": tracer.total("placement.build_problem"),
        "placement.solve_s.greedy": tracer.total("placement.solve.greedy"),
        "placement.solve_s.greedy-det": tracer.total("placement.solve.greedy-det"),
        "placement.solves": len(plans),
        "placement.hubs_mean": statistics.fmean(plan.hub_count for plan in plans.values()),
        "placement.det_gap_pct": statistics.fmean(gaps) if gaps else 0.0,
    }


def place_topology(workload: Workload, inputs: Inputs):
    """The first seed's placement network, for the path-selector kernels."""
    from repro.placement.compare import build_place_network

    spec = place_spec(workload, inputs)
    return build_place_network(spec.to_dict(), spec.seeds[0])


# ---------------------------------------------------------------------- #
# kernel phases (outside the traced wall)
# ---------------------------------------------------------------------- #
def path_selector_kernels(network, seed: int) -> Dict[str, float]:
    """Milliseconds per call of each Table-II path selector on ``network``."""
    from repro.routing.paths import PATH_SELECTORS

    rng = random.Random(seed)
    nodes = network.nodes()
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(KERNEL_PAIRS)]
    ledger = {}
    for name, selector in PATH_SELECTORS.items():
        started = time.perf_counter()
        for source, target in pairs:
            selector(network, source, target, KERNEL_K)
        elapsed = time.perf_counter() - started
        ledger[f"routing.paths.{name}_ms_per_call"] = 1e3 * elapsed / len(pairs)
    return ledger


def _noop_row(key: str) -> Dict[str, object]:
    """Executor of the no-op grid: a valid row and nothing else."""
    from repro.scenarios.jsonl import JsonlGridRunner

    return {"schema_version": JsonlGridRunner.schema_version, "run_key": key}


def dispatch_kernels(shards: int, directory: str) -> Dict[str, float]:
    """What the sweep layer costs per shard when the shard itself costs nothing."""
    from repro.scenarios.jsonl import JsonlGridRunner

    class NoopGrid(JsonlGridRunner):
        results_name = "noop"

        def expected_keys(self) -> List[str]:
            return [f"noop|{index}" for index in range(shards)]

        def pending_tasks(self) -> List[str]:
            done = self.completed_keys()
            return [key for key in self.expected_keys() if key not in done]

        def executor(self):
            return _noop_row

    ledger = {}
    for workers in (1, 2):
        results_dir = os.path.join(directory, f"noop-w{workers}")
        started = time.perf_counter()
        report = NoopGrid(results_dir, workers=workers).run()
        elapsed = time.perf_counter() - started
        if report.executed != shards:
            raise RuntimeError(f"no-op grid executed {report.executed} of {shards} shards")
        ledger[f"scenarios.noop_dispatch_ms_per_shard.w{workers}"] = 1e3 * elapsed / shards
    started = time.perf_counter()
    rerun = NoopGrid(results_dir, workers=1).run()
    ledger["scenarios.resume_scan_ms"] = 1e3 * (time.perf_counter() - started)
    if rerun.executed != 0:
        raise RuntimeError(f"no-op grid re-executed {rerun.executed} finished shards")
    return ledger


def data_kernels(workload: Workload) -> Dict[str, float]:
    """Load costs of the bundled snapshot and trace the sweep pays per shard."""
    from repro.data.lightning import load_snapshot
    from repro.data.ripple import load_trace, trace_workload

    started = time.perf_counter()
    network = load_snapshot()
    loaded = time.perf_counter()
    trace = load_trace()
    cleaned = time.perf_counter()
    trace_workload(network, trace, duration=workload.duration)
    built = time.perf_counter()
    return {
        "data.snapshot_load_ms": 1e3 * (loaded - started),
        "data.trace_clean_ms": 1e3 * (cleaned - loaded),
        "data.trace_rows_kept": trace.count,
        "data.trace_workload_ms": 1e3 * (built - cleaned),
    }
