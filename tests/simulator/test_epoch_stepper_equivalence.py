"""Differential suite: per-event loop vs array-native epoch stepper.

The runner's ``engine="epoch"`` path drains arrivals from a sorted array
cursor (one ``searchsorted`` slice per drain point) instead of scheduling a
heap event per payment.  The contract is *decision identity*: for every
registered scheme, with and without mid-run dynamics, on materialized and
streaming workloads, both engines must produce bit-identical metric rows --
including the failure-reason counters.  These tests pin that contract; any
divergence means the epoch cursor's drain boundaries no longer match the
event heap's ``(time, sequence)`` delivery order.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SCHEME_REGISTRY, ShortestPathScheme
from repro.reference.baselines import SpiderScheme as ReferenceSpiderScheme
from repro.scenarios.dynamics import churn_events, jamming_events
from repro.scenarios.registry import comparison_scheme_spec
from repro.simulator.experiment import ExperimentRunner
from repro.simulator.workload import (
    StreamingWorkload,
    TransactionRequest,
    TransactionWorkload,
    WorkloadConfig,
    generate_workload,
)
from repro.topology.generators import watts_strogatz_pcn


def _network(seed: int = 7):
    return watts_strogatz_pcn(
        30,
        nearest_neighbors=4,
        rewire_probability=0.2,
        uniform_channel_size=200.0,
        candidate_fraction=0.2,
        seed=seed,
    )


def _workload(network, duration: float = 4.0, rate: float = 12.0, seed: int = 11):
    return generate_workload(
        network, WorkloadConfig(duration=duration, arrival_rate=rate, seed=seed)
    )


def _run(engine: str, scheme_name: str, workload=None, dynamics=None, scheme=None):
    """One full run of ``scheme_name`` (or ``scheme``) under the given engine, fresh state."""
    network = _network()
    runner = ExperimentRunner(
        network,
        workload if workload is not None else _workload(network),
        step_size=0.2,
        drain_time=2.0,
        dynamics=dynamics(network) if dynamics is not None else None,
        engine=engine,
    )
    if scheme is None:
        scheme = comparison_scheme_spec(scheme_name).build()
    return runner.run_single(scheme, rng=np.random.default_rng(99))


class TestEngineValidation:
    def test_unknown_engine_rejected(self, small_ws_network):
        with pytest.raises(ValueError, match="unknown engine"):
            ExperimentRunner(small_ws_network, _workload(small_ws_network), engine="ticks")

    def test_epoch_requires_batched_arrivals(self, small_ws_network):
        with pytest.raises(ValueError, match="batch_arrivals"):
            ExperimentRunner(
                small_ws_network,
                _workload(small_ws_network),
                batch_arrivals=False,
                engine="epoch",
            )


class TestAllSchemesBitIdentical:
    """Every registered scheme: events vs epoch, field-for-field equality.

    ``SchemeMetrics`` is a dataclass, so ``==`` compares every field with
    exact float equality -- no rounding hides a drifting delay or a
    reordered settlement.
    """

    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_REGISTRY))
    def test_engines_agree(self, scheme_name):
        reference = _run("events", scheme_name)
        epoch = _run("epoch", scheme_name)
        assert epoch == reference
        assert epoch.failure_reasons == reference.failure_reasons

    def test_scalar_reference_scheme_agrees_too(self):
        # The epoch cursor must not depend on a scheme amortizing batches:
        # the scalar reference implementation sees the same batches as the
        # array one.
        reference = _run("events", "spider", scheme=ReferenceSpiderScheme())
        epoch = _run("epoch", "spider", scheme=ReferenceSpiderScheme())
        assert epoch == reference


class TestMidRunDynamics:
    """Churn and jamming fire between drains; both engines must interleave
    arrivals and mutations identically (dynamics drain buffered arrivals
    before mutating the network)."""

    @pytest.mark.parametrize("scheme_name", ["shortest-path", "spider", "splicer"])
    def test_churn_equivalence(self, scheme_name):
        def dynamics(network):
            return churn_events(
                network, np.random.default_rng(5), count=6, start=0.5, end=3.0, down_time=1.0
            )

        reference = _run("events", scheme_name, dynamics=dynamics)
        epoch = _run("epoch", scheme_name, dynamics=dynamics)
        assert epoch == reference

    @pytest.mark.parametrize("scheme_name", ["shortest-path", "waterfilling"])
    def test_jamming_equivalence(self, scheme_name):
        def dynamics(network):
            return jamming_events(network, at=1.0, duration=2.0, count=5, fraction=0.9)

        reference = _run("events", scheme_name, dynamics=dynamics)
        epoch = _run("epoch", scheme_name, dynamics=dynamics)
        assert epoch == reference

    def test_churn_actually_changes_results(self):
        # Guard against vacuous equivalence: the dynamics train must perturb
        # the run, otherwise the tests above only re-check the static case.
        def dynamics(network):
            return churn_events(
                network, np.random.default_rng(5), count=6, start=0.5, end=3.0, down_time=1.0
            )

        static = _run("events", "shortest-path")
        churned = _run("events", "shortest-path", dynamics=dynamics)
        assert static != churned


class TestStreamingWorkloads:
    def _streaming(self, workload, chunk_size: int) -> StreamingWorkload:
        requests: List[TransactionRequest] = list(workload.requests)

        def chunks():
            for start in range(0, len(requests), chunk_size):
                yield requests[start : start + chunk_size]

        return StreamingWorkload(
            config=workload.config,
            count=len(requests),
            total_value=sum(r.value for r in requests),
            chunk_factory=chunks,
        )

    def test_epoch_engine_with_streaming_matches_events_materialized(self):
        base = _workload(_network())
        reference = _run("events", "shortest-path", workload=base)
        streamed = _run("epoch", "shortest-path", workload=self._streaming(base, 7))
        assert streamed == reference

    def test_chunk_boundaries_invisible_to_epoch_engine(self):
        base = _workload(_network())
        one = _run("epoch", "shortest-path", workload=self._streaming(base, 1))
        big = _run("epoch", "shortest-path", workload=self._streaming(base, 10_000))
        assert one == big


class TestRandomInterleavings:
    """Hypothesis-driven arrival patterns: ties, bursts, out-of-order input,
    arrivals landing exactly on tick boundaries."""

    @settings(max_examples=25, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False, width=32),
            min_size=1,
            max_size=40,
        ),
        values=st.integers(min_value=1, max_value=60),
    )
    def test_arbitrary_arrival_patterns(self, times, values):
        network = _network(seed=3)
        nodes = sorted(network.nodes(), key=repr)
        requests = [
            TransactionRequest(
                arrival_time=float(t),
                sender=nodes[(i * 7 + values) % len(nodes)],
                recipient=nodes[(i * 13 + 1) % len(nodes)],
                value=float(1 + (i * values) % 37),
            )
            for i, t in enumerate(times)
            if nodes[(i * 7 + values) % len(nodes)] != nodes[(i * 13 + 1) % len(nodes)]
        ]
        if not requests:
            return
        workload = TransactionWorkload(
            requests=requests, config=WorkloadConfig(duration=4.0, arrival_rate=10.0)
        )

        def run(engine):
            runner = ExperimentRunner(
                _network(seed=3), workload, step_size=0.25, drain_time=1.0, engine=engine
            )
            return runner.run_single(ShortestPathScheme())

        assert run("epoch") == run("events")

    def test_ties_on_tick_boundary(self):
        # Several arrivals at exactly a tick timestamp must all belong to
        # that tick's batch, in generation order, under both engines.
        network = _network(seed=3)
        nodes = sorted(network.nodes(), key=repr)
        requests = [
            TransactionRequest(arrival_time=0.2, sender=nodes[i], recipient=nodes[i + 1], value=2.0)
            for i in range(6)
        ]
        workload = TransactionWorkload(
            requests=requests, config=WorkloadConfig(duration=1.0, arrival_rate=6.0)
        )

        def run(engine):
            runner = ExperimentRunner(
                _network(seed=3), workload, step_size=0.2, drain_time=0.5, engine=engine
            )
            return runner.run_single(ShortestPathScheme())

        assert run("epoch") == run("events")
