"""Waterfilling split invariants: the water level, and what it conserves.

``waterfill_shares`` feeds the atomic executor caller-computed splits, so
its output must be *feasible* (no share exceeds its path's bottleneck, the
shares sum to the payment value exactly) and *level* (used paths end at a
common residual water level, unused paths sit below it).  On top of the
pure-function properties, whole runs must conserve funds and never drive a
balance negative -- the executor invariants the shares hook must not be
able to violate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import WaterfillingScheme
from repro.baselines.waterfilling import waterfill_shares
from repro.obs.core import RunRecorder, use_recorder
from repro.reference.baselines import WaterfillingScheme as ReferenceWaterfillingScheme
from repro.routing.transaction import FailureReason, Payment, PaymentStatus
from repro.scenarios.dynamics import churn_events
from repro.simulator.experiment import ExperimentRunner
from repro.simulator.workload import WorkloadConfig, generate_workload
from repro.topology.generators import watts_strogatz_pcn
from repro.topology.network import PCNetwork
from repro.topology.pathcsr import PathCSR

TOL = 1e-9


class TestWaterfillShares:
    def test_single_path(self):
        assert waterfill_shares([10.0], 4.0) == [4.0]

    def test_empty(self):
        assert waterfill_shares([], 5.0) == []

    def test_balances_residuals(self):
        shares = waterfill_shares([30.0, 20.0, 10.0], 30.0)
        assert sum(shares) == pytest.approx(30.0, abs=TOL)
        # Water level lands at 10: residuals equalize at the level and the
        # path already below it carries nothing.
        assert shares == pytest.approx([20.0, 10.0, 0.0], abs=TOL)

    def test_prefers_wide_paths_over_greedy_fill(self):
        # Greedy largest-first would drain the 30-path dry; waterfilling
        # leaves both used paths with the same headroom.
        shares = waterfill_shares([30.0, 28.0], 10.0)
        assert shares == pytest.approx([6.0, 4.0], abs=TOL)
        assert (30.0 - shares[0]) == pytest.approx(28.0 - shares[1], abs=TOL)

    @settings(max_examples=100, deadline=None)
    @given(
        capacities=st.lists(
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=8,
        ),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_feasibility_properties(self, capacities, fraction):
        value = fraction * sum(capacities)
        shares = waterfill_shares(capacities, value)
        assert len(shares) == len(capacities)
        # Conservation: the drift fix-up makes the sum exact, not approximate.
        assert sum(shares) == pytest.approx(value, abs=1e-6)
        level = None
        for share, capacity in zip(shares, capacities):
            assert share >= 0.0
            assert share <= capacity + 1e-6
            if share > 1e-6:
                residual = capacity - share
                if level is None:
                    level = residual
                else:
                    # All used paths sit at one common water level.
                    assert residual == pytest.approx(level, abs=1e-6)
        if level is not None:
            for share, capacity in zip(shares, capacities):
                if share <= 1e-6:
                    # Unused paths were already below the final level.
                    assert capacity <= level + 1e-6


@pytest.mark.parametrize(
    "scheme_class",
    [ReferenceWaterfillingScheme, WaterfillingScheme],
    ids=["reference", "production"],
)
class TestRunInvariants:
    def _run(self, scheme_class, dynamics=False):
        network = watts_strogatz_pcn(
            22,
            nearest_neighbors=4,
            rewire_probability=0.3,
            uniform_channel_size=60.0,
            seed=12,
        )
        workload = generate_workload(
            network, WorkloadConfig(duration=3.0, arrival_rate=12.0, seed=3)
        )
        events = None
        if dynamics:
            events = churn_events(
                network, np.random.default_rng(8), count=5, start=0.5, end=2.0, down_time=0.8
            )
        total_before = network.total_funds()
        runner = ExperimentRunner(network, workload, step_size=0.1, dynamics=events)
        metrics = runner.run_single(scheme_class(), rng=np.random.default_rng(0))
        return network, metrics, total_before

    def test_funds_conserved(self, scheme_class):
        network, metrics, total_before = self._run(scheme_class)
        assert metrics.completed_count > 0
        assert network.total_funds() == pytest.approx(total_before, abs=1e-6)

    def test_funds_conserved_under_churn(self, scheme_class):
        network, _metrics, total_before = self._run(scheme_class, dynamics=True)
        assert network.total_funds() == pytest.approx(total_before, abs=1e-6)

    def test_balances_never_negative(self, scheme_class):
        network, _metrics, _total = self._run(scheme_class)
        for channel in network.channels():
            assert channel.balance(channel.node_a) >= -TOL
            assert channel.balance(channel.node_b) >= -TOL
            assert channel.locked_total() == pytest.approx(0.0, abs=TOL)

    def test_insufficient_capacity_is_traced_without_an_attempt(self, scheme_class):
        """The joint-capacity rejection fails before the executor runs:
        the trace holds the arrival and one ``atomic_fail`` with the paths'
        total capacity, and no ``atomic_attempt``."""
        network = PCNetwork()
        for node in ("a", "b", "c"):
            network.add_node(node)
        network.add_channel("a", "b", 30.0, 30.0)
        network.add_channel("b", "c", 12.5, 30.0)
        network.add_channel("a", "c", 20.0, 30.0)
        scheme = scheme_class()
        scheme.prepare(network)
        payment = Payment.create("a", "c", 40.0, created_at=0.5, timeout=9.0)
        paths = PathCSR(network, [["a", "b", "c"], ["a", "c"]])
        recorder = RunRecorder(sample_rate=1.0)
        with use_recorder(recorder):
            assert scheme._execute(payment, paths, 0.5) is False
        assert payment.status is PaymentStatus.FAILED
        assert payment.failure_reason == FailureReason.INSUFFICIENT_CAPACITY.value
        assert [event["kind"] for event in recorder.events] == [
            "trace.header", "payment.arrive", "payment.atomic_fail",
        ]
        assert recorder.events[-1] == {
            "kind": "payment.atomic_fail",
            "t": 0.5,
            "pid": 0,
            "reason": "insufficient-capacity",
            "capacity": 32.5,
        }
        assert network.channel("a", "b").balance_pair() == (30.0, 30.0)
