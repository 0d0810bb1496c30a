"""Tests for network dynamics events and their injection into runs."""

import numpy as np
import pytest

from repro.baselines import A2LScheme, ShortestPathScheme
from repro.baselines.base import RoutingScheme, SchemeStepReport
from repro.scenarios.dynamics import (
    ChannelClose,
    ChannelJam,
    ChannelOpen,
    HubOutage,
    churn_events,
    hub_outage_events,
    jamming_events,
)
from repro.scenarios.spec import ScenarioSpec, SchemeSpec, TopologySpec, WorkloadSpec
from repro.simulator.experiment import ExperimentRunner
from repro.simulator.workload import WorkloadConfig, generate_workload


class TestChannelClose:
    def test_apply_and_undo(self, triangle_network):
        event = ChannelClose(time=1.0, node_a="A", node_b="C")
        undo = event.apply(triangle_network)
        assert not triangle_network.has_channel("A", "C")
        undo()
        assert triangle_network.has_channel("A", "C")
        assert triangle_network.channel("A", "C").balance("A") == pytest.approx(10.0)

    def test_missing_channel_is_noop(self, triangle_network):
        assert ChannelClose(node_a="A", node_b="B").apply(triangle_network) is None

    def test_undo_preserves_moved_balances(self, triangle_network):
        triangle_network.channel("A", "C").transfer("A", 4.0)
        undo = ChannelClose(node_a="A", node_b="C").apply(triangle_network)
        undo()
        assert triangle_network.channel("A", "C").balance("A") == pytest.approx(6.0)
        assert triangle_network.channel("A", "C").balance("C") == pytest.approx(14.0)


class TestChannelOpen:
    def test_apply_and_undo(self, triangle_network):
        event = ChannelOpen(node_a="A", node_b="B", balance_a=5.0)
        undo = event.apply(triangle_network)
        assert triangle_network.has_channel("A", "B")
        undo()
        assert not triangle_network.has_channel("A", "B")

    def test_existing_channel_is_noop(self, triangle_network):
        assert ChannelOpen(node_a="A", node_b="C").apply(triangle_network) is None


class TestHubOutage:
    def test_apply_and_undo(self, triangle_network):
        undo = HubOutage(node="C").apply(triangle_network)
        assert triangle_network.degree("C") == 0
        undo()
        assert triangle_network.degree("C") == 2
        assert triangle_network.channel("C", "B").balance("B") == pytest.approx(10.0)

    def test_isolated_node_is_noop(self, triangle_network):
        triangle_network.add_node("loner")
        assert HubOutage(node="loner").apply(triangle_network) is None


class TestChannelJam:
    def test_locks_both_directions(self, triangle_network):
        channel = triangle_network.channel("A", "C")
        undo = ChannelJam(node_a="A", node_b="C", fraction=0.9).apply(triangle_network)
        assert channel.balance("A") == pytest.approx(1.0)
        assert channel.balance("C") == pytest.approx(1.0)
        assert channel.locked_total() == pytest.approx(18.0)
        undo()
        assert channel.balance("A") == pytest.approx(10.0)
        assert channel.locked_total() == 0.0

    def test_undo_survives_channel_closure(self, triangle_network):
        undo = ChannelJam(node_a="A", node_b="C", fraction=0.5).apply(triangle_network)
        triangle_network.remove_channel("A", "C")
        undo()  # must not raise: the closure already refunded the locks


class TestFactories:
    def test_churn_deterministic(self, small_ws_network):
        first = churn_events(small_ws_network, np.random.default_rng(5), count=6)
        second = churn_events(small_ws_network, np.random.default_rng(5), count=6)
        assert [(e.time, e.node_a, e.node_b) for e in first] == [
            (e.time, e.node_a, e.node_b) for e in second
        ]
        assert len(first) == 6
        assert all(e.duration == 2.0 for e in first)

    def test_hub_outage_targets_best_connected_candidates(self, small_ws_network):
        events = hub_outage_events(small_ws_network, count=2)
        assert len(events) == 2
        candidates = set(small_ws_network.candidates())
        assert all(event.node in candidates for event in events)

    def test_jamming_targets_biggest_channels(self, funded_ws_network):
        events = jamming_events(funded_ws_network, count=3, fraction=0.5)
        jammed_capacity = min(
            funded_ws_network.channel(e.node_a, e.node_b).capacity for e in events
        )
        median_capacity = float(
            np.median([channel.capacity for channel in funded_ws_network.channels()])
        )
        assert jammed_capacity >= median_capacity


class _ChannelProbeScheme(RoutingScheme):
    """Records whether a watched channel exists at every simulation step."""

    name = "channel-probe"

    def __init__(self, node_a, node_b):
        super().__init__()
        self.watched = (node_a, node_b)
        self.observations = []

    def submit(self, request, now):
        from repro.routing.transaction import Payment

        payment = Payment.create(
            request.sender, request.recipient, request.value, created_at=now, timeout=self.timeout
        )
        payment.fail()
        return payment

    def step(self, now, dt):
        network = self._require_network()
        self.observations.append((now, network.has_channel(*self.watched)))
        return SchemeStepReport()


class TestMidRunInjection:
    def test_event_mutates_network_during_window_only(self, line_network):
        workload = generate_workload(
            line_network,
            WorkloadConfig(duration=4.0, arrival_rate=5.0, seed=1, deadlock_fraction=0.0),
        )
        close = ChannelClose(time=1.0, duration=2.0, node_a="n1", node_b="n2")
        runner = ExperimentRunner(
            line_network, workload, step_size=0.1, drain_time=0.5, dynamics=[close]
        )
        probe = _ChannelProbeScheme("n1", "n2")
        runner.run_single(probe)

        for now, present in probe.observations:
            if 1.05 <= now <= 2.95:
                assert not present, f"channel should be closed at t={now}"
            elif now <= 0.95 or now >= 3.05:
                assert present, f"channel should be open at t={now}"

    def test_network_restored_between_schemes(self, line_network):
        workload = generate_workload(
            line_network,
            WorkloadConfig(duration=2.0, arrival_rate=5.0, seed=2, deadlock_fraction=0.0),
        )
        # The outage lasts beyond the end of the run: cleanup must revert it.
        outage = HubOutage(time=0.5, duration=None, node="n2")
        runner = ExperimentRunner(
            line_network, workload, step_size=0.1, drain_time=0.5, dynamics=[outage]
        )
        snapshot_before = line_network.snapshot()
        runner.run_single(_ChannelProbeScheme("n1", "n2"))
        assert line_network.snapshot() == snapshot_before

        # A second scheme must replay the identical starting topology.
        probe = _ChannelProbeScheme("n1", "n2")
        runner.run_single(probe, dynamics=[])
        assert all(present for _, present in probe.observations)

    def test_overlapping_close_and_open_still_restore(self, line_network):
        """A close and an open overlapping on one pair must not lose the channel."""
        workload = generate_workload(
            line_network,
            WorkloadConfig(duration=3.0, arrival_rate=5.0, seed=4, deadlock_fraction=0.0),
        )
        events = [
            ChannelClose(time=1.0, duration=1.0, node_a="n1", node_b="n2"),
            ChannelOpen(time=1.5, node_a="n1", node_b="n2", balance_a=5.0),
        ]
        runner = ExperimentRunner(
            line_network, workload, step_size=0.1, drain_time=0.5, dynamics=events
        )
        snapshot_before = line_network.snapshot()
        runner.run_single(_ChannelProbeScheme("n1", "n2"))

        # The next scheme must see the pristine topology again.
        probe = _ChannelProbeScheme("n1", "n2")
        runner.run_single(probe, dynamics=[])
        assert line_network.snapshot() == snapshot_before
        assert all(present for _, present in probe.observations)

    def test_real_schemes_survive_dynamics(self, small_ws_network):
        workload = generate_workload(
            small_ws_network,
            WorkloadConfig(duration=2.0, arrival_rate=15.0, seed=3),
        )
        events = churn_events(
            small_ws_network, np.random.default_rng(0), count=8, start=0.2, end=1.5, down_time=0.5
        ) + jamming_events(small_ws_network, at=0.5, duration=1.0, count=4, fraction=0.9)
        runner = ExperimentRunner(
            small_ws_network, workload, step_size=0.1, drain_time=1.0, dynamics=events
        )
        result = runner.run([ShortestPathScheme(), A2LScheme()])
        for name in ("shortest-path", "a2l"):
            assert result.scheme(name).generated_count == workload.count

    def test_hub_outage_measurably_degrades_hub_scheme(self, run_once):
        spec = ScenarioSpec(
            name="outage-probe",
            topology=TopologySpec(
                params={"node_count": 30, "nearest_neighbors": 4, "candidate_fraction": 0.2}
            ),
            workload=WorkloadSpec(duration=3.0, arrival_rate=15.0),
            schemes=[SchemeSpec(name="a2l")],
            drain_time=1.0,
        )
        static = run_once(spec, 1).scheme("a2l")

        runner, schemes = spec.build_experiment(1)
        # A2L's hub is the best-connected node overall, not a candidate.
        outage = [HubOutage(time=0.5, duration=None, node=max(
            runner.network.nodes(), key=lambda n: runner.network.degree(n)
        ))]
        degraded = runner.run(schemes, dynamics=outage).scheme("a2l")

        assert degraded.success_ratio < static.success_ratio
