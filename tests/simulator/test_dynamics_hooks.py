"""Regression suite for the runner's one dynamics hook.

Every network mutation the :class:`ExperimentRunner` performs -- a dynamics
event *applying*, its timed *revert* firing, and the end-of-run unwinding of
still-outstanding undos -- must be announced through the scheme's
``on_network_change()`` before the scheme is called for anything else, so
state it derives from the network (SpeedyMurmurs' embedding, path catalogs)
is repaired before it routes again.  Balances need no hook: schemes read and
write them on the network's balance store.  This suite pins the ordering
with a stub scheme that records every call it receives, with a network
fingerprint.
"""

import numpy as np
import pytest

from repro.baselines.base import RoutingScheme, SchemeStepReport
from repro.routing.transaction import FailureReason, Payment
from repro.scenarios.dynamics import ChannelClose, churn_events, jamming_events
from repro.simulator.experiment import ExperimentRunner
from repro.simulator.workload import WorkloadConfig, generate_workload
from repro.topology.generators import watts_strogatz_pcn


class HookRecordingScheme(RoutingScheme):
    """Routes nothing; records every call with a network fingerprint.

    The fingerprint captures both mutation families the dynamics layer can
    perform: the topology version (churn adds/removes channels) and the
    total locked liquidity (jamming locks funds without touching the graph).
    Because the scheme itself never locks or settles anything, any
    fingerprint movement is attributable to the runner's mutations.
    """

    name = "hook-recorder"

    def __init__(self):
        super().__init__()
        self.records = []

    def _record(self, kind):
        network = self._require_network()
        locked = sum(channel.locked_total() for channel in network.channels())
        self.records.append((kind, (network.topology_version, round(locked, 9))))

    def prepare(self, network, rng=None):
        super().prepare(network, rng)
        self.records = []
        self._record("prepare")

    def route_batch(self, requests):
        self._record("route_batch")
        return super().route_batch(requests)

    def submit(self, request, now):
        payment = Payment.create(
            sender=request.sender,
            recipient=request.recipient,
            value=request.value,
            created_at=now,
            timeout=1.0,
        )
        payment.fail(FailureReason.NO_PATH)
        return payment

    def step(self, now, dt):
        self._record("step")
        return SchemeStepReport()

    def on_network_change(self):
        self._record("change")


def _run_with_dynamics(dynamics_kind):
    """A run whose timed events revert mid-run and one event outlives it."""
    network = watts_strogatz_pcn(
        24,
        nearest_neighbors=4,
        rewire_probability=0.3,
        uniform_channel_size=60.0,
        seed=7,
    )
    workload = generate_workload(
        network, WorkloadConfig(duration=4.0, arrival_rate=5.0, seed=1)
    )
    if dynamics_kind == "churn":
        events = churn_events(
            network, np.random.default_rng(5), count=8, start=0.5, end=3.0, down_time=1.0
        )
        taken = {frozenset((event.node_a, event.node_b)) for event in events}
        spare = next(c for c in network.channels() if frozenset(c.endpoints) not in taken)
        events.append(ChannelClose(time=1.5, duration=None, node_a=spare.node_a, node_b=spare.node_b))
    else:
        events = jamming_events(network, at=0.5, duration=2.0, count=5, fraction=0.9)
        events += jamming_events(network, at=1.5, duration=None, count=1, fraction=0.5)
    runner = ExperimentRunner(network, workload, step_size=0.1, dynamics=events)
    scheme = HookRecordingScheme()
    runner.run_single(scheme, rng=np.random.default_rng(0))
    return scheme.records


def _moves(records):
    """``(kind_before, kind_after, fp_before, fp_after)`` wherever the network moved."""
    return [
        (kind_before, kind_after, fp_before, fp_after)
        for (kind_before, fp_before), (kind_after, fp_after) in zip(records, records[1:])
        if fp_after != fp_before
    ]


@pytest.mark.parametrize("dynamics_kind", ["churn", "jamming"])
class TestDynamicsHook:
    def test_every_mutation_is_announced_before_the_next_call(self, dynamics_kind):
        """The first call after any fingerprint move is ``on_network_change``.

        This single invariant covers all three mutation paths (apply, timed
        revert, end-of-run undo unwinding): had any of them skipped the
        hook, the move would land in front of a ``route_batch`` / ``step``
        record and the assertion would name it.
        """
        records = _run_with_dynamics(dynamics_kind)
        assert {kind for kind, _ in records} >= {"route_batch", "step", "change"}
        for kind_before, kind_after, fp_before, fp_after in _moves(records):
            assert kind_after == "change", (
                f"network mutated between {kind_before!r} and {kind_after!r} "
                f"without the hook (fingerprint {fp_before} -> {fp_after})"
            )

    def test_applies_and_timed_reverts_both_fire(self, dynamics_kind):
        """Both directions of a timed mutation are exercised, not just apply."""
        records = _run_with_dynamics(dynamics_kind)
        mid_run = _moves(records[:-1])
        assert len(mid_run) >= 2
        if dynamics_kind == "jamming":
            locked = [(before[1], after[1]) for _, _, before, after in mid_run]
            assert any(after > before for before, after in locked)  # apply
            assert any(after < before for before, after in locked)  # revert

    def test_end_of_run_unwinding_is_announced(self, dynamics_kind):
        """The outliving event is undone in the finally block, then announced."""
        records = _run_with_dynamics(dynamics_kind)
        assert records[-1][0] == "change"
        assert records[-1][1] != records[-2][1]
        if dynamics_kind == "jamming":
            # Jamming fully unwinds to the zero-locked start.
            assert records[-1][1][1] == records[0][1][1] == 0
