"""Tests for the SplicerSystem facade."""

import numpy as np
import pytest

from repro.baselines import SplicerScheme
from repro.core.config import SplicerConfig
from repro.core.splicer import SplicerSystem
from repro.routing.router import RouterConfig
from repro.simulator.workload import TransactionRequest
from repro.topology.csr import NodeNotFound
from repro.topology.network import PCNetwork

_CONFIG = SplicerConfig(
    router=RouterConfig(hop_delay=0.01, path_count=3),
    placement_method="greedy",
    placement_seed=0,
)


@pytest.fixture
def system(small_ws_network) -> SplicerSystem:
    instance = SplicerSystem(small_ws_network, _CONFIG)
    instance.setup()
    return instance


class TestSetup:
    def test_setup_produces_placement_and_entities(self, system, small_ws_network):
        plan = system.placement_plan
        assert plan is not None
        assert plan.hub_count >= 1
        assert system.clients == plan.assignment
        assert set(small_ws_network.hubs()) == set(plan.hubs)

    def test_every_client_attached_to_its_hub(self, system):
        hubs = set(system.placement_plan.hubs)
        assert system.clients and not set(system.clients) & hubs
        for client_id, hub_id in system.placement_plan.assignment.items():
            assert system.hub_of(client_id) == hub_id
            assert hub_id in hubs

    def test_hubs_are_the_placed_hubs_in_a_stable_order(self, system):
        assert system.hubs == sorted(system.placement_plan.hubs, key=repr)
        assert set(system.hubs) == set(system.clients.values())

    def test_setup_is_idempotent(self, system):
        first = system.placement_plan
        second = system.setup()
        assert first is second

    def test_placement_is_deterministic(self, small_ws_network, system):
        # Every candidate solving the same problem must reach the same hubs.
        again = SplicerSystem(small_ws_network, _CONFIG)
        assert again.setup().hubs == system.placement_plan.hubs

    def test_candidate_election_when_network_has_no_candidates(self, line_network):
        config = SplicerConfig(candidate_count=2, placement_method="greedy")
        system = SplicerSystem(line_network, config)
        plan = system.setup()
        assert plan.hub_count >= 1

    def test_methods_require_setup(self, small_ws_network):
        system = SplicerSystem(small_ws_network)
        with pytest.raises(RuntimeError):
            system.hub_of("anything")
        with pytest.raises(RuntimeError):
            system.step(0.1, 0.1)


class TestHopCounts:
    @staticmethod
    def _two_components() -> PCNetwork:
        network = PCNetwork()
        for node in ("a0", "a1", "b0", "b1"):
            network.add_node(node)
        network.add_channel("a0", "a1", 10.0)
        network.add_channel("b0", "b1", 10.0)
        return network

    def test_unreachable_or_unknown_falls_back_to_node_count(self):
        network = self._two_components()
        system = SplicerSystem(network)
        hops = system._hop_counts(["a0", "b1"], ["a1", "b1", "nowhere", "a0"])
        assert network.node_count() == 4
        assert hops.tolist() == [[1, 4, 4, 0], [4, 0, 4, 4]]

    def test_unknown_source_raises(self):
        system = SplicerSystem(self._two_components())
        with pytest.raises(NodeNotFound, match="nowhere"):
            system._hop_counts(["nowhere"], ["a0"])

    def test_setup_hops_equal_the_scalar_hop_count(self, system):
        network = system.network
        for client_id, hub_id in system.clients.items():
            assert system.management_hops(client_id) == 2 * network.hop_count(client_id, hub_id)
        assert system._hub_pair_hops
        for (a, b), hops in system._hub_pair_hops.items():
            assert hops == network.hop_count(a, b)


class TestPayments:
    def test_submit_payment_completes(self, system):
        clients = sorted(system.clients, key=repr)
        sender, recipient = clients[0], clients[-1]
        decision = system.submit_payment(sender, recipient, 5.0, now=0.0)
        assert decision.accepted
        reports = system.run(duration=2.0)
        assert decision.payment.is_complete
        assert any(decision.payment in report.completed_payments for report in reports)
        assert (system.management_messages, system.acks_forwarded) == (3, 1)

    def test_hub_of(self, system):
        client = next(iter(system.clients))
        assert system.hub_of(client) == system.placement_plan.assignment[client]
        with pytest.raises(KeyError):
            system.hub_of("not-a-client")

    def test_submit_unknown_sender_rejected(self, system):
        with pytest.raises(KeyError):
            system.submit_payment("ghost", next(iter(system.clients)), 1.0)
        assert system.management_messages == 0

    def test_submit_payment_requires_setup(self, small_ws_network):
        system = SplicerSystem(small_ws_network, _CONFIG)
        client = sorted(small_ws_network.clients(), key=repr)[0]
        with pytest.raises(RuntimeError):
            system.submit_payment(client, "anyone", 1.0)
        assert system.management_messages == 0

    def test_decision_carries_the_dated_payment(self, system):
        sender, recipient = sorted(system.clients, key=repr)[:2]
        decision = system.submit_payment(sender, recipient, 6.0, now=1.5)
        payment = decision.payment
        assert (payment.sender, payment.recipient, payment.value) == (sender, recipient, 6.0)
        assert payment.created_at == 1.5
        assert payment.deadline == pytest.approx(1.5 + system.config.payment_timeout)
        assert decision.accepted and decision.paths

    def test_created_at_dates_a_delayed_submission(self, system):
        sender, recipient = sorted(system.clients, key=repr)[:2]
        payment = system.submit_payment(sender, recipient, 2.0, now=1.0, created_at=0.25).payment
        assert payment.created_at == 0.25
        assert payment.deadline == pytest.approx(0.25 + system.config.payment_timeout)

    def test_refused_submission_costs_its_messages_and_earns_no_ack(self, system):
        sender, recipient = sorted(system.clients, key=repr)[:2]
        decision = system.submit_payment(sender, recipient, 9000.0, now=0.0)
        assert not decision.accepted
        assert decision.reason == "queue full"
        system.run(duration=1.0)
        assert (system.management_messages, system.acks_forwarded) == (3, 0)

    def test_unroutable_recipient_costs_its_messages_and_earns_no_ack(self, line_network):
        line_network.add_node("island", role="client")
        system = SplicerSystem(line_network, SplicerConfig(candidate_count=2))
        system.setup()
        sender = next(client for client in sorted(system.clients) if client != "island")
        decision = system.submit_payment(sender, "island", 5.0, now=0.0)
        assert not decision.accepted
        assert decision.reason == "no path"
        system.run(duration=1.0)
        assert (system.management_messages, system.acks_forwarded) == (3, 0)

    def test_failed_payment_earns_no_ack(self, system):
        sender, recipient = sorted(system.clients, key=repr)[:2]
        # Far more than the 200-token channels can move before the deadline.
        decision = system.submit_payment(sender, recipient, 900.0, now=0.0)
        assert decision.accepted
        system.run(duration=system.config.payment_timeout + 1.0)
        assert decision.payment.is_failed
        assert (system.management_messages, system.acks_forwarded) == (3, 0)

    def test_ack_is_counted_in_the_step_that_completes_the_payment(self, system):
        sender, recipient = sorted(system.clients, key=repr)[:2]
        decision = system.submit_payment(sender, recipient, 5.0, now=0.0)
        dt = system.config.router.update_interval
        for index in range(1, 21):
            report = system.step(index * dt, dt)
            if decision.payment in report.completed_payments:
                assert system.acks_forwarded == 1
                break
            assert system.acks_forwarded == 0
        else:
            pytest.fail("the payment never completed")
        assert system.management_messages == 3

    def test_management_hops_of_a_non_client_raise(self, system):
        with pytest.raises(KeyError):
            system.management_hops(system.hubs[0])
        with pytest.raises(KeyError):
            system.management_delay("not-a-client")

    def test_management_delay_and_hops(self, system):
        client = next(iter(system.clients))
        hops = system.management_hops(client)
        assert hops == 2 * system.network.hop_count(client, system.hub_of(client))
        assert system.management_delay(client) == pytest.approx(
            hops * system.config.client_hub_hop_delay
        )


@pytest.fixture
def sync_rounds(system, monkeypatch):
    """The records ``record_sync`` returns while ``system`` runs."""
    rounds = []
    record_sync = system.epoch_clock.record_sync

    def recorded(*args):
        rounds.append(record_sync(*args))
        return rounds[-1]

    monkeypatch.setattr(system.epoch_clock, "record_sync", recorded)
    return rounds


class TestEpochs:
    def test_epoch_sync_recorded(self, system, sync_rounds):
        system.run(duration=2.5)
        assert system.epoch_clock.current_epoch >= 2
        assert len(sync_rounds) >= 2
        assert system.epoch_clock.total_sync_messages() == sum(
            record.messages for record in sync_rounds
        )

    def test_one_sync_round_per_epoch_boundary(self, system, sync_rounds):
        reports = system.run(duration=3.0, dt=0.1)
        assert len(reports) == 30
        assert [record.epoch for record in sync_rounds] == [1, 2, 3]

    def test_sync_round_reaches_every_ordered_hub_pair(self, system, sync_rounds):
        hubs = system.hubs
        assert len(hubs) > 1
        system.run(duration=1.0, dt=0.25)
        (record,) = sync_rounds
        assert record.messages == len(hubs) * (len(hubs) - 1)
        assert system.epoch_clock.total_sync_hops() == record.total_hops
        assert record.total_hops == system.sync_message_hops_per_epoch()
        farthest = max(
            system.network.hop_count(a, b) for a in hubs for b in hubs if a != b
        )
        assert record.max_delay == pytest.approx(farthest * system.config.hub_sync_hop_delay)

    def test_sync_message_hops_positive_with_multiple_hubs(self, system):
        if len(system.hubs) > 1:
            assert system.sync_message_hops_per_epoch() > 0
        else:
            assert system.sync_message_hops_per_epoch() == 0


def _request(sender, recipient, value):
    return TransactionRequest(arrival_time=0.0, sender=sender, recipient=recipient, value=value)


def _drain(scheme, duration=6.0, dt=0.1):
    """Step ``scheme`` past every payment's deadline; the router ends empty."""
    for index in range(1, int(duration / dt) + 1):
        scheme.step(index * dt, dt)
    router = scheme.system.router
    assert router.queued_unit_count() == router.in_flight_count() == 0
    assert router.active_payment_count() == 0


class TestWorkflowMessages:
    """The section III-A workflow is counted: 3 messages per client
    submission and 1 ACK per completed client payment, on top of the hubs'
    sync messages and the router's probes."""

    @pytest.fixture
    def scheme(self, small_ws_network) -> SplicerScheme:
        scheme = SplicerScheme(_CONFIG)
        scheme.prepare(small_ws_network)
        return scheme

    def test_drained_run_counts_submissions_and_completions(self, scheme):
        system = scheme.system
        clients = sorted(system.clients, key=repr)
        payments = []
        for index in range(24):
            sender = clients[index % len(clients)]
            recipient = clients[(index * 7 + 3) % len(clients)]
            if sender == recipient:
                continue
            # Some values exceed what the paths can carry in time and fail.
            value = 3.0 if index % 3 else 900.0
            payments.append(scheme.submit(_request(sender, recipient, value), now=0.0))
        # More than the sender's queue holds: refused at submission.
        refused = scheme.submit(_request(clients[0], clients[1], 9000.0), now=0.0)
        payments.append(refused)
        _drain(scheme)
        completed = sum(payment.is_complete for payment in payments)
        assert refused.failure_reason == "queue-full"
        assert 0 < completed < len(payments) - 1
        sync = system.epoch_clock.total_sync_messages()
        probes = system.router.total_probe_messages
        assert sync > 0 and probes > 0
        assert scheme.overhead_messages() == 3 * len(payments) + completed + sync + probes

    def test_hub_and_unplaced_candidate_senders_add_no_workflow_messages(
        self, scheme, small_ws_network
    ):
        system = scheme.system
        unplaced = sorted(set(small_ws_network.candidates()) - set(system.hubs), key=repr)
        assert unplaced and not set(unplaced) & set(system.clients)
        recipient = sorted(system.clients, key=repr)[0]
        payments = [
            scheme.submit(_request(sender, recipient, 3.0), now=0.0)
            for sender in (system.hubs[0], unplaced[0])
        ]
        _drain(scheme)
        assert all(payment.is_complete for payment in payments)
        assert system.management_messages == system.acks_forwarded == 0
        assert scheme.overhead_messages() == (
            system.epoch_clock.total_sync_messages() + system.router.total_probe_messages
        )


@pytest.mark.parametrize("seed", range(6))
def test_random_workload_counts_each_client_submission_and_completion(small_ws_network, seed):
    """Mixed senders, values and arrival times: only client payments cost workflow messages."""
    scheme = SplicerScheme(_CONFIG)
    scheme.prepare(small_ws_network)
    system = scheme.system
    rng = np.random.default_rng(seed)
    clients = sorted(system.clients, key=repr)
    others = sorted(set(small_ws_network.nodes()) - set(clients), key=repr)
    nodes = sorted(small_ws_network.nodes(), key=repr)
    submitted = []
    dt = 0.1
    for index in range(1, 61):
        now = index * dt
        if index <= 10:
            # Every step sends one non-client payment and two client payments.
            for sender in (others[index % len(others)], *rng.choice(clients, size=2)):
                recipient = sender
                while recipient == sender:
                    recipient = nodes[rng.integers(len(nodes))]
                value = float(rng.choice([1.0, 3.0, 8.0, 400.0]))
                request = TransactionRequest(
                    arrival_time=now, sender=sender, recipient=recipient, value=value
                )
                submitted.append(scheme.submit(request, now=now))
        scheme.step(now, dt)
    router = system.router
    assert router.queued_unit_count() == router.in_flight_count() == 0
    from_clients = [payment for payment in submitted if payment.sender in system.clients]
    completed = sum(payment.is_complete for payment in from_clients)
    assert len(from_clients) == 20
    assert 0 < completed < len(from_clients)
    assert any(payment.is_complete for payment in submitted if payment not in from_clients)
    assert system.management_messages == 3 * len(from_clients)
    assert system.acks_forwarded == completed
    assert scheme.overhead_messages() == (
        3 * len(from_clients)
        + completed
        + system.epoch_clock.total_sync_messages()
        + router.total_probe_messages
    )
