"""Tests for the Splicer system: election, placement, hops, workflow and epochs."""

import numpy as np
import pytest

from repro.baselines import SplicerScheme
from repro.baselines.splicer_scheme import CLIENT_HUB_HOP_DELAY, EPOCH_DURATION, _hop_counts
from repro.core.config import SplicerConfig
from repro.core.voting import multiwinner_vote
from repro.routing.router import RouterConfig
from repro.simulator.workload import TransactionRequest
from repro.topology.csr import NodeNotFound
from repro.topology.network import PCNetwork

_CONFIG = SplicerConfig(
    router=RouterConfig(hop_delay=0.01, path_count=3),
    placement_method="greedy",
)


@pytest.fixture
def scheme(small_ws_network) -> SplicerScheme:
    instance = SplicerScheme(_CONFIG)
    instance.prepare(small_ws_network)
    return instance


def _clients(scheme):
    return sorted(scheme.placement_plan.assignment, key=repr)


def _hubs(scheme):
    return sorted(scheme.placement_plan.hubs, key=repr)


def _request(sender, recipient, value, time=0.0):
    return TransactionRequest(arrival_time=time, sender=sender, recipient=recipient, value=value)


def _run(scheme, duration, dt=0.2):
    """Step ``scheme`` from 0 to ``duration``; every step's report."""
    return [scheme.step(index * dt, dt) for index in range(1, int(duration / dt) + 1)]


class TestSetup:
    def test_setup_produces_placement_and_entities(self, scheme, small_ws_network):
        plan = scheme.placement_plan
        assert plan is not None
        assert plan.hub_count >= 1
        assert set(plan.assignment) == set(small_ws_network.clients())
        assert set(plan.hubs) <= set(small_ws_network.candidates())

    def test_prepare_leaves_node_roles_unchanged(self, small_ws_network):
        roles = {node: small_ws_network.role(node) for node in small_ws_network.nodes()}
        SplicerScheme().prepare(small_ws_network)
        assert {node: small_ws_network.role(node) for node in small_ws_network.nodes()} == roles

    def test_every_client_attached_to_its_hub(self, scheme, small_ws_network):
        hubs = set(scheme.placement_plan.hubs)
        assert scheme.placement_plan.assignment and not set(_clients(scheme)) & hubs
        for client_id, hub_id in scheme.placement_plan.assignment.items():
            assert hub_id in hubs
            assert scheme.management_hops(client_id) == 2 * small_ws_network.hop_count(
                client_id, hub_id
            )

    def test_prepare_again_starts_from_zero(self, scheme, small_ws_network):
        clients = _clients(scheme)
        scheme.submit(_request(clients[0], clients[-1], 5.0), now=0.0)
        _run(scheme, 2.0)
        assert scheme.overhead_messages() > 0
        hubs = scheme.placement_plan.hubs
        scheme.prepare(small_ws_network)
        assert scheme.placement_plan.hubs == hubs
        counters = (scheme.management_messages, scheme.acks_forwarded, scheme.sync_messages)
        assert counters == (0, 0, 0)
        assert scheme.overhead_messages() == scheme.router.total_probe_messages == 0

    def test_placement_is_deterministic(self, small_ws_network, scheme):
        # Every candidate solving the same problem must reach the same hubs.
        again = SplicerScheme(_CONFIG)
        again.prepare(small_ws_network)
        assert again.placement_plan.hubs == scheme.placement_plan.hubs

    def test_candidate_election_when_network_has_no_candidates(self, line_network):
        assert not line_network.candidates()
        winners = multiwinner_vote(line_network, 2)
        scheme = SplicerScheme(SplicerConfig(placement_method="greedy"))
        scheme.prepare(line_network)
        plan = scheme.placement_plan
        assert plan.hub_count >= 1
        assert set(plan.hubs) <= set(winners)

    def test_elected_hubs_are_not_their_own_clients(self, line_network):
        scheme = SplicerScheme(SplicerConfig(placement_method="greedy"))
        scheme.prepare(line_network)
        hubs = _hubs(scheme)
        assert hubs == ["n1", "n3"]
        assert not set(hubs) & set(scheme.placement_plan.assignment)
        assert set(scheme.placement_plan.assignment) == {"n0", "n2", "n4"}
        payment = scheme.submit(_request("n1", "n4", 5.0), now=0.0)
        _run(scheme, 2.0)
        assert payment.is_complete
        assert scheme.extra_delay(_request("n1", "n4", 5.0)) == 0.0
        assert scheme.management_messages == scheme.acks_forwarded == 0

    def test_designated_candidates_skip_the_election(self, triangle_network):
        triangle_network.set_role("A", "candidate")
        scheme = SplicerScheme(SplicerConfig(placement_method="greedy"))
        scheme.prepare(triangle_network)
        assert list(scheme.placement_plan.hubs) == ["A"]


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
        hops = _hop_counts(network, ["a0", "b1"], ["a1", "b1", "nowhere", "a0"])
        assert network.node_count() == 4
        assert hops.tolist() == [[1, 4, 4, 0], [4, 0, 4, 4]]

    def test_unknown_source_raises(self):
        with pytest.raises(NodeNotFound, match="nowhere"):
            _hop_counts(self._two_components(), ["nowhere"], ["a0"])

    def test_setup_hops_equal_the_scalar_hop_count(self, scheme):
        network = scheme.network
        for client_id, hub_id in scheme.placement_plan.assignment.items():
            assert scheme.management_hops(client_id) == 2 * network.hop_count(client_id, hub_id)
        hubs = _hubs(scheme)
        assert len(hubs) > 1
        assert scheme.sync_message_hops_per_epoch() == sum(
            network.hop_count(a, b) for a in hubs for b in hubs if a != b
        )


class TestPayments:
    def test_submit_payment_completes(self, scheme):
        clients = _clients(scheme)
        payment = scheme.submit(_request(clients[0], clients[-1], 5.0), now=0.0)
        reports = _run(scheme, 2.0)
        assert payment.is_complete
        assert any(payment in report.completed for report in reports)
        assert (scheme.management_messages, scheme.acks_forwarded) == (3, 1)

    def test_unknown_sender_raises_and_costs_no_messages(self, scheme):
        with pytest.raises(NodeNotFound, match="ghost"):
            scheme.submit(_request("ghost", _clients(scheme)[0], 1.0), now=0.0)
        assert scheme.management_messages == 0

    def test_submission_returns_the_dated_payment(self, scheme):
        sender, recipient = _clients(scheme)[:2]
        payment = scheme.submit(_request(sender, recipient, 6.0, time=1.25), now=1.5)
        assert (payment.sender, payment.recipient, payment.value) == (sender, recipient, 6.0)
        assert payment.created_at == 1.25
        assert payment.deadline == pytest.approx(1.25 + scheme.timeout)
        assert payment.units

    def test_refused_submission_costs_its_messages_and_earns_no_ack(self, scheme):
        sender, recipient = _clients(scheme)[:2]
        payment = scheme.submit(_request(sender, recipient, 9000.0), now=0.0)
        _run(scheme, 1.0)
        assert payment.is_failed and payment.failure_reason == "queue-full"
        assert (scheme.management_messages, scheme.acks_forwarded) == (3, 0)

    def test_unroutable_recipient_costs_its_messages_and_earns_no_ack(self, line_network):
        line_network.add_node("island", role="client")
        scheme = SplicerScheme()
        scheme.prepare(line_network)
        sender = next(client for client in _clients(scheme) if client != "island")
        payment = scheme.submit(_request(sender, "island", 5.0), now=0.0)
        _run(scheme, 1.0)
        assert payment.is_failed and payment.failure_reason == "no-path"
        assert (scheme.management_messages, scheme.acks_forwarded) == (3, 0)

    def test_failed_payment_earns_no_ack(self, scheme):
        sender, recipient = _clients(scheme)[:2]
        # Far more than the 200-token channels can move before the deadline.
        payment = scheme.submit(_request(sender, recipient, 900.0), now=0.0)
        assert not payment.is_failed
        _run(scheme, scheme.timeout + 1.0)
        assert payment.is_failed
        assert (scheme.management_messages, scheme.acks_forwarded) == (3, 0)

    def test_ack_is_counted_in_the_step_that_completes_the_payment(self, scheme):
        sender, recipient = _clients(scheme)[:2]
        payment = scheme.submit(_request(sender, recipient, 5.0), now=0.0)
        dt = scheme.config.router.update_interval
        for index in range(1, 21):
            report = scheme.step(index * dt, dt)
            if payment in report.completed:
                assert scheme.acks_forwarded == 1
                break
            assert scheme.acks_forwarded == 0
        else:
            pytest.fail("the payment never completed")
        assert scheme.management_messages == 3

    def test_management_hops_of_a_non_client_raise(self, scheme):
        with pytest.raises(KeyError):
            scheme.management_hops(_hubs(scheme)[0])
        with pytest.raises(KeyError):
            scheme.management_delay("not-a-client")

    def test_management_delay_and_hops(self, scheme):
        client, hub = next(iter(scheme.placement_plan.assignment.items()))
        hops = scheme.management_hops(client)
        assert hops == 2 * scheme.network.hop_count(client, hub)
        assert scheme.management_delay(client) == pytest.approx(hops * CLIENT_HUB_HOP_DELAY)
        assert CLIENT_HUB_HOP_DELAY == 0.01


def _sync_round(scheme):
    """Messages of one synchronization round: one per ordered hub pair."""
    hubs = scheme.placement_plan.hub_count
    return hubs * (hubs - 1)


class TestEpochs:
    def test_epoch_sync_recorded(self, scheme):
        assert _sync_round(scheme) > 0
        _run(scheme, 2.5)
        assert scheme.sync_messages == 2 * _sync_round(scheme)

    def test_one_sync_round_per_epoch_boundary(self, scheme):
        rounds = []
        for index in range(1, 31):
            scheme.step(index * 0.1, 0.1)
            rounds.append(scheme.sync_messages // _sync_round(scheme))
        assert rounds == [0] * 9 + [1] * 10 + [2] * 10 + [3]

    def test_sync_round_reaches_every_ordered_hub_pair(self, scheme):
        hubs = _hubs(scheme)
        assert len(hubs) > 1
        _run(scheme, 1.0, dt=0.25)
        assert scheme.sync_messages == len(hubs) * (len(hubs) - 1)

    @pytest.mark.parametrize("dt", [0.1, 0.25, 1.0, 2.5, 5.0])
    def test_a_step_counts_every_boundary_it_crosses(self, scheme, dt):
        # Steps end at 2.5, 5.0, 7.5 and 10.0 for dt = 2.5: epochs 2, 5, 7 and
        # 10, so the four steps cross ten boundaries.
        steps = _run(scheme, 10.0, dt=dt)
        epochs = int(len(steps) * dt // EPOCH_DURATION)
        assert scheme.sync_messages == epochs * _sync_round(scheme)
        assert epochs == 10

    def test_time_going_back_counts_no_round(self, scheme):
        scheme.step(2.0, 2.0)
        scheme.step(1.5, 0.0)
        scheme.step(2.5, 1.0)
        assert scheme.sync_messages == 2 * _sync_round(scheme)

    def test_a_single_hub_sends_no_sync_message(self, triangle_network):
        triangle_network.set_role("C", "candidate")
        scheme = SplicerScheme(SplicerConfig(placement_method="greedy"))
        scheme.prepare(triangle_network)
        assert scheme.placement_plan.hub_count == 1
        _run(scheme, 3.0, dt=0.5)
        assert scheme.sync_messages == scheme.sync_message_hops_per_epoch() == 0

    def test_sync_message_hops_positive_with_multiple_hubs(self, scheme):
        if len(_hubs(scheme)) > 1:
            assert scheme.sync_message_hops_per_epoch() > 0
        else:
            assert scheme.sync_message_hops_per_epoch() == 0


def _drain(scheme, duration=6.0, dt=0.1):
    """Step ``scheme`` past every payment's deadline; the router ends empty.

    Returns the epoch boundaries the steps crossed.
    """
    steps = _run(scheme, duration, dt)
    router = scheme.router
    assert router.queued_unit_count() == router.in_flight_count() == 0
    return int(len(steps) * dt // EPOCH_DURATION)


class TestWorkflowMessages:
    """The section III-A workflow is counted: 3 messages per client
    submission and 1 ACK per completed client payment, on top of the hubs'
    sync messages and the router's probes."""

    def test_drained_run_counts_submissions_and_completions(self, scheme):
        clients = _clients(scheme)
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
        epochs = _drain(scheme)
        completed = sum(payment.is_complete for payment in payments)
        assert refused.failure_reason == "queue-full"
        assert 0 < completed < len(payments) - 1
        sync = epochs * _sync_round(scheme)
        probes = scheme.router.total_probe_messages
        assert scheme.sync_messages == sync > 0 and probes > 0
        assert scheme.overhead_messages() == 3 * len(payments) + completed + sync + probes

    def test_hub_and_unplaced_candidate_senders_add_no_workflow_messages(
        self, scheme, small_ws_network
    ):
        hubs = _hubs(scheme)
        unplaced = sorted(set(small_ws_network.candidates()) - set(hubs), key=repr)
        assert unplaced and not set(unplaced) & set(_clients(scheme))
        recipient = _clients(scheme)[0]
        payments = [
            scheme.submit(_request(sender, recipient, 3.0), now=0.0)
            for sender in (hubs[0], unplaced[0])
        ]
        epochs = _drain(scheme)
        assert all(payment.is_complete for payment in payments)
        assert scheme.management_messages == scheme.acks_forwarded == 0
        assert scheme.overhead_messages() == (
            epochs * _sync_round(scheme) + scheme.router.total_probe_messages
        )


@pytest.mark.parametrize("seed", range(6))
def test_random_workload_counts_each_client_submission_and_completion(small_ws_network, seed):
    """Mixed senders, values and arrival times: only client payments cost workflow messages."""
    scheme = SplicerScheme(_CONFIG)
    scheme.prepare(small_ws_network)
    rng = np.random.default_rng(seed)
    clients = _clients(scheme)
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
                submitted.append(scheme.submit(_request(sender, recipient, value, now), now=now))
        scheme.step(now, dt)
    router = scheme.router
    assert router.queued_unit_count() == router.in_flight_count() == 0
    from_clients = [payment for payment in submitted if payment.sender in clients]
    completed = sum(payment.is_complete for payment in from_clients)
    assert len(from_clients) == 20
    assert 0 < completed < len(from_clients)
    assert any(payment.is_complete for payment in submitted if payment not in from_clients)
    assert scheme.management_messages == 3 * len(from_clients)
    assert scheme.acks_forwarded == completed
    assert scheme.overhead_messages() == (
        3 * len(from_clients) + completed + 6 * _sync_round(scheme) + router.total_probe_messages
    )
