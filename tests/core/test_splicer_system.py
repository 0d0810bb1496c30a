"""Tests for the SplicerSystem facade."""

import pytest

from repro.core.config import SplicerConfig
from repro.core.splicer import SplicerSystem
from repro.routing.router import RouterConfig
from repro.topology.network import PCNetwork


@pytest.fixture
def system(small_ws_network) -> SplicerSystem:
    config = SplicerConfig(
        router=RouterConfig(hop_delay=0.01, path_count=3),
        placement_method="greedy",
        placement_seed=0,
    )
    instance = SplicerSystem(small_ws_network, config)
    instance.setup()
    return instance


class TestSetup:
    def test_setup_produces_placement_and_entities(self, system, small_ws_network):
        plan = system.placement_plan
        assert plan is not None
        assert plan.hub_count >= 1
        assert set(system.smooth_nodes) == set(plan.hubs)
        assert set(system.clients) == set(plan.assignment)
        assert set(small_ws_network.hubs()) == set(plan.hubs)

    def test_setup_is_idempotent(self, system):
        first = system.placement_plan
        second = system.setup()
        assert first is second

    def test_every_client_attached_to_its_hub(self, system):
        for client_id, client in system.clients.items():
            hub = system.placement_plan.assignment[client_id]
            assert client.smooth_node_id == hub
            assert client_id in system.smooth_nodes[hub].clients

    def test_kmg_members_are_hubs(self, system):
        assert set(system.kmg.members) <= set(system.placement_plan.hubs)

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


class TestSafeHops:
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
        assert system._safe_hops("a0", "a1") == 1
        assert system._safe_hops("a0", "b1") == network.node_count() == 4
        assert system._safe_hops("a0", "nowhere") == 4

    def test_unexpected_hop_count_errors_propagate(self, monkeypatch):
        network = self._two_components()
        system = SplicerSystem(network)

        def broken(source, target):
            raise RuntimeError("bug in hop_count")

        monkeypatch.setattr(network, "hop_count", broken)
        with pytest.raises(RuntimeError, match="bug in hop_count"):
            system._safe_hops("a0", "b1")


class TestPayments:
    def test_submit_payment_completes(self, system):
        clients = sorted(system.clients, key=repr)
        sender, recipient = clients[0], clients[-1]
        session, decision = system.submit_payment(sender, recipient, 5.0, now=0.0)
        assert decision.accepted
        reports = system.run(duration=2.0)
        assert decision.payment.is_complete
        assert any(decision.payment in report.completed_payments for report in reports)
        assert session.ack_sent

    def test_hub_of(self, system):
        client = next(iter(system.clients))
        assert system.hub_of(client) == system.placement_plan.assignment[client]
        with pytest.raises(KeyError):
            system.hub_of("not-a-client")

    def test_submit_unknown_sender_rejected(self, system):
        with pytest.raises(KeyError):
            system.submit_payment("ghost", next(iter(system.clients)), 1.0)

    def test_management_delay_and_hops(self, system):
        client = next(iter(system.clients))
        hops = system.management_hops(client)
        assert hops == 2 * system.clients[client].hops_to_hub
        assert system.management_delay(client) == pytest.approx(
            hops * system.config.client_hub_hop_delay
        )


class TestEpochs:
    def test_epoch_sync_recorded(self, system):
        system.run(duration=2.5)
        assert system.epoch_clock.current_epoch >= 2
        assert len(system.epoch_clock.sync_records) >= 2
        for node in system.smooth_nodes.values():
            assert node.stats.sync_rounds >= 2

    def test_sync_message_hops_positive_with_multiple_hubs(self, system):
        if len(system.hubs) > 1:
            assert system.sync_message_hops_per_epoch() > 0
        else:
            assert system.sync_message_hops_per_epoch() == 0


class TestSessions:
    def test_drained_run_retires_every_session(self, system):
        """Completed, failed and rejected payments all leave ``sessions``."""
        clients = sorted(system.clients, key=repr)
        payments = []
        for index in range(24):
            sender = clients[index % len(clients)]
            recipient = clients[(index * 7 + 3) % len(clients)]
            if sender == recipient:
                continue
            # Some values exceed what the paths can carry in time and fail.
            value = 3.0 if index % 3 else 900.0
            _, decision = system.submit_payment(sender, recipient, value, now=0.0)
            payments.append(decision.payment)
        # More than the sender's queue holds: rejected at submission.
        _, rejected = system.submit_payment(clients[0], clients[1], 9000.0, now=0.0)
        assert not rejected.accepted
        payments.append(rejected.payment)
        system.run(duration=6.0)
        router = system.router
        assert router.queued_unit_count() == router.in_flight_count() == 0
        assert router.active_payment_count() == 0
        completed = sum(payment.is_complete for payment in payments)
        assert 0 < completed < len(payments)
        assert all(not node.sessions for node in system.smooth_nodes.values())
        acks = sum(node.stats.acks_forwarded for node in system.smooth_nodes.values())
        assert acks == completed
