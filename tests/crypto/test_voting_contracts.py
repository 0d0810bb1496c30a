"""Tests for multiwinner voting and the contract simulations."""

import pytest

from repro.crypto.contracts import PlacementContract, VotingContract
from repro.crypto.voting import excellence_scores, multiwinner_vote
from repro.topology.network import PCNetwork


class TestMultiwinnerVoting:
    def test_elects_requested_number(self, small_ws_network):
        winners = multiwinner_vote(small_ws_network, 4)
        assert len(winners) == 4
        assert len(set(winners)) == 4

    def test_prefers_well_connected_nodes(self, multi_star_network):
        winners = multiwinner_vote(multi_star_network, 3, diversity_weight=0.0)
        assert all(str(w).startswith("hub") for w in winners)

    def test_diversity_spreads_winners(self, grid_network):
        winners = multiwinner_vote(grid_network, 2, diversity_weight=2.0)
        assert grid_network.hop_count(winners[0], winners[1]) >= 2

    def test_eligible_restriction(self, small_ws_network):
        eligible = small_ws_network.nodes()[:5]
        winners = multiwinner_vote(small_ws_network, 3, eligible=eligible)
        assert set(winners) <= set(eligible)

    def test_invalid_winner_count(self, small_ws_network):
        with pytest.raises(ValueError):
            multiwinner_vote(small_ws_network, 0)

    def test_excellence_scores_in_unit_range(self, small_ws_network):
        scores = excellence_scores(small_ws_network)
        assert all(0.0 <= score <= 1.0 + 1e-9 for score in scores.values())

    def test_disconnected_candidates_count_as_far_apart(self):
        """No path between two nodes is a distance of ``node_count()``."""
        network = PCNetwork()
        for hub, leaves in (("x", 4), ("y", 3)):
            network.add_node(hub)
            for i in range(leaves):
                network.add_node(f"{hub}{i}")
                network.add_channel(hub, f"{hub}{i}", 50.0)
        # y's penalty uses the fallback distance (9 nodes); x's own leaves
        # sit one hop from the first winner.
        assert multiwinner_vote(network, 2, diversity_weight=5.0) == ["x", "y"]

    def test_unexpected_hop_count_errors_propagate(self, monkeypatch, small_ws_network):
        """Only the kernels' NoPath / NodeNotFound mean "far apart"; a bug raises."""

        def broken(source, target):
            raise RuntimeError("bug in hop_count")

        monkeypatch.setattr(small_ws_network, "hop_count", broken)
        with pytest.raises(RuntimeError, match="bug in hop_count"):
            multiwinner_vote(small_ws_network, 2)


class TestVotingContract:
    def test_election_requires_supermajority(self, small_ws_network):
        contract = VotingContract()
        with pytest.raises(PermissionError):
            contract.elect_candidates(small_ws_network, 3, votes_for=60, votes_total=100)

    def test_election_passes_with_supermajority(self, small_ws_network):
        contract = VotingContract()
        winners = contract.elect_candidates(small_ws_network, 3, votes_for=70, votes_total=100)
        assert len(winners) == 3
        assert contract.candidate_list == winners

    def test_invalid_vote_totals(self, small_ws_network):
        with pytest.raises(ValueError):
            VotingContract().elect_candidates(small_ws_network, 3, votes_for=0, votes_total=0)


class TestPlacementContract:
    def test_decide_placement_is_deterministic(self, small_ws_network):
        contract = PlacementContract(omega=0.05)
        first = contract.decide_placement(small_ws_network)
        second = contract.decide_placement(small_ws_network)
        assert first.hubs == second.hubs
        assert contract.current_plan is second

    def test_deposits_and_access(self):
        contract = PlacementContract(required_deposit=50.0)
        contract.pledge("hub", 30.0)
        assert not contract.has_access("hub")
        contract.pledge("hub", 25.0)
        assert contract.has_access("hub")

    def test_invalid_deposit(self):
        with pytest.raises(ValueError):
            PlacementContract().pledge("hub", 0.0)

    def test_slashing_confiscates_deposit(self):
        contract = PlacementContract(required_deposit=50.0)
        contract.pledge("hub", 60.0)
        slashed = contract.slash("hub")
        assert slashed == 60.0
        assert not contract.has_access("hub")
        assert contract.slashed["hub"] == 60.0

    def test_slashing_unknown_hub_is_zero(self):
        assert PlacementContract().slash("ghost") == 0.0
