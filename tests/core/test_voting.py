"""Tests for multiwinner voting of the smooth-node candidate list."""

import pytest

from repro.core.voting import excellence_scores, multiwinner_vote
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


    def test_first_winner_has_the_top_excellence_score(self, small_ws_network):
        scores = excellence_scores(small_ws_network)
        top = max(sorted(scores, key=repr), key=scores.get)
        assert multiwinner_vote(small_ws_network, 3)[0] == top

    def test_zero_diversity_elects_the_top_scores(self, small_ws_network):
        scores = excellence_scores(small_ws_network)
        winners = multiwinner_vote(small_ws_network, 5, diversity_weight=0.0)
        ranked = sorted(sorted(scores, key=repr), key=scores.get, reverse=True)
        assert winners == ranked[:5]

    @pytest.mark.parametrize("winners", [1, 2, 3, 4])
    def test_a_larger_election_extends_a_smaller_one(self, small_ws_network, winners):
        # Greedy picks: electing one more winner keeps every earlier pick in order.
        smaller = multiwinner_vote(small_ws_network, winners)
        larger = multiwinner_vote(small_ws_network, winners + 1)
        assert larger[:winners] == smaller

    def test_vote_is_deterministic(self, small_ws_network):
        assert multiwinner_vote(small_ws_network, 4) == multiwinner_vote(small_ws_network, 4)

    def test_more_winners_than_eligible_elects_every_eligible_node(self, small_ws_network):
        eligible = small_ws_network.nodes()[:3]
        winners = multiwinner_vote(small_ws_network, 10, eligible=eligible)
        assert sorted(winners, key=repr) == sorted(eligible, key=repr)

    def test_empty_eligible_elects_nobody(self, small_ws_network):
        assert multiwinner_vote(small_ws_network, 2, eligible=[]) == []

    def test_excellence_scores_cover_only_the_given_nodes(self, small_ws_network):
        nodes = small_ws_network.nodes()[:4]
        assert sorted(excellence_scores(small_ws_network, nodes), key=repr) == sorted(
            nodes, key=repr
        )
        assert excellence_scores(small_ws_network, []) == {}

    def test_best_connected_best_funded_node_scores_one(self, multi_star_network):
        # Degree and funds each weigh one half, normalized by the maximum.
        scores = excellence_scores(multi_star_network)
        best = max(scores.values())
        assert best == pytest.approx(1.0)
        assert all(str(node).startswith("hub") for node, score in scores.items() if score == best)
