"""Multiwinner voting for the smooth-node candidate list.

The paper's trust model elects the candidate list with a multiwinner voting
algorithm balancing *excellence* (well-connected, well-funded, low-overhead
nodes score higher) and *diversity* (candidates should be spread across the
network).  The optimal voting design is explicitly left to future work, so
this module provides a deterministic greedy rule with those two ingredients:
candidates are picked by score, but each pick is penalized by its proximity
to already-selected candidates.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

from repro.topology.network import PCNetwork

NodeId = Hashable


def excellence_scores(network: PCNetwork, nodes: Optional[Sequence[NodeId]] = None) -> Dict[NodeId, float]:
    """Score nodes by connectivity and channel funds (the "excellence" criterion)."""
    candidates = list(nodes) if nodes is not None else network.nodes()
    if not candidates:
        return {}
    max_degree = max((network.degree(node) for node in candidates), default=1) or 1
    funds = {
        node: sum(network.channel(node, neighbor).balance(node) for neighbor in network.neighbors(node))
        for node in candidates
    }
    max_funds = max(funds.values(), default=1.0) or 1.0
    return {
        node: 0.5 * network.degree(node) / max_degree + 0.5 * funds[node] / max_funds
        for node in candidates
    }


def multiwinner_vote(
    network: PCNetwork,
    winners: int,
    eligible: Optional[Sequence[NodeId]] = None,
    diversity_weight: float = 0.5,
) -> List[NodeId]:
    """Elect a candidate list balancing excellence and diversity.

    Args:
        network: The PCN the candidates live in.
        winners: Number of candidates to elect.
        eligible: Nodes allowed to stand (defaults to every node).
        diversity_weight: How strongly proximity to already-elected candidates
            is penalized (0 disables the diversity criterion).
    """
    if winners < 1:
        raise ValueError("must elect at least one winner")
    # The path kernels' exceptions: imported where ``hop_count`` loads them.
    from repro.topology.csr import NodeNotFound, NoPath

    pool = list(eligible) if eligible is not None else network.nodes()
    if not pool:
        return []
    scores = excellence_scores(network, pool)
    selected: List[NodeId] = []
    remaining = set(pool)
    while remaining and len(selected) < winners:
        best_node = None
        best_score = float("-inf")
        for node in sorted(remaining, key=repr):
            penalty = 0.0
            if selected and diversity_weight > 0:
                distances = []
                for chosen in selected:
                    try:
                        distances.append(network.hop_count(node, chosen))
                    except (NoPath, NodeNotFound):
                        distances.append(network.node_count())
                nearest = min(distances)
                penalty = diversity_weight / (1.0 + nearest)
            score = scores[node] - penalty
            if score > best_score:
                best_score = score
                best_node = node
        selected.append(best_node)
        remaining.discard(best_node)
    return selected
