"""Path selection strategies (Table II of the paper).

Four path types are evaluated by the paper:

* ``ksp``       -- the plain k-shortest (fewest hops) simple paths,
* ``heuristic`` -- k feasible paths with the highest channel funds,
* ``edw``       -- edge-disjoint widest paths (the default in Splicer),
* ``eds``       -- edge-disjoint shortest paths.

All selectors operate on the current spendable balances of a
:class:`~repro.topology.network.PCNetwork`, i.e. the directional liquidity a
sender could actually push through the path right now.

The selectors run on the CSR kernels of
:mod:`repro.topology.csr`, which reproduce networkx's path lists
(order and tie-breaks included); the networkx implementations they were
ported from live in :mod:`repro.reference.topology` and
``tests/topology/test_csr_equivalence.py`` pins the two together.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Sequence, Set, Tuple

from repro.topology.network import PCNetwork
from repro.topology.pathcsr import PathCSR

NodeId = Hashable
Path = List[NodeId]
PathSelector = Callable[[PCNetwork, NodeId, NodeId, int], List[Path]]

#: How many shortest candidates the heuristic selector ranks by liquidity.
_HEURISTIC_CANDIDATE_POOL = 20


def k_shortest_paths(network: PCNetwork, source: NodeId, target: NodeId, k: int) -> List[Path]:
    """Up to ``k`` loop-free shortest paths by hop count (the KSP column)."""
    if k <= 0 or source == target:
        return []
    # Imported where PCNetwork imports the kernels: a process that never
    # queries a path never loads scipy's csgraph stack.
    from repro.topology.csr import NodeNotFound, NoPath

    try:
        return network.shortest_paths(source, target, k)
    except (NoPath, NodeNotFound):
        return []


def heuristic_widest_paths(
    network: PCNetwork, source: NodeId, target: NodeId, k: int
) -> List[Path]:
    """Pick the ``k`` candidate paths with the highest bottleneck funds.

    Mirrors the paper's "heuristic" choice: enumerate a pool of feasible
    (shortest) paths and keep the ones with the largest channel funds.
    """
    if k <= 0 or source == target:
        return []
    pool = k_shortest_paths(network, source, target, max(k, _HEURISTIC_CANDIDATE_POOL))
    candidates = PathCSR(network, pool)
    capacities = [candidates.capacity(i) for i in range(len(pool))]
    # Stable descending order: equal capacities keep their shortest-first rank.
    ranked = [
        path for _, path in sorted(
            zip(capacities, pool), key=lambda item: item[0], reverse=True
        )
    ]
    return ranked[:k]


def edge_disjoint_widest_paths(
    network: PCNetwork, source: NodeId, target: NodeId, k: int
) -> List[Path]:
    """Up to ``k`` edge-disjoint widest paths (the EDW column, Splicer's default)."""
    if k <= 0 or source == target:
        return []
    return network.graph_arrays().edge_disjoint_widest_paths(source, target, k)


def edge_disjoint_shortest_paths(
    network: PCNetwork, source: NodeId, target: NodeId, k: int
) -> List[Path]:
    """Up to ``k`` edge-disjoint shortest (fewest hops) paths (the EDS column)."""
    if k <= 0 or source == target:
        return []
    return network.graph_arrays().edge_disjoint_shortest_paths(source, target, k)


def landmark_paths(
    network: PCNetwork,
    source: NodeId,
    target: NodeId,
    k: int,
    landmarks: Sequence[NodeId],
) -> List[Path]:
    """Paths through well-connected landmark nodes (landmark-routing baseline).

    For each landmark, the path is the shortest source->landmark path joined
    with the shortest landmark->target path (duplicate nodes collapsed).  At
    most ``k`` distinct loop-free paths are returned.
    """
    return _join_landmark_legs(network.shortest_path, source, target, k, landmarks)


def _join_landmark_legs(
    shortest_path: Callable[[NodeId, NodeId], Path],
    source: NodeId,
    target: NodeId,
    k: int,
    landmarks: Sequence[NodeId],
) -> List[Path]:
    """:func:`landmark_paths` over any fewest-hops ``shortest_path(a, b)``."""
    if k <= 0 or source == target:
        return []
    from repro.topology.csr import NodeNotFound, NoPath

    paths: List[Path] = []
    seen: Set[Tuple[NodeId, ...]] = set()
    for landmark in landmarks:
        if len(paths) >= k:
            break
        try:
            first_leg = shortest_path(source, landmark)
            second_leg = shortest_path(landmark, target)
        except (NoPath, NodeNotFound):
            continue
        combined = list(first_leg) + list(second_leg[1:])
        deduplicated = _remove_loops(combined)
        key = tuple(deduplicated)
        if len(deduplicated) < 2 or key in seen:
            continue
        seen.add(key)
        paths.append(deduplicated)
    return paths


def _remove_loops(path: Sequence[NodeId]) -> Path:
    """Collapse repeated nodes so the path is simple."""
    result: Path = []
    positions: Dict[NodeId, int] = {}
    for node in path:
        if node in positions:
            cut = positions[node]
            for removed in result[cut + 1 :]:
                positions.pop(removed, None)
            result = result[: cut + 1]
        else:
            positions[node] = len(result)
            result.append(node)
    return result


#: Registry of path selectors keyed by the names used in Table II.
PATH_SELECTORS: Dict[str, PathSelector] = {
    "ksp": k_shortest_paths,
    "heuristic": heuristic_widest_paths,
    "edw": edge_disjoint_widest_paths,
    "eds": edge_disjoint_shortest_paths,
}


def get_path_selector(name: str) -> PathSelector:
    """Look up a path selector by its Table-II name (``ksp``/``heuristic``/``edw``/``eds``)."""
    try:
        return PATH_SELECTORS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown path type {name!r}; expected one of {sorted(PATH_SELECTORS)}"
        ) from None
