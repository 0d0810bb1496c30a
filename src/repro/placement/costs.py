"""Cost model for the PCH placement problem.

The paper defines three edge-wise cost parameters, all probed from the
network during the previous long period:

* ``zeta[m][n]``   -- management cost of assigning client ``m`` to smooth
  node ``n`` (paper setting: ``0.02 * hops(m, n)``),
* ``delta[n][l]``  -- per-client synchronization cost between smooth nodes
  ``n`` and ``l`` (paper setting: ``0.01 * hops(n, l)``),
* ``epsilon[n][l]`` -- constant synchronization cost between smooth nodes
  (paper setting: ``0.05 * hops(n, l)``).

:class:`PlacementCostModel` stores these matrices and exposes the balance
cost ``C_B = C_M + omega * C_S`` of equations (3)-(5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.topology.network import PCNetwork

NodeId = Hashable

#: Paper's coefficient for the management cost per hop (section V-A).
PAPER_ZETA_PER_HOP = 0.02
#: Paper's coefficient for the per-client synchronization cost per hop.
PAPER_DELTA_PER_HOP = 0.01
#: Paper's coefficient for the constant synchronization cost per hop.
PAPER_EPSILON_PER_HOP = 0.05


@dataclass(frozen=True)
class CostArrays:
    """Index-mapped dense mirrors of a :class:`PlacementCostModel`.

    The vectorized placement kernels address clients and candidates by row
    index instead of node id.  Indices follow the cost model's ordering, so
    ``argmin`` tie-breaks reproduce the scalar reference's first-in-candidate-
    order behaviour exactly.

    Attributes:
        clients: Client ids in index order (row ``i`` of ``zeta``).
        candidates: Candidate ids in index order (column/row order of all
            three matrices).
        client_index: ``client id -> zeta row``.
        candidate_index: ``candidate id -> matrix row/column``.
        zeta: ``(M, Z)`` management-cost matrix.
        delta: ``(Z, Z)`` per-client synchronization-cost matrix.
        epsilon: ``(Z, Z)`` constant synchronization-cost matrix.
    """

    clients: Sequence[NodeId]
    candidates: Sequence[NodeId]
    client_index: Mapping[NodeId, int]
    candidate_index: Mapping[NodeId, int]
    zeta: np.ndarray
    delta: np.ndarray
    epsilon: np.ndarray

    @property
    def client_count(self) -> int:
        """Number of clients (rows of ``zeta``)."""
        return int(self.zeta.shape[0])

    @property
    def candidate_count(self) -> int:
        """Number of candidates (rows of ``delta``/``epsilon``)."""
        return int(self.delta.shape[0])

    def candidate_rows(self, hubs: Iterable[NodeId]) -> np.ndarray:
        """Matrix rows of ``hubs``, sorted into candidate order.

        Candidate order is the scalar reference's iteration order everywhere
        (assignment tie-breaks, synchronization-part accumulation), so every
        vectorized kernel consumes hub index arrays produced here.
        """
        rows = sorted(self.candidate_index[hub] for hub in hubs)
        return np.asarray(rows, dtype=np.intp)


@dataclass
class PlacementCostModel:
    """Cost matrices of the placement problem.

    The nested-dict matrices are the scalar representation; the vectorized
    kernels mirror them once into :class:`CostArrays` via :meth:`as_arrays`.
    Cost models are treated as immutable after construction -- mutating the
    dicts after the arrays were built would desynchronize the two
    representations.

    Attributes:
        clients: Ordered client node ids (``V_CLI``).
        candidates: Ordered candidate smooth-node ids (``V_SNC``).
        zeta: ``zeta[m][n]`` management cost for client ``m``, candidate ``n``.
        delta: ``delta[n][l]`` per-client synchronization cost between candidates.
        epsilon: ``epsilon[n][l]`` constant synchronization cost between candidates.
    """

    clients: List[NodeId]
    candidates: List[NodeId]
    zeta: Dict[NodeId, Dict[NodeId, float]]
    delta: Dict[NodeId, Dict[NodeId, float]]
    epsilon: Dict[NodeId, Dict[NodeId, float]]
    _arrays: Optional[CostArrays] = field(
        default=None, init=False, repr=False, compare=False
    )

    def as_arrays(self) -> CostArrays:
        """The dense index-mapped mirror of the matrices (built once, cached)."""
        if self._arrays is None:
            client_index = {client: i for i, client in enumerate(self.clients)}
            candidate_index = {cand: j for j, cand in enumerate(self.candidates)}
            zeta = np.array(
                [[self.zeta[m][n] for n in self.candidates] for m in self.clients],
                dtype=float,
            ).reshape(len(self.clients), len(self.candidates))
            delta = np.array(
                [[self.delta[n][l] for l in self.candidates] for n in self.candidates],
                dtype=float,
            ).reshape(len(self.candidates), len(self.candidates))
            epsilon = np.array(
                [[self.epsilon[n][l] for l in self.candidates] for n in self.candidates],
                dtype=float,
            ).reshape(len(self.candidates), len(self.candidates))
            self._arrays = CostArrays(
                clients=tuple(self.clients),
                candidates=tuple(self.candidates),
                client_index=client_index,
                candidate_index=candidate_index,
                zeta=zeta,
                delta=delta,
                epsilon=epsilon,
            )
        return self._arrays

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError("the placement problem needs at least one candidate")
        for client in self.clients:
            row = self.zeta.get(client)
            if row is None or any(candidate not in row for candidate in self.candidates):
                raise ValueError(f"zeta is missing entries for client {client!r}")
        for n in self.candidates:
            for matrix_name, matrix in (("delta", self.delta), ("epsilon", self.epsilon)):
                row = matrix.get(n)
                if row is None or any(l not in row for l in self.candidates):
                    raise ValueError(f"{matrix_name} is missing entries for candidate {n!r}")

    # ------------------------------------------------------------------ #
    # cost evaluation (equations 3-5)
    # ------------------------------------------------------------------ #
    def management_cost(self, assignment: Mapping[NodeId, NodeId]) -> float:
        """``C_M(y)``: total client-to-hub management cost for an assignment."""
        total = 0.0
        for client, hub in assignment.items():
            total += self.zeta[client][hub]
        return total

    def synchronization_cost(
        self,
        hubs: Iterable[NodeId],
        assignment: Mapping[NodeId, NodeId],
    ) -> float:
        """``C_S(x, y)``: total hub-to-hub synchronization cost.

        Following equation (4), every ordered pair of placed hubs ``(n, l)``
        contributes ``delta[n][l] * |clients assigned to n| + epsilon[n][l]``.
        """
        hub_list = list(hubs)
        clients_per_hub: Dict[NodeId, int] = {hub: 0 for hub in hub_list}
        for hub in assignment.values():
            if hub in clients_per_hub:
                clients_per_hub[hub] += 1
        total = 0.0
        for n in hub_list:
            for l in hub_list:
                total += self.delta[n][l] * clients_per_hub[n] + self.epsilon[n][l]
        return total

    def balance_cost(
        self,
        hubs: Iterable[NodeId],
        assignment: Mapping[NodeId, NodeId],
        omega: float,
    ) -> float:
        """``C_B = C_M + omega * C_S`` (equation 5)."""
        return self.management_cost(assignment) + omega * self.synchronization_cost(hubs, assignment)

    def assignment_cost(self, client: NodeId, hub: NodeId, hubs: Sequence[NodeId], omega: float) -> float:
        """Marginal cost of assigning ``client`` to ``hub`` given placed ``hubs``.

        This is the quantity minimized in Lemma 1:
        ``omega * sum_l delta[hub][l] + zeta[client][hub]``.
        """
        return omega * sum(self.delta[hub][l] for l in hubs) + self.zeta[client][hub]

    def has_uniform_delta(self, tolerance: float = 1e-9) -> bool:
        """Whether all off-diagonal delta entries are equal (Lemma 2's condition)."""
        values = [
            self.delta[n][l]
            for n in self.candidates
            for l in self.candidates
            if n != l
        ]
        if not values:
            return True
        return max(values) - min(values) <= tolerance


def cost_model_from_network(
    network: PCNetwork,
    clients: Optional[Sequence[NodeId]] = None,
    candidates: Optional[Sequence[NodeId]] = None,
    zeta_per_hop: float = PAPER_ZETA_PER_HOP,
    delta_per_hop: float = PAPER_DELTA_PER_HOP,
    epsilon_per_hop: float = PAPER_EPSILON_PER_HOP,
    uniform_delta: bool = False,
    hops: Optional[Dict[NodeId, Dict[NodeId, int]]] = None,
) -> PlacementCostModel:
    """Probe hop-count based costs from a PCN, as the candidates do in the paper.

    Args:
        network: The PCN to probe.
        clients: Client set; defaults to the network's client-role nodes.
        candidates: Candidate set; defaults to the network's candidate/hub nodes.
        zeta_per_hop: Management cost per communication hop.
        delta_per_hop: Per-client synchronization cost per hop.
        epsilon_per_hop: Constant synchronization cost per hop.
        uniform_delta: Replace the hop-based delta with its mean value, which
            makes the objective provably supermodular (Lemma 2's uniform-cost
            case) -- used by the large-scale approximation experiments.
        hops: Pre-probed per-candidate hop-count dicts (e.g. from the
            figure-9 pipeline's persistent :class:`HopMatrixStore`); must
            cover every candidate.  ``None`` probes the network with one
            batched ``scipy.sparse.csgraph`` sweep over all candidates.
    """
    client_list = list(clients) if clients is not None else network.clients()
    candidate_list = list(candidates) if candidates is not None else network.candidates()
    if not candidate_list:
        raise ValueError("the network has no candidate smooth nodes")

    if hops is not None:
        hop_from_candidate = {candidate: hops[candidate] for candidate in candidate_list}
    else:
        from repro.topology.path_store import hop_dicts_from_rows

        node_order, matrix = network.hop_count_rows(candidate_list)
        hop_from_candidate = hop_dicts_from_rows(node_order, candidate_list, matrix)
    fallback_hops = max(network.node_count(), 2)

    zeta: Dict[NodeId, Dict[NodeId, float]] = {}
    for client in client_list:
        zeta[client] = {}
        for candidate in candidate_list:
            hops = hop_from_candidate[candidate].get(client, fallback_hops)
            zeta[client][candidate] = zeta_per_hop * hops

    delta: Dict[NodeId, Dict[NodeId, float]] = {}
    epsilon: Dict[NodeId, Dict[NodeId, float]] = {}
    for n in candidate_list:
        delta[n] = {}
        epsilon[n] = {}
        for l in candidate_list:
            hops = 0 if n == l else hop_from_candidate[n].get(l, fallback_hops)
            delta[n][l] = delta_per_hop * hops
            epsilon[n][l] = epsilon_per_hop * hops

    model = PlacementCostModel(client_list, candidate_list, zeta, delta, epsilon)
    if uniform_delta:
        model = uniformize_delta(model)
    return model


def uniformize_delta(model: PlacementCostModel) -> PlacementCostModel:
    """Replace off-diagonal delta entries by their mean (Lemma 2's uniform case)."""
    off_diagonal = [
        model.delta[n][l]
        for n in model.candidates
        for l in model.candidates
        if n != l
    ]
    mean_delta = sum(off_diagonal) / len(off_diagonal) if off_diagonal else 0.0
    delta = {
        n: {l: (0.0 if n == l else mean_delta) for l in model.candidates}
        for n in model.candidates
    }
    return PlacementCostModel(
        clients=list(model.clients),
        candidates=list(model.candidates),
        zeta={m: dict(row) for m, row in model.zeta.items()},
        delta=delta,
        epsilon={n: dict(row) for n, row in model.epsilon.items()},
    )
