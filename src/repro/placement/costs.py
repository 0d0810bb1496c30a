"""Cost model for the PCH placement problem.

The paper defines three edge-wise cost parameters, all probed from the
network during the previous long period:

* ``zeta[m][n]``   -- management cost of assigning client ``m`` to smooth
  node ``n`` (paper setting: ``0.02 * hops(m, n)``),
* ``delta[n][l]``  -- per-client synchronization cost between smooth nodes
  ``n`` and ``l`` (paper setting: ``0.01 * hops(n, l)``),
* ``epsilon[n][l]`` -- constant synchronization cost between smooth nodes
  (paper setting: ``0.05 * hops(n, l)``).

:class:`PlacementCostModel` holds them as dense :class:`CostArrays` (built
straight from the batched hop probe, never through per-cell dicts) and
exposes the balance cost ``C_B = C_M + omega * C_S`` of equations (3)-(5).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
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


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum of ``values`` in row-major order.

    ``np.cumsum`` accumulates sequentially, so this is the nested-dict
    ``total += x`` loop of :mod:`repro.reference.placement` bit for bit
    (``ndarray.sum`` is pairwise and is not).
    """
    flat = np.ravel(values)
    return float(np.cumsum(flat)[-1]) if flat.size else 0.0


@dataclass(frozen=True)
class CostArrays:
    """The index-mapped dense cost matrices -- the cost model's representation.

    Clients and candidates are addressed by row index instead of node id.
    Indices follow the model's ordering, so ``argmin`` tie-breaks reproduce
    the scalar reference's first-in-candidate-order behaviour exactly.  The
    matrices are frozen (``writeable=False``): a cost model is immutable.

    Attributes:
        clients: Client ids in index order (row ``i`` of ``zeta``).
        candidates: Candidate ids in index order (column/row order of all
            three matrices).
        zeta: ``(M, Z)`` management-cost matrix.
        delta: ``(Z, Z)`` per-client synchronization-cost matrix.
        epsilon: ``(Z, Z)`` constant synchronization-cost matrix.
        client_index: ``client id -> zeta row``.
        candidate_index: ``candidate id -> matrix row/column``.
        zeta_t: C-contiguous ``(Z, M)`` transpose of ``zeta``: the probe
            kernel gathers one contiguous row per hub.
    """

    clients: Sequence[NodeId]
    candidates: Sequence[NodeId]
    zeta: np.ndarray
    delta: np.ndarray
    epsilon: np.ndarray
    client_index: Mapping[NodeId, int] = field(init=False, repr=False, compare=False)
    candidate_index: Mapping[NodeId, int] = field(init=False, repr=False, compare=False)
    zeta_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = (len(self.clients), len(self.candidates))
        if not self.candidates:
            raise ValueError("the placement problem needs at least one candidate")
        shapes = (self.zeta.shape, self.delta.shape, self.epsilon.shape)
        if shapes != (shape, shape[1:] * 2, shape[1:] * 2):
            raise ValueError(f"cost matrices {shapes} do not fit {shape} clients x candidates")
        derive = object.__setattr__
        derive(self, "client_index", {client: i for i, client in enumerate(self.clients)})
        derive(self, "candidate_index", {cand: j for j, cand in enumerate(self.candidates)})
        derive(self, "zeta_t", np.ascontiguousarray(self.zeta.T))
        for matrix in (self.zeta, self.delta, self.epsilon, self.zeta_t):
            matrix.flags.writeable = False

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

    def synchronization(self, hub_rows: Sequence[int], loads: np.ndarray) -> float:
        """``C_S`` of equation (4) for placed rows and their client counts.

        Every ordered pair of placed hubs ``(n, l)`` contributes
        ``delta[n][l] * loads[n] + epsilon[n][l]``, summed row-major.
        """
        pairs = np.ix_(hub_rows, hub_rows)
        return sequential_sum(self.delta[pairs] * loads[:, None] + self.epsilon[pairs])

    def off_diagonal_delta(self) -> np.ndarray:
        """The ``delta[n][l]``, ``n != l`` entries in row-major order."""
        return self.delta[~np.eye(self.candidate_count, dtype=bool)]


def _dense(name: str, kind: str, matrix, rows: Sequence, columns: Sequence) -> np.ndarray:
    """A matrix as a dense array; a nested dict's missing entry names its row."""
    if isinstance(matrix, np.ndarray):
        return matrix
    dense = np.empty((len(rows), len(columns)))
    for i, row in enumerate(rows):
        try:
            dense[i] = [matrix[row][column] for column in columns]
        except KeyError:
            raise ValueError(f"{name} is missing entries for {kind} {row!r}") from None
    return dense


class PlacementCostModel:
    """Cost matrices of the placement problem (equations 3-5).

    :class:`CostArrays` is the representation: every evaluation below and
    every scalable solver reads the arrays, in the accumulation order of the
    nested-dict arithmetic they replaced.  ``zeta`` / ``delta`` / ``epsilon``
    are read-only nested-dict *views*, materialised on first access; only the
    exact small-scale solvers and :mod:`repro.reference.placement` touch them.
    The constructor takes each matrix dense (``(M, Z)`` / ``(Z, Z)``, shape
    checked) or as a nested dict (every entry must be present).

    Attributes:
        clients: Ordered client node ids (``V_CLI``).
        candidates: Ordered candidate smooth-node ids (``V_SNC``).
        zeta: ``zeta[m][n]`` management cost for client ``m``, candidate ``n``.
        delta: ``delta[n][l]`` per-client synchronization cost between candidates.
        epsilon: ``epsilon[n][l]`` constant synchronization cost between candidates.
    """

    def __init__(
        self, clients: Sequence[NodeId], candidates: Sequence[NodeId], zeta, delta, epsilon
    ) -> None:
        self.clients: List[NodeId] = list(clients)
        self.candidates: List[NodeId] = list(candidates)
        self._arrays = CostArrays(
            tuple(clients),
            tuple(candidates),
            _dense("zeta", "client", zeta, self.clients, self.candidates),
            _dense("delta", "candidate", delta, self.candidates, self.candidates),
            _dense("epsilon", "candidate", epsilon, self.candidates, self.candidates),
        )
        self._views: Dict[str, Mapping[NodeId, Mapping[NodeId, float]]] = {}

    def as_arrays(self) -> CostArrays:
        """The dense index-mapped matrices."""
        return self._arrays

    def _view(self, name: str) -> Mapping[NodeId, Mapping[NodeId, float]]:
        """The read-only nested-dict view of one matrix, built on first use."""
        view = self._views.get(name)
        if view is None:
            rows = self.clients if name == "zeta" else self.candidates
            view = self._views[name] = MappingProxyType(
                {
                    row: MappingProxyType(dict(zip(self.candidates, values)))
                    for row, values in zip(rows, getattr(self._arrays, name).tolist())
                }
            )
        return view

    zeta = property(lambda self: self._view("zeta"))
    delta = property(lambda self: self._view("delta"))
    epsilon = property(lambda self: self._view("epsilon"))

    # ------------------------------------------------------------------ #
    # cost evaluation (equations 3-5)
    # ------------------------------------------------------------------ #
    def management_cost(self, assignment: Mapping[NodeId, NodeId]) -> float:
        """``C_M(y)``: total client-to-hub management cost for an assignment."""
        arrays = self._arrays
        rows = [arrays.client_index[client] for client in assignment]
        columns = [arrays.candidate_index[hub] for hub in assignment.values()]
        return sequential_sum(arrays.zeta[rows, columns])

    def synchronization_cost(
        self,
        hubs: Iterable[NodeId],
        assignment: Mapping[NodeId, NodeId],
    ) -> float:
        """``C_S(x, y)``: total hub-to-hub synchronization cost (equation 4)."""
        arrays = self._arrays
        hub_list = list(hubs)
        loads = Counter(assignment.values())
        clients_per_hub = np.array([loads[hub] for hub in hub_list], dtype=float)
        rows = [arrays.candidate_index[hub] for hub in hub_list]
        return arrays.synchronization(rows, clients_per_hub)

    def balance_cost(
        self,
        hubs: Iterable[NodeId],
        assignment: Mapping[NodeId, NodeId],
        omega: float,
    ) -> float:
        """``C_B = C_M + omega * C_S`` (equation 5)."""
        return self.management_cost(assignment) + omega * self.synchronization_cost(hubs, assignment)

    def has_uniform_delta(self, tolerance: float = 1e-9) -> bool:
        """Whether all off-diagonal delta entries are equal (Lemma 2's condition)."""
        values = self._arrays.off_diagonal_delta()
        return not values.size or float(values.max() - values.min()) <= tolerance


def cost_model_from_network(
    network: PCNetwork,
    clients: Optional[Sequence[NodeId]] = None,
    candidates: Optional[Sequence[NodeId]] = None,
    zeta_per_hop: float = PAPER_ZETA_PER_HOP,
    delta_per_hop: float = PAPER_DELTA_PER_HOP,
    epsilon_per_hop: float = PAPER_EPSILON_PER_HOP,
    uniform_delta: bool = False,
    hops=None,
) -> PlacementCostModel:
    """Probe hop-count based costs from a PCN, as the candidates do in the paper.

    The one network -> cost-model builder: each cost is the elementwise
    ``coefficient * hops`` product of the paper's setting over the probe's
    hop matrix, with unreachable or unknown pairs charged
    ``max(node count, 2)`` hops and a zero candidate-to-itself distance.

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
        hops: A pre-made probe covering every candidate: the ``(node order,
            sources, matrix)`` rows of :meth:`PCNetwork.hop_count_rows` (``inf``
            where unreachable) or per-candidate reachable-only hop-count
            dicts (the oracle's BFS probe).  ``None`` probes the network with
            one batched ``scipy.sparse.csgraph`` sweep over all candidates.
    """
    client_list = list(clients) if clients is not None else network.clients()
    candidate_list = list(candidates) if candidates is not None else network.candidates()
    if not candidate_list:
        raise ValueError("the network has no candidate smooth nodes")

    if hops is None:
        sources = candidate_list
        node_order, matrix = network.hop_count_rows(sources)
    elif isinstance(hops, Mapping):
        # Densify only the columns read below.
        sources, node_order = candidate_list, client_list + candidate_list
        matrix = [[hops[source].get(node, np.inf) for node in node_order] for source in sources]
    else:
        node_order, sources, matrix = hops
    source_row = {source: row for row, source in enumerate(sources)}
    column = {node: j for j, node in enumerate(node_order)}
    rows = np.asarray(matrix, dtype=float)[[source_row[candidate] for candidate in candidate_list]]
    # One extra all-inf column stands in for nodes the probe never saw.
    rows = np.column_stack([rows, np.full(len(candidate_list), np.inf)])
    fallback_hops = float(max(network.node_count(), 2))

    def hops_to(nodes: Sequence[NodeId]) -> np.ndarray:
        block = rows[:, [column.get(node, -1) for node in nodes]]
        return np.where(np.isfinite(block), block, fallback_hops)

    between = hops_to(candidate_list)
    np.fill_diagonal(between, 0.0)
    model = PlacementCostModel(
        client_list,
        candidate_list,
        (zeta_per_hop * hops_to(client_list)).T,
        delta_per_hop * between,
        epsilon_per_hop * between,
    )
    return uniformize_delta(model) if uniform_delta else model


def uniformize_delta(model: PlacementCostModel) -> PlacementCostModel:
    """Replace off-diagonal delta entries by their mean (Lemma 2's uniform case)."""
    arrays = model.as_arrays()
    off_diagonal = arrays.off_diagonal_delta()
    mean_delta = sequential_sum(off_diagonal) / off_diagonal.size if off_diagonal.size else 0.0
    delta = np.full_like(arrays.delta, mean_delta)
    np.fill_diagonal(delta, 0.0)
    return PlacementCostModel(arrays.clients, arrays.candidates, arrays.zeta, delta, arrays.epsilon)
