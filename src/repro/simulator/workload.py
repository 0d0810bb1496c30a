"""Transaction workload generation.

The paper's evaluation draws transaction values from a credit-card-shaped
heavy-tailed distribution and sender/recipient pairs from a directional
distribution derived from a Lightning Network dataset, explicitly arranged
so that (i) some circulations are imbalanced enough to cause local
deadlocks, and (ii) some transactions are larger than typical channel
capacity.  :func:`generate_workload` reproduces those properties with:

* Poisson payment arrivals at a configurable rate,
* heavy-tailed values (see
  :class:`~repro.topology.datasets.TransactionValueDistribution`),
* skewed sender/recipient popularity (Zipf-like), which creates sustained
  net flows into popular recipients -- the imbalance that drains channels
  and deadlocks schemes without balance-aware routing,
* an optional explicit *deadlock motif*: a fraction of demand arranged as
  the three-node pattern of figure 1(b)/(c).

Both workload shapes -- the generated :class:`TransactionWorkload` and the
chunk-streamed :class:`StreamingWorkload` of trace replays -- hand their
requests to the experiment runner through ``iter_chunks()``, in arrival
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.topology.datasets import TransactionValueDistribution
from repro.topology.network import PCNetwork

NodeId = Hashable


@dataclass(frozen=True)
class TransactionRequest:
    """One generated payment demand."""

    arrival_time: float
    sender: NodeId
    recipient: NodeId
    value: float


@dataclass
class WorkloadConfig:
    """Parameters of the workload generator.

    Attributes:
        duration: Length of the arrival process in seconds.
        arrival_rate: Mean payment arrivals per second (Poisson).
        value_distribution: Sampler for payment values.
        value_scale: Extra multiplier on sampled values (transaction-size sweeps).
        sender_skew: Zipf exponent for sender popularity (0 = uniform).
        recipient_skew: Zipf exponent for recipient popularity; higher values
            concentrate incoming funds on a few nodes and create imbalance.
        deadlock_fraction: Fraction of arrivals drawn from explicit
            three-node deadlock motifs instead of the popularity model.
        min_value: Floor on any generated value.
        seed: RNG seed.  Defaults to 0 so that two runs with the same
            configuration always draw the same workload; seeding from
            entropy/wall clock is opt-in via ``seed=None``.
    """

    duration: float = 60.0
    arrival_rate: float = 20.0
    value_distribution: TransactionValueDistribution = field(
        default_factory=lambda: TransactionValueDistribution(mean_value=8.0, tail_fraction=0.05, tail_start=40.0)
    )
    value_scale: float = 1.0
    sender_skew: float = 0.6
    recipient_skew: float = 1.0
    deadlock_fraction: float = 0.15
    min_value: float = 1.0
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if not 0.0 <= self.deadlock_fraction <= 1.0:
            raise ValueError("deadlock_fraction must be in [0, 1]")


@dataclass
class TransactionWorkload:
    """A generated workload: the request list plus summary statistics."""

    requests: List[TransactionRequest]
    config: WorkloadConfig
    deadlock_motifs: List[Tuple[NodeId, NodeId, NodeId]] = field(default_factory=list)

    @property
    def total_value(self) -> float:
        """Sum of all generated payment values."""
        return sum(request.value for request in self.requests)

    @property
    def count(self) -> int:
        """Number of generated payments."""
        return len(self.requests)

    def _sorted_arrivals(self) -> List[TransactionRequest]:
        """The requests in stable ``(arrival_time, index)`` order (cached).

        That order is exactly what a ``(time, sequence)`` event heap loaded
        with one event per request, in list order, would deliver.  The cache
        is invalidated when the request list is replaced or its length
        changes; in-place replacement of individual entries is not supported.
        """
        cached = self.__dict__.get("_arrival_cache")
        if (
            cached is not None
            and cached[0] is self.requests
            and cached[1] == len(self.requests)
        ):
            return cached[2]
        ordered = sorted(
            range(len(self.requests)), key=lambda i: (self.requests[i].arrival_time, i)
        )
        ordered_requests = [self.requests[i] for i in ordered]
        self.__dict__["_arrival_cache"] = (self.requests, len(self.requests), ordered_requests)
        return ordered_requests

    def iter_chunks(self) -> Iterator[List[TransactionRequest]]:
        """The whole workload as one time-ordered chunk.

        Same contract as :meth:`StreamingWorkload.iter_chunks`, so the
        experiment runner drains generated and streamed workloads through
        one cursor.
        """
        yield self._sorted_arrivals()


def _zipf_weights(count: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf-like popularity weights over a random permutation of the nodes."""
    ranks = np.arange(1, count + 1, dtype=float)
    weights = ranks ** (-exponent) if exponent > 0 else np.ones(count)
    rng.shuffle(weights)
    return weights / weights.sum()


def _find_deadlock_motifs(
    network: PCNetwork,
    rng: np.random.Generator,
    max_motifs: int = 10,
) -> List[Tuple[NodeId, NodeId, NodeId]]:
    """Find (A, C, B) triples where A-C and C-B are channels but A-B is not.

    Reproduces the local-deadlock example of figure 1: sustained flows
    A -> B (via C) and C -> B, with B -> A returning funds, drain C's side of
    the C-B channel when routing ignores balance.
    """
    nodes = list(network.nodes())
    rng.shuffle(nodes)
    motifs: List[Tuple[NodeId, NodeId, NodeId]] = []
    for relay in nodes:
        neighbors = network.neighbors(relay)
        if len(neighbors) < 2:
            continue
        rng.shuffle(neighbors)
        for i in range(len(neighbors) - 1):
            for j in range(i + 1, len(neighbors)):
                a, b = neighbors[i], neighbors[j]
                if a == b or network.has_channel(a, b):
                    continue  # a triangle is not the figure-1 motif
                motifs.append((a, relay, b))
                break
            else:
                continue
            break
        if len(motifs) >= max_motifs:
            break
    return motifs


#: Exponential draws per chunk of the vectorized arrival loop.
_ARRIVAL_CHUNK = 1024


def _weighted_choice_cdf(weights: np.ndarray) -> np.ndarray:
    """The cumulative distribution ``Generator.choice(p=...)`` samples against.

    Replicates choice's internal arithmetic term for term (cumsum, then
    normalization by the last entry) so ``cdf.searchsorted(u, "right")``
    over batched uniforms selects bit-identically to per-element
    ``rng.choice(n, p=weights)`` calls on the same stream.
    """
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf


def _arrival_times(times_rng: np.random.Generator, config: WorkloadConfig) -> List[float]:
    """Poisson arrival times as chunked cumulative sums of exponential gaps.

    ``cumsum`` accumulates left to right exactly like a scalar running
    sum once the previous chunk's last time is folded into the chunk's
    first gap; extra draws past the crossing are discarded, which is safe
    because the arrival stream owns its dedicated child generator.
    """
    times: List[float] = []
    scale = 1.0 / config.arrival_rate
    offset = 0.0
    while True:
        gaps = times_rng.exponential(scale, size=_ARRIVAL_CHUNK)
        gaps[0] += offset
        cumulative = np.cumsum(gaps)
        crossed = np.nonzero(cumulative > config.duration)[0]
        if crossed.size:
            times.extend(cumulative[: int(crossed[0])].tolist())
            return times
        times.extend(cumulative.tolist())
        offset = float(cumulative[-1])


def _workload_inputs(
    network: PCNetwork,
    config: WorkloadConfig,
    senders: Optional[Sequence[NodeId]],
    recipients: Optional[Sequence[NodeId]],
):
    """Pools, popularity weights, deadlock motifs and the per-phase generators.

    Everything :func:`generate_workload` draws before its phases start, in
    root-generator order; the six child generators (``rng.spawn``) are one
    per phase: arrival times, values, motif mix, motif index, motif pattern,
    popularity pairs.
    """
    rng = np.random.default_rng(config.seed)
    population = network.clients() or network.nodes()
    sender_pool = list(senders) if senders is not None else list(population)
    recipient_pool = list(recipients) if recipients is not None else list(population)
    if len(sender_pool) < 2 or len(recipient_pool) < 2:
        raise ValueError("the workload needs at least two senders and two recipients")
    sender_weights = _zipf_weights(len(sender_pool), config.sender_skew, rng)
    recipient_weights = _zipf_weights(len(recipient_pool), config.recipient_skew, rng)
    motifs = _find_deadlock_motifs(network, rng) if config.deadlock_fraction > 0 else []
    return sender_pool, recipient_pool, sender_weights, recipient_weights, motifs, rng.spawn(6)


def _motif_pairs(motifs, indices, patterns) -> List[Tuple[NodeId, NodeId]]:
    """Sender/recipient of each motif arrival (figure 1's A and C push towards
    B, B returns to A, so C's outgoing funds drain unless routing keeps
    channels balanced)."""
    pairs: List[Tuple[NodeId, NodeId]] = []
    for index, pattern in zip(indices, patterns):
        a, relay, b = motifs[int(index)]
        if pattern < 0.4:
            pairs.append((a, b))
        elif pattern < 0.8:
            pairs.append((relay, b))
        else:
            pairs.append((b, a))
    return pairs


def _assemble_workload(
    config, motifs, times, values, motif_mask, motif_pairs, model_pairs
) -> TransactionWorkload:
    """Interleave motif and popularity pairs by the mask; self-pairs are
    dropped (their draws stay consumed)."""
    requests: List[TransactionRequest] = []
    motif_iter, model_iter = iter(motif_pairs), iter(model_pairs)
    for time, value, from_motif in zip(times, values, motif_mask):
        sender, recipient = next(motif_iter if from_motif else model_iter)
        if sender != recipient:
            requests.append(
                TransactionRequest(
                    arrival_time=time, sender=sender, recipient=recipient, value=value
                )
            )
    return TransactionWorkload(requests=requests, config=config, deadlock_motifs=motifs)


def generate_workload(
    network: PCNetwork,
    config: Optional[WorkloadConfig] = None,
    senders: Optional[Sequence[NodeId]] = None,
    recipients: Optional[Sequence[NodeId]] = None,
) -> TransactionWorkload:
    """Generate a Poisson transaction workload over a network's clients.

    The generator is phased -- arrival times, values, motif mixing, pair
    selection -- with each phase drawing from its own child generator
    (``rng.spawn``), so every phase is one batched draw that yields the
    values the per-element loop of :mod:`repro.reference.workload` draws
    from the same stream (bit-identical request streams, pinned by
    ``tests/simulator/test_workload.py``).

    Args:
        network: Topology whose client nodes send and receive payments.
        config: Workload parameters (defaults to :class:`WorkloadConfig`).
        senders: Restrict the sending population (defaults to all clients, or
            all nodes when the network has no client-role nodes).
        recipients: Restrict the receiving population (same default).
    """
    config = config or WorkloadConfig()
    sender_pool, recipient_pool, sender_weights, recipient_weights, motifs, streams = (
        _workload_inputs(network, config, senders, recipients)
    )
    times_rng, value_rng, mix_rng, motif_rng, pattern_rng, pair_rng = streams

    # Phase 1: Poisson arrival times.
    times = _arrival_times(times_rng, config)
    count = len(times)
    if count == 0:
        return TransactionWorkload(requests=[], config=config, deadlock_motifs=motifs)

    # Phase 2: payment values.
    raw_values = config.value_distribution.sample(value_rng, size=count)
    values = np.maximum(raw_values * config.value_scale, config.min_value).tolist()

    # Phase 3: which arrivals draw from the explicit deadlock motifs.
    if motifs:
        motif_mask = (mix_rng.random(count) < config.deadlock_fraction).tolist()
    else:
        motif_mask = [False] * count
    motif_count = sum(motif_mask)
    pair_count = count - motif_count

    # Phase 4a: motif pairs.
    motif_pairs: List[Tuple[NodeId, NodeId]] = []
    if motif_count:
        motif_pairs = _motif_pairs(
            motifs,
            motif_rng.integers(len(motifs), size=motif_count),
            pattern_rng.random(motif_count),
        )

    # Phase 4b: popularity-model pairs.  Replicates Generator.choice's
    # cdf-searchsorted arithmetic over a (count, 2) uniform block, whose
    # row-major fill order matches interleaved per-element sender/recipient
    # ``choice`` draws from the same stream.
    model_pairs: List[Tuple[NodeId, NodeId]] = []
    if pair_count:
        uniforms = pair_rng.random((pair_count, 2))
        sender_rows = _weighted_choice_cdf(sender_weights).searchsorted(
            uniforms[:, 0], side="right"
        )
        recipient_rows = _weighted_choice_cdf(recipient_weights).searchsorted(
            uniforms[:, 1], side="right"
        )
        model_pairs = [
            (sender_pool[int(s)], recipient_pool[int(r)])
            for s, r in zip(sender_rows, recipient_rows)
        ]

    return _assemble_workload(
        config, motifs, times, values, motif_mask, motif_pairs, model_pairs
    )


@dataclass
class StreamingWorkload:
    """A workload delivered in chunks instead of one materialized list.

    Trace replays (see :mod:`repro.data.ripple`) can be far larger than
    anything worth holding as Python objects; this wrapper carries the
    summary statistics the experiment runner reports up front and yields
    :class:`TransactionRequest` chunks on demand, in arrival order.  The
    runner's arrival cursor holds one chunk at a time, so a replay's memory
    does not grow with the length of the trace.

    Attributes:
        config: Workload parameters (duration drives the experiment end
            time, exactly as for :class:`TransactionWorkload`).
        count: Total number of payments the stream will yield.
        total_value: Sum of all payment values in the stream.
        chunk_factory: Zero-argument callable returning a fresh iterator of
            request chunks; called once per replay so a workload can be
            replayed by multiple schemes/runs.
        deadlock_motifs: Present for interface parity with
            :class:`TransactionWorkload`; trace replays have none.
    """

    config: WorkloadConfig
    count: int
    total_value: float
    chunk_factory: Callable[[], Iterator[List[TransactionRequest]]]
    deadlock_motifs: List[Tuple[NodeId, NodeId, NodeId]] = field(default_factory=list)

    def iter_chunks(self) -> Iterator[List[TransactionRequest]]:
        """A fresh pass over the stream, yielding time-ordered chunks."""
        return self.chunk_factory()
