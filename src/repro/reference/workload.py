"""Per-element workload draws, and streams collected into one list.

:func:`generate_workload` walks the same phases over the same child
generators as :func:`repro.simulator.workload.generate_workload` but draws
one element at a time -- one exponential gap, one uniform, one
``Generator.choice`` per arrival.  ``tests/simulator/test_workload.py`` pins
the two request streams bit-identical.  :func:`materialize` turns a
:class:`~repro.simulator.workload.StreamingWorkload` into the plain request
list the per-event runner and the stream tests compare against.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence

from repro.simulator.workload import (
    StreamingWorkload,
    TransactionWorkload,
    WorkloadConfig,
    _assemble_workload,
    _motif_pairs,
    _workload_inputs,
)
from repro.topology.network import PCNetwork

NodeId = Hashable


def generate_workload(
    network: PCNetwork,
    config: Optional[WorkloadConfig] = None,
    senders: Optional[Sequence[NodeId]] = None,
    recipients: Optional[Sequence[NodeId]] = None,
) -> TransactionWorkload:
    """Generate a Poisson transaction workload, one draw per element."""
    config = config or WorkloadConfig()
    sender_pool, recipient_pool, sender_weights, recipient_weights, motifs, streams = (
        _workload_inputs(network, config, senders, recipients)
    )
    times_rng, value_rng, mix_rng, motif_rng, pattern_rng, pair_rng = streams

    # Phase 1: Poisson arrival times, one exponential gap at a time.
    times: List[float] = []
    time = 0.0
    scale = 1.0 / config.arrival_rate
    while True:
        time += float(times_rng.exponential(scale))
        if time > config.duration:
            break
        times.append(time)
    count = len(times)
    if count == 0:
        return TransactionWorkload(requests=[], config=config, deadlock_motifs=motifs)

    # Phase 2: payment values (the sampler's internal body/tail composition
    # is a single distribution call, so the draw itself is batched).
    raw_values = config.value_distribution.sample(value_rng, size=count)
    values = [
        max(float(raw_values[i]) * config.value_scale, config.min_value)
        for i in range(count)
    ]

    # Phase 3: which arrivals draw from the explicit deadlock motifs.
    if motifs:
        motif_mask = [mix_rng.random() < config.deadlock_fraction for _ in range(count)]
    else:
        motif_mask = [False] * count
    motif_count = sum(motif_mask)

    # Phase 4a: motif pairs.
    indices = [int(motif_rng.integers(len(motifs))) for _ in range(motif_count)]
    patterns = [pattern_rng.random() for _ in range(motif_count)]
    motif_pairs = _motif_pairs(motifs, indices, patterns)

    # Phase 4b: popularity-model pairs, interleaved sender/recipient draws.
    model_pairs = []
    for _ in range(count - motif_count):
        sender_row = int(pair_rng.choice(len(sender_pool), p=sender_weights))
        recipient_row = int(pair_rng.choice(len(recipient_pool), p=recipient_weights))
        model_pairs.append((sender_pool[sender_row], recipient_pool[recipient_row]))

    return _assemble_workload(
        config, motifs, times, values, motif_mask, motif_pairs, model_pairs
    )


def materialize(stream: StreamingWorkload) -> TransactionWorkload:
    """Collect a whole stream into a plain :class:`TransactionWorkload`.

    Small traces only: it defeats the point of streaming for large ones.
    """
    requests = [request for chunk in stream.iter_chunks() for request in chunk]
    return TransactionWorkload(
        requests=requests,
        config=stream.config,
        deadlock_motifs=list(stream.deadlock_motifs),
    )
