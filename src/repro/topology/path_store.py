"""Per-source hop-count dicts from the batched distance-matrix probe.

The one helper left of the persistent path / hop stores, which were measured
on all four benchmark workloads and deleted (see ``docs/architecture.md``,
"What caches what").  It keeps this module name because ``bench/layers.py``
imports it from here.
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence

import numpy as np


def hop_dicts_from_rows(
    node_order: Sequence[Hashable],
    sources: Sequence[Hashable],
    matrix,
) -> Dict[Hashable, Dict[Hashable, int]]:
    """Per-source hop-count dicts from a batched distance-matrix probe.

    Rows follow ``sources``; ``inf`` entries (unreachable nodes) are
    dropped, matching :meth:`PCNetwork.hop_counts_from`'s reachable-only
    contract.
    """
    matrix = np.asarray(matrix)
    hops: Dict[Hashable, Dict[Hashable, int]] = {}
    for row_index, source in enumerate(sources):
        distances = matrix[row_index]
        reachable = np.nonzero(np.isfinite(distances))[0]
        hops[source] = {
            node_order[int(column)]: int(distances[column]) for column in reachable
        }
    return hops
