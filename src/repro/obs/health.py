"""Per-epoch network health telemetry recorded as NPZ time series.

The experiment runner probes the live network on a fixed interval while a
scheme runs (see ``ExperimentRunner.run_single``).  Each probe appends one
sample per metric to the scheme's series; :meth:`HealthRecorder.save` writes
every series into one ``.npz`` whose keys are ``"<scheme>|<metric>"``.

Probes are strictly read-only with respect to routing decisions: they read
the network's balance store (which every scheme writes directly, so there
is nothing to flush first), they mutate nothing, and the deadlock-motif
search uses its own derived RNG -- so enabling telemetry
leaves every scheme's results bit-identical (asserted by the no-op
equivalence tests).

Metrics per probe:

* ``time`` -- simulation time of the probe,
* ``gini`` -- Gini coefficient over all per-side channel balances (the
  run-wide balance-skew summary),
* ``imbalance_mean`` -- mean per-channel imbalance fraction
  ``|b_a - b_b| / capacity``,
* ``locked_total`` -- funds currently locked in flight across all channels,
* ``saturation_hist`` -- histogram of per-channel imbalance over
  :data:`SATURATION_BINS` (a channel at 1.0 is fully one-sided -- the
  Figure-1 deadlock precondition),
* ``motifs_found`` / ``motifs_drained`` -- deadlock motifs present in the
  topology (via the workload generator's motif finder) and how many of them
  currently have their relay-side balance below
  :data:`DRAINED_FRACTION` of the channel capacity,
* ``batch_count`` / ``batch_mean`` -- arrival batches drained since the
  previous probe and their mean size.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "DRAINED_FRACTION",
    "HEALTH_SCHEMA_VERSION",
    "SATURATION_BINS",
    "HealthRecorder",
    "gini",
    "load_health",
]

#: Stamped into every NPZ under the ``__schema_version__`` key.
HEALTH_SCHEMA_VERSION = 1

#: Imbalance-fraction bin edges of the channel-saturation histogram.
SATURATION_BINS = np.linspace(0.0, 1.0, 11)

#: A motif relay side below this fraction of channel capacity counts as drained.
DRAINED_FRACTION = 0.1


def gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, -> 1 = skewed)."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    total = float(x.sum())
    if n == 0 or total <= 0.0:
        return 0.0
    ranks = np.arange(1, n + 1, dtype=float)
    return float((2.0 * np.dot(ranks, x) / (n * total)) - (n + 1.0) / n)


class HealthRecorder:
    """Accumulates per-scheme health time series and saves them as one NPZ."""

    def __init__(
        self,
        path: Optional[str] = None,
        interval: float = 1.0,
        seed: int = 0,
        max_motifs: int = 10,
    ) -> None:
        if interval <= 0:
            raise ValueError("health interval must be positive")
        self.path = path
        self.interval = float(interval)
        self.seed = int(seed)
        self.max_motifs = int(max_motifs)
        #: scheme -> metric -> list of per-probe samples.
        self._series: Dict[str, Dict[str, List[object]]] = {}
        #: scheme -> batch sizes drained since that scheme's last probe.
        self._batches: Dict[str, List[int]] = {}
        self._probe_index = 0

    # ------------------------------------------------------------------ #
    # feeding
    # ------------------------------------------------------------------ #
    def note_batch(self, scheme: str, size: int) -> None:
        """One arrival batch was drained for ``scheme``."""
        self._batches.setdefault(scheme, []).append(int(size))

    def observe(self, scheme: str, network: object, t: float) -> None:
        """Take one probe of the live network for ``scheme`` at time ``t``.

        Needs no cooperation from the scheme: its balances are the store's.
        """
        # Imported lazily: obs must stay importable below the topology layer.
        from repro.topology.channel import EPS

        # Both sides of every channel from the network's flat store, in slot
        # order (a view: used inside this call only); channels are walked one
        # by one only for their locks, and only while any lock is open.
        store = network.balance_store  # type: ignore[attr-defined]
        sides = store.as_array()
        side_a, side_b = sides[0::2], sides[1::2]
        locked = (
            [channel.locked_total() for channel in store.channels]
            if store.open_locks
            else [0.0] * len(store.channels)
        )
        capacity = side_a + side_b + locked
        imbalance_array = np.zeros(len(capacity))
        np.divide(np.abs(side_a - side_b), capacity, out=imbalance_array, where=capacity > EPS)
        hist, _ = np.histogram(imbalance_array, bins=SATURATION_BINS)

        found, drained = self._probe_motifs(network)

        series = self._series.setdefault(scheme, {})

        def push(metric: str, value: object) -> None:
            series.setdefault(metric, []).append(value)

        push("time", float(t))
        push("gini", gini(sides))
        push("imbalance_mean", float(imbalance_array.mean()) if len(imbalance_array) else 0.0)
        push("locked_total", float(sum(locked)))
        push("saturation_hist", hist.astype(np.int64))
        push("motifs_found", int(found))
        push("motifs_drained", int(drained))
        batches = self._batches.pop(scheme, [])
        push("batch_count", len(batches))
        push("batch_mean", float(np.mean(batches)) if batches else 0.0)
        self._probe_index += 1

    def _probe_motifs(self, network: object) -> Tuple[int, int]:
        """Count deadlock motifs, and how many are currently drained.

        Uses a derived RNG per probe (never a simulation generator), so the
        probe cannot perturb any scheme's random stream.
        """
        # Imported lazily: obs must stay importable below the simulator layer.
        from repro.simulator.workload import _find_deadlock_motifs

        rng = np.random.default_rng((self.seed * 1_000_003 + self._probe_index) & 0x7FFFFFFF)
        motifs = _find_deadlock_motifs(network, rng, max_motifs=self.max_motifs)
        drained = 0
        for _a, relay, b in motifs:
            channel = network.channel(relay, b)  # type: ignore[attr-defined]
            capacity = channel.capacity
            if capacity > 0 and channel.balance(relay) < DRAINED_FRACTION * capacity:
                drained += 1
        return len(motifs), drained

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def arrays(self) -> Dict[str, np.ndarray]:
        """Every series as ``"<scheme>|<metric>"`` -> stacked array."""
        out: Dict[str, np.ndarray] = {}
        for scheme, metrics in self._series.items():
            for metric, samples in metrics.items():
                if metric == "saturation_hist":
                    out[f"{scheme}|{metric}"] = np.stack(samples) if samples else np.zeros((0, len(SATURATION_BINS) - 1), dtype=np.int64)
                else:
                    out[f"{scheme}|{metric}"] = np.asarray(samples)
        return out

    def save(self, path: Optional[str] = None) -> Optional[str]:
        """Write the NPZ (to ``path`` or the constructor's); ``None`` skips."""
        destination = path or self.path
        if destination is None:
            return None
        payload = self.arrays()
        payload["__schema_version__"] = np.asarray(HEALTH_SCHEMA_VERSION)
        np.savez(destination, **payload)
        return destination

    def schemes(self) -> List[str]:
        """Scheme names with at least one probe, in first-probe order."""
        return list(self._series)


def load_health(path: str) -> Dict[str, Dict[str, np.ndarray]]:
    """Load a health NPZ back into ``scheme -> metric -> array`` form."""
    out: Dict[str, Dict[str, np.ndarray]] = {}
    with np.load(path) as data:
        for key in data.files:
            if key == "__schema_version__":
                continue
            scheme, _, metric = key.partition("|")
            out.setdefault(scheme, {})[metric] = data[key]
    return out
