"""Price-based per-path rate control (equations 16-20 and 26).

Every source-destination pair maintains one sending rate per path.  The
controller performs gradient steps on the utility-minus-price objective:
``r_p <- r_p + alpha * (U'(r) - rho_p)`` where ``U`` is the logarithmic
utility of the pair's total rate (so ``U'(r) = 1 / sum_p r_p``) and
``rho_p`` is the path routing price from the :class:`~repro.routing.prices.PriceTable`.
Rates are kept non-negative and, when a demand estimate is known, scaled so
the demand constraint (17) is respected.

The per-epoch gradient step and the required-funds report run as array
kernels over a flattened view of every registered pair's paths, indexed by
the price table's stable path rows; the per-pair loops they replaced live in
:mod:`repro.reference.routing` and agree within floating-point noise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.routing.prices import PriceTable

NodeId = Hashable
Pair = Tuple[NodeId, NodeId]
Path = Tuple[NodeId, ...]

#: Paper-inspired defaults for the rate controller.
DEFAULT_ALPHA = 0.5
DEFAULT_MIN_RATE = 0.1
DEFAULT_INITIAL_RATE = 2.0


@dataclass
class PairRateState:
    """The record of one source-destination pair: paths, rates, dispatch state.

    Attributes:
        source: Sending client (or hub) of the pair.
        target: Receiving client (or hub) of the pair.
        paths: Candidate paths currently registered for the pair.  A path
            search that finds none leaves the previous paths registered.
        rates: Sending rate (tokens/second) per path, aligned with ``paths``.
        demand_rate: Optional cap on the pair's total rate derived from its
            outstanding demand (the demand constraint of equation 17).
        searched_at: Time of the router's last path search for the pair.
        found: Whether that search found any path.
        budgets: Token-bucket sending budget per path.  Entries outlive a
            refresh, so a path that comes back resumes its budget.
        ranked: ``(price_version, ranking)`` memo of the dispatch ranking,
            cleared by every path search.
    """

    source: NodeId
    target: NodeId
    paths: List[Path] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    demand_rate: Optional[float] = None
    searched_at: float = float("-inf")
    found: bool = False
    budgets: Dict[Path, float] = field(default_factory=dict)
    ranked: Optional[Tuple[int, List[Tuple[float, Path]]]] = None

    @property
    def total_rate(self) -> float:
        """Aggregate sending rate across the pair's paths."""
        return sum(self.rates)

    @property
    def found_paths(self) -> List[Path]:
        """The paths units may take: those of the last search, if it found any."""
        return self.paths if self.found else []


@dataclass
class _FlatPaths:
    """Flattened view of every registered pair's paths for the array kernels.

    Rebuilt only when the registered path set changes; the per-epoch kernels
    gather rates and demand fresh on every call, so direct mutation of
    ``PairRateState.rates`` (tests, the router's boost logic) stays visible.
    """

    table: object
    version: int
    table_generation: int
    states: List["PairRateState"]
    rows: np.ndarray
    lengths: np.ndarray
    ptr: np.ndarray
    hops: Tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def path_count(self) -> int:
        return int(self.rows.shape[0])


class PathRateController:
    """Maintains and updates the per-path rates of every active pair."""

    def __init__(
        self,
        alpha: float = DEFAULT_ALPHA,
        min_rate: float = DEFAULT_MIN_RATE,
        initial_rate: float = DEFAULT_INITIAL_RATE,
    ) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if min_rate < 0:
            raise ValueError("min_rate must be non-negative")
        self.alpha = float(alpha)
        self.min_rate = float(min_rate)
        self.initial_rate = float(initial_rate)
        self._pairs: Dict[Pair, PairRateState] = {}
        self._version = 0
        self._flat_cache: Optional[_FlatPaths] = None

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register_pair(self, source: NodeId, target: NodeId, paths: Sequence[Sequence[NodeId]]) -> PairRateState:
        """Register (or refresh) the candidate paths of a pair.

        Existing rates are kept for paths that survive the refresh; new paths
        start at the initial rate.  An empty ``paths`` keeps the registered
        ones.  The registry runs in order of first non-empty registration,
        which fixes the summation order of the array kernels.
        """
        key = (source, target)
        normalized = [tuple(path) for path in paths]
        state = self._pairs.get(key)
        if state is None:
            state = self._pairs[key] = PairRateState(source, target)
        elif normalized and not state.paths:
            self._pairs[key] = self._pairs.pop(key)
        if not normalized or normalized == state.paths:
            return state
        old_rates = dict(zip(state.paths, state.rates))
        state.paths = normalized
        state.rates = [old_rates.get(path, self.initial_rate) for path in normalized]
        self._version += 1
        return state

    def pair_state(self, source: NodeId, target: NodeId) -> Optional[PairRateState]:
        """The rate state of a pair, or ``None`` if it was never registered."""
        return self._pairs.get((source, target))

    def pairs(self) -> List[PairRateState]:
        """Every pair record, including pairs no search has found a path for."""
        return list(self._pairs.values())

    def drop_pair(self, source: NodeId, target: NodeId) -> None:
        """Forget a pair (e.g. when it has no outstanding demand left)."""
        if self._pairs.pop((source, target), None) is not None:
            self._version += 1

    # ------------------------------------------------------------------ #
    # flattened view for the array kernels
    # ------------------------------------------------------------------ #
    def _flat(self, price_table: PriceTable) -> _FlatPaths:
        """The flattened path view against one price table (cached)."""
        generation = price_table.path_generation
        cache = self._flat_cache
        if (
            cache is not None
            and cache.table is price_table
            and cache.version == self._version
            and cache.table_generation == generation
        ):
            return cache
        states = [state for state in self._pairs.values() if state.paths]
        rows = np.asarray(
            [
                price_table.path_row(path)
                for state in states
                for path in state.paths
            ],
            dtype=np.intp,
        )
        lengths = np.asarray([len(state.paths) for state in states], dtype=np.intp)
        ptr = np.concatenate([np.zeros(1, dtype=np.intp), np.cumsum(lengths, dtype=np.intp)])
        cache = _FlatPaths(
            table=price_table,
            version=self._version,
            table_generation=price_table.path_generation,
            states=states,
            rows=rows,
            lengths=lengths,
            ptr=ptr,
            hops=price_table.gather_hops(rows),
        )
        self._flat_cache = cache
        return cache

    def _gather_rates(self, flat: _FlatPaths) -> np.ndarray:
        return np.fromiter(
            itertools.chain.from_iterable(state.rates for state in flat.states),
            dtype=float,
            count=flat.path_count,
        )

    # ------------------------------------------------------------------ #
    # rate updates (equation 26)
    # ------------------------------------------------------------------ #
    def update_rates(self, price_table: PriceTable) -> None:
        """One gradient step on every registered pair.

        Equation (26) plus the demand cap (17) as one array kernel: marginal
        utility from the pair totals, gradient step against the path routing
        prices, flooring at ``min_rate``, then the per-pair demand
        rescaling.
        """
        flat = self._flat(price_table)
        if not flat.states:
            return
        rates = self._gather_rates(flat)
        prices = price_table.path_prices_by_row(flat.rows)
        floor = self.min_rate if self.min_rate > 0 else 1e-6
        totals = np.maximum(np.add.reduceat(rates, flat.ptr[:-1]), floor)
        marginal = np.repeat(1.0 / totals, flat.lengths)
        updated = np.maximum(rates + self.alpha * (marginal - prices), self.min_rate)
        demand = np.fromiter(
            (
                state.demand_rate if state.demand_rate is not None else np.inf
                for state in flat.states
            ),
            dtype=float,
            count=len(flat.states),
        )
        new_totals = np.add.reduceat(updated, flat.ptr[:-1])
        capped = (new_totals > demand) & (new_totals > 0)
        if capped.any():
            scale = np.ones(len(flat.states))
            scale[capped] = demand[capped] / new_totals[capped]
            updated = updated * np.repeat(scale, flat.lengths)
        for state, start, end in zip(flat.states, flat.ptr[:-1], flat.ptr[1:]):
            state.rates = updated[start:end].tolist()

    def boost_rates(
        self,
        source: NodeId,
        target: NodeId,
        target_total_rate: float,
        per_path_caps: Optional[Dict[Path, float]] = None,
    ) -> None:
        """Raise the pair's rates towards a newly arrived demand.

        The paper's abstract calls this the "dynamic adjustment strategy on
        request processing rates": when a pair's outstanding demand needs a
        higher total rate than the gradient updates currently provide, the
        per-path rates are lifted to an equal share of the demand rate --
        bounded by each path's capacity-derived cap (equation 18) -- and the
        price-based updates then trim them back down wherever the network
        cannot actually sustain them.
        """
        state = self._pairs.get((source, target))
        if state is None or not state.paths or target_total_rate <= 0:
            return
        share = target_total_rate / len(state.paths)
        new_rates = []
        for path, rate in zip(state.paths, state.rates):
            cap = None if per_path_caps is None else per_path_caps.get(path)
            boosted = max(rate, share)
            if cap is not None:
                boosted = min(boosted, max(cap, self.min_rate))
            new_rates.append(boosted)
        state.rates = new_rates

    # ------------------------------------------------------------------ #
    # interactions with the price table
    # ------------------------------------------------------------------ #
    def report_required_funds(self, price_table: PriceTable, settlement_delay: float) -> None:
        """Publish ``n_a`` / ``n_b`` (required funds) to the price table.

        The funds a sender needs on a channel to sustain its rates is the sum
        of ``rate * settlement_delay`` over every registered path that uses
        the channel in that direction (section IV-D).
        """
        flat = self._flat(price_table)
        if not flat.states:
            return
        weights = self._gather_rates(flat) * settlement_delay
        price_table.set_required_funds_for_paths(flat.rows, weights, hops=flat.hops)
