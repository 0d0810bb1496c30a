"""The distributed routing decision engine (Algorithm 2).

:class:`RateRouter` is the engine a smooth node runs: it accepts its
clients' payment demands, splits them into transaction units, chooses a set
of paths per source-destination pair, and dispatches units under two
controls:

* the *rate controller* adjusts per-path sending rates from routing prices
  (capacity price + imbalance price), keeping channels balanced and thus the
  network deadlock-free,
* ``queue_limit`` bounds the value a sender may have queued in the per-pair
  queues where units wait until they can be sent.

The configured *scheduler* decides the order in which queued units are
served.

The paper's congestion control (Algorithm 2's per-path windows, equations
27-28) is not implemented: on this router the windows refused no unit in any
golden scenario and changed no success ratio.

Transfers are executed against the shared :class:`~repro.topology.network.PCNetwork`
with HTLC-style lock/settle semantics: funds are locked hop by hop when a
unit is dispatched and settle forward after the path's propagation delay, so
liquidity is genuinely unavailable while units are in flight.

In the deployed system each PCH runs this engine over its own clients'
requests while sharing global state once per epoch; the simulator models
that by letting hub-attributed requests share one engine per scheme, which
is equivalent under the paper's bounded-synchronous communication model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.obs import core as obs
from repro.routing.paths import get_path_selector
from repro.routing.prices import PriceTable
from repro.routing.rate_control import PairRateState, PathRateController
from repro.routing.scheduling import get_scheduler
from repro.routing.transaction import FailureReason, Payment, TransactionUnit
from repro.topology.channel import ChannelError, InsufficientFundsError
from repro.topology.network import PCNetwork

NodeId = Hashable
Pair = Tuple[NodeId, NodeId]
Path = Tuple[NodeId, ...]


@dataclass
class RouterConfig:
    """Tunable parameters of the rate-based router (paper defaults).

    Attributes:
        path_type: Path selection strategy (``edw``/``eds``/``ksp``/``heuristic``).
        path_count: Number of candidate paths per pair (paper: 5).
        min_tu: Minimum transaction-unit value (paper: 1 token).
        max_tu: Maximum transaction-unit value (paper: 4 tokens).
        update_interval: Price/rate update period tau in seconds (paper: 0.2).
        settlement_delay: Average per-path acknowledgment delay Delta used to
            convert rates into required funds.
        hop_delay: Propagation + processing delay per channel hop, used to
            compute unit completion times.
        alpha: Rate-update step size (equation 26).
        kappa: Capacity-price step size (equation 21).
        eta: Imbalance-price step size (equation 22).
        t_fee: Fee threshold ``T_fee`` in (0, 1) (equation 24).
        max_imbalance_gap: Hard bound on the per-channel imbalance-price gap
            (the balance constraint of equation 19): a direction whose
            imbalance price exceeds the reverse direction's by more than this
            gap is not used until the reverse flow catches up.  With the
            default eta this corresponds to blocking a direction once it has
            net-drained roughly three quarters of the channel capacity.
        scheduler: Waiting-queue scheduling policy (paper default: ``lifo``).
        queue_limit: Maximum value a sender may have queued (paper: 8000
            tokens); a payment that would exceed it is refused.
        initial_rate: Starting per-path rate (tokens/second).
        min_rate: Floor on per-path rates.
        path_refresh_interval: How often cached paths are recomputed (seconds).
        rate_control_enabled: Disable to ablate price-based rate control.
        imbalance_pricing_enabled: Disable to ablate the imbalance price
            (the deadlock-avoidance mechanism).
    """

    path_type: str = "edw"
    path_count: int = 5
    min_tu: float = 1.0
    max_tu: float = 4.0
    update_interval: float = 0.2
    settlement_delay: float = 0.2
    hop_delay: float = 0.02
    alpha: float = 1.0
    kappa: float = 0.1
    eta: float = 0.1
    max_imbalance_gap: float = 0.075
    t_fee: float = 0.01
    scheduler: str = "lifo"
    queue_limit: float = 8000.0
    initial_rate: float = 20.0
    min_rate: float = 2.0
    path_refresh_interval: float = 1.0
    rate_control_enabled: bool = True
    imbalance_pricing_enabled: bool = True

    def __post_init__(self) -> None:
        if self.path_count < 1:
            raise ValueError("path_count must be at least 1")
        if self.update_interval <= 0:
            raise ValueError("update_interval must be positive")
        if not 0 < self.t_fee < 1:
            raise ValueError("t_fee must be in (0, 1)")
        if self.queue_limit <= 0:
            raise ValueError("queue_limit must be positive")


@dataclass
class _InFlightUnit:
    """A dispatched unit whose locks settle at ``complete_at``."""

    unit: TransactionUnit
    path: Path
    locks: List[Tuple[object, int]]
    complete_at: float
    fee: float


@dataclass
class StepReport:
    """What happened during one router step."""

    now: float
    completed_payments: List[Payment] = field(default_factory=list)
    failed_payments: List[Payment] = field(default_factory=list)
    delivered_units: int = 0
    delivered_value: float = 0.0
    aborted_units: int = 0
    fees_paid: float = 0.0


class RateRouter:
    """Rate-based multi-path payment router over a payment channel network.

    A pair's one record is its rate controller ``PairRateState``; only the
    waiting queues live apart, as their insertion order is the dispatch order.
    ``_queued_value`` sums each sender's queued value against ``queue_limit``.
    """

    def __init__(self, network: PCNetwork, config: Optional[RouterConfig] = None) -> None:
        self.network = network
        self.config = config or RouterConfig()
        cfg = self.config
        self.price_table = PriceTable(
            network,
            kappa=cfg.kappa,
            eta=cfg.eta,
            t_fee=cfg.t_fee,
        )
        if not cfg.imbalance_pricing_enabled:
            self.price_table.eta = 0.0
        self.rate_controller = PathRateController(
            alpha=cfg.alpha,
            min_rate=cfg.min_rate,
            initial_rate=cfg.initial_rate,
        )
        self._select_paths = get_path_selector(cfg.path_type)
        self._schedule = get_scheduler(cfg.scheduler)
        self._queues: Dict[Pair, List[TransactionUnit]] = {}
        self._queued_value: Dict[NodeId, float] = {}
        self._in_flight: List[_InFlightUnit] = []
        self._payments: Dict[int, Payment] = {}
        #: Payments refused since the last step; that step reports them failed.
        self._refused: List[Payment] = []
        self._next_price_update = cfg.update_interval
        self.total_fees_paid = 0.0
        self.total_units_delivered = 0
        self.total_probe_messages = 0

    # ------------------------------------------------------------------ #
    # payment intake
    # ------------------------------------------------------------------ #
    def submit(self, payment: Payment, now: float) -> None:
        """Accept a payment demand: split it into TUs and queue them for dispatch.

        A payment with no path, or over its sender's ``queue_limit``, fails
        at once (``payment.failure_reason``) and the next step reports it.
        """
        cfg = self.config
        rec = obs.RECORDER
        pair = (payment.sender, payment.recipient)
        state = self._pair_state(pair, now)
        paths = state.found_paths
        if not paths:
            payment.fail(FailureReason.NO_PATH)
            self._refused.append(payment)
            if rec.enabled and rec.payment_begin(payment):
                rec.payment_event(payment, "reject", now, reason=FailureReason.NO_PATH.value)
            return
        queued_value = self._queued_value.get(payment.sender, 0.0)
        if queued_value + payment.value > cfg.queue_limit:
            payment.fail(FailureReason.QUEUE_FULL)
            self._refused.append(payment)
            if rec.enabled and rec.payment_begin(payment):
                rec.payment_event(payment, "reject", now, reason=FailureReason.QUEUE_FULL.value)
            return

        self._payments[payment.payment_id] = payment
        units = payment.split(cfg.min_tu, cfg.max_tu, now=now)
        queue = self._queues.setdefault(pair, [])
        queue.extend(units)
        self._queued_value[payment.sender] = queued_value + payment.value
        self._refresh_demand_rate(state, queue, now)
        if rec.enabled and rec.payment_begin(payment):
            rec.payment_event(payment, "paths", now, paths=len(paths), units=len(units))

    def _pair_state(self, pair: Pair, now: float) -> PairRateState:
        """The pair's record, its paths searched again once they are stale.

        A search that finds no path holds for ``path_refresh_interval`` too;
        the controller keeps the previous paths registered meanwhile.
        """
        state = self.rate_controller.pair_state(*pair)
        if state is not None and now - state.searched_at < self.config.path_refresh_interval:
            return state
        raw = self._select_paths(self.network, pair[0], pair[1], self.config.path_count)
        paths = [tuple(path) for path in raw]
        state = self.rate_controller.register_pair(pair[0], pair[1], paths)
        state.searched_at = now
        state.found = bool(paths)
        state.ranked = None
        # One probe per path per refresh measures the path prices.
        self.total_probe_messages += sum(len(p) - 1 for p in paths)
        return state

    def _refresh_demand_rate(
        self, state: PairRateState, queue: List[TransactionUnit], now: float
    ) -> None:
        """Demand constraint (17): the rate needed to clear the outstanding demand.

        Equation (17) bounds ``sum_p r_p * Delta`` by the pair's demand, i.e.
        the pair never sustains a higher rate than its outstanding value can
        feed within one settlement delay.
        """
        outstanding = sum(unit.value for unit in queue)
        if outstanding > 0:
            delay = max(self.config.settlement_delay, 1e-6)
            # Equation (17) caps in-flight funds by the demand: r * Delta <= d.
            state.demand_rate = outstanding / delay
            # The *target* rate only needs to clear the queued value before the
            # earliest deadline among the queued units (with a safety factor of
            # two); asking for more would just inflate the capacity prices.
            earliest_deadline = min((unit.deadline for unit in queue), default=now)
            horizon = max(0.25 * (earliest_deadline - now), delay)
            target_rate = outstanding / horizon
            paths = state.found_paths
            # Each path's boost ceiling is its capacity-derived rate bound
            # (equation 18) discounted by the current routing price, so a
            # congested or imbalanced path does not get re-inflated.  The
            # path queries are lenient: a path whose channel was retired by
            # dynamics gets placeholder prices, and its zero live capacity
            # makes its cap (and thus its boost) zero.
            table = self.price_table
            per_path_caps = {
                path: (float(capacity) / delay) / (1.0 + max(float(price), 0.0))
                for path, price, capacity in zip(
                    paths, table.path_prices(paths), table.path_capacities(paths)
                )
            }
            self.rate_controller.boost_rates(state.source, state.target, target_rate, per_path_caps)
        else:
            state.demand_rate = None

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #
    def step(self, now: float, dt: float) -> StepReport:
        """Advance the router by ``dt``; the failures open with refusals since the last step."""
        report = StepReport(now=now, failed_payments=self._refused)
        self._refused = []
        self._settle_in_flight(now, report)
        self._maybe_update_prices(now)
        self._accrue_budgets(dt)
        self._dispatch_queued(now, report)
        self._expire_overdue(now, report)
        return report

    # -- in-flight settlement ------------------------------------------- #
    def _settle_in_flight(self, now: float, report: StepReport) -> None:
        remaining: List[_InFlightUnit] = []
        for entry in self._in_flight:
            if entry.complete_at > now:
                remaining.append(entry)
                continue
            if not self._try_settle_locks(entry):
                # A channel on the path closed mid-flight (network dynamics);
                # closing released its locks, so the unit cannot be delivered.
                self._abort_in_flight(entry, report)
                continue
            for sender, receiver in zip(entry.path, entry.path[1:]):
                self.price_table.observe_transfer(sender, receiver, entry.unit.value)
            payment = self._payments.get(entry.unit.payment_id)
            unit = entry.unit
            unit.path = entry.path
            rec = obs.RECORDER
            if rec.enabled:
                rec.payment_event(
                    unit.payment_id, "unit_settle", now,
                    unit=unit.unit_id, value=round(unit.value, 9), fee=round(entry.fee, 9),
                )
            if payment is not None:
                payment.record_unit_delivery(unit, now)
                if payment.is_complete:
                    report.completed_payments.append(payment)
                    self._payments.pop(payment.payment_id, None)
            report.delivered_units += 1
            report.delivered_value += unit.value
            report.fees_paid += entry.fee
            self.total_fees_paid += entry.fee
            self.total_units_delivered += 1
        self._in_flight = remaining

    def _try_settle_locks(self, entry: _InFlightUnit) -> bool:
        """Settle an in-flight unit's locks hop by hop.

        Settlement propagates backward from the receiver, as HTLC
        acknowledgments do.  When a hop's channel was closed mid-flight (its
        locks were force-released by the closure) every lock upstream of the
        break -- the sender's included -- is released back to its sender and
        the unit counts as aborted; hops downstream of the break had already
        settled, so the intermediary at the break bears the loss, mirroring a
        mid-path HTLC failure.
        """
        broken = False
        for channel, lock_id in reversed(entry.locks):
            if broken:
                try:
                    channel.release(lock_id)
                except ChannelError:
                    pass
                continue
            try:
                channel.settle(lock_id)
            except ChannelError:
                broken = True
        return not broken

    def _abort_in_flight(self, entry: _InFlightUnit, report: StepReport) -> None:
        """Account for a unit whose path broke while its locks were in flight."""
        report.aborted_units += 1
        rec = obs.RECORDER
        if rec.enabled:
            rec.payment_event(
                entry.unit.payment_id, "unit_abort", report.now,
                unit=entry.unit.unit_id, reason=FailureReason.DYNAMICS_RETIRED.value,
            )
        payment = self._payments.get(entry.unit.payment_id)
        if payment is not None and not payment.is_failed:
            payment.fail(FailureReason.DYNAMICS_RETIRED)
            report.failed_payments.append(payment)
            self._payments.pop(payment.payment_id, None)

    # -- price / rate updates ------------------------------------------- #
    def _maybe_update_prices(self, now: float) -> None:
        cfg = self.config
        while now + 1e-12 >= self._next_price_update:
            self.rate_controller.report_required_funds(self.price_table, cfg.settlement_delay)
            self.price_table.update_all()
            if cfg.rate_control_enabled:
                self.rate_controller.update_rates(self.price_table)
                # Dynamic adjustment: pairs with queued demand re-assert the
                # rate needed to clear it, so rates recover after a price spike
                # instead of staying pinned at the floor.
                for pair, queue in self._queues.items():
                    state = self.rate_controller.pair_state(*pair)
                    if state is not None:
                        self._refresh_demand_rate(state, queue, now)
            self._next_price_update += cfg.update_interval
        self._maybe_prune_paths()

    def _maybe_prune_paths(self) -> None:
        """Bound the price table's path index on long dynamic runs.

        Topology churn keeps retiring path sets; their rows would otherwise
        accumulate in the table's path index forever and every whole-table
        price reduction would slow down monotonically.  Once retired rows
        outnumber the active ones several times over, rebuild the index
        around the paths the pairs' last searches found.
        """
        found = [state.paths for state in self.rate_controller.pairs() if state.found]
        active_count = sum(map(len, found))
        if self.price_table.registered_path_count() <= max(512, 4 * active_count):
            return
        self.price_table.prune_paths(path for paths in found for path in paths)

    def _accrue_budgets(self, dt: float) -> None:
        cfg = self.config
        for pair in self._queues:
            state = self.rate_controller.pair_state(*pair)
            if state is None:
                continue
            budgets = state.budgets
            for path, rate in zip(state.paths, state.rates):
                if not cfg.rate_control_enabled:
                    budgets[path] = float("inf")
                    continue
                # Token bucket: the burst capacity tracks the current rate so
                # high-demand pairs are not throttled below their allowance.
                burst_cap = max(cfg.max_tu * 4.0, rate * dt * 2.0)
                budgets[path] = min(budgets.get(path, 0.0) + rate * dt, burst_cap)

    # -- dispatch -------------------------------------------------------- #
    def _dispatch_queued(self, now: float, report: StepReport) -> None:
        all_queued = [unit for queue in self._queues.values() for unit in queue]
        if not all_queued:
            return
        for unit in self._schedule(all_queued):
            payment = self._payments.get(unit.payment_id)
            if payment is None or payment.is_failed:
                self._unqueue(unit)
                continue
            if unit.expired(now):
                continue  # handled by _expire_overdue below
            state = self._pair_state((unit.sender, unit.recipient), now)
            path = self._choose_path(state, unit)
            if path is not None and self._launch_unit(state, unit, path, now):
                self._unqueue(unit)

    def _choose_path(self, state: PairRateState, unit: TransactionUnit) -> Optional[Path]:
        if not state.found:
            return None
        budgets = state.budgets
        for _, path in self._ranked_paths(state):
            if budgets.get(path, 0.0) < unit.value:
                continue
            if self.price_table.path_capacity(path) < unit.value:
                continue
            return path
        return None

    def _ranked_paths(self, state: PairRateState) -> List[Tuple[float, Path]]:
        """The pair's candidate paths, price-sorted with blocked paths dropped.

        Routing prices and the balance constraint (equation 19) only change
        when prices change, so the ranking is computed once per
        (path refresh, price update) and every queued unit of the pair then
        walks the short pre-sorted list checking only its per-unit conditions
        (budget, live capacity).  Blocked paths -- those whose worst
        hop's imbalance-price gap exceeds ``max_imbalance_gap`` -- are
        excluded up front; they become usable again once reverse flow
        restores balance.  The memo (``state.ranked``) is
        keyed by the table's ``price_version``, which tracks every price
        mutation, including direct writes through views; a path search
        clears it.
        """
        version = self.price_table.price_version
        if state.ranked is not None and state.ranked[0] == version:
            return state.ranked[1]
        paths = state.paths
        # Batch queries are lenient towards paths whose channels dynamics
        # retired before they were ever priced: such a path prices against a
        # zero-capacity placeholder and the per-unit capacity guard in
        # _choose_path keeps units off it.
        prices = self.price_table.path_prices(paths)
        if self.config.imbalance_pricing_enabled:
            blocked = self.price_table.paths_blocked(paths, self.config.max_imbalance_gap)
        else:
            blocked = np.zeros(len(paths), dtype=bool)
        ranked = sorted(
            (
                (float(price), path)
                for price, path, is_blocked in zip(prices, paths, blocked)
                if not is_blocked
            ),
            key=lambda item: item[0],
        )
        state.ranked = (version, ranked)
        return ranked

    def _launch_unit(
        self, state: PairRateState, unit: TransactionUnit, path: Path, now: float
    ) -> bool:
        rec = obs.RECORDER
        locks: List[Tuple[object, int]] = []
        fee = 0.0
        for sender, receiver in zip(path, path[1:]):
            channel = self.network.channel(sender, receiver)
            try:
                lock_id = channel.lock(sender, unit.value, now=now, tag=str(unit.unit_id))
            except InsufficientFundsError:
                for locked_channel, locked_id in locks:
                    locked_channel.release(locked_id)
                if rec.enabled:
                    rec.payment_event(
                        unit.payment_id, "lock_fail", now,
                        unit=unit.unit_id, channel=[sender, receiver], released=len(locks),
                    )
                return False
            if rec.enabled:
                rec.payment_event(
                    unit.payment_id, "lock", now,
                    unit=unit.unit_id, channel=[sender, receiver],
                )
            locks.append((channel, lock_id))
            fee += self.price_table.channel_fee(sender, receiver)
        budget = state.budgets.get(path, 0.0)
        if budget != float("inf"):
            state.budgets[path] = max(budget - unit.value, 0.0)
        complete_at = now + self.config.hop_delay * (len(path) - 1)
        self._in_flight.append(
            _InFlightUnit(unit=unit, path=path, locks=locks, complete_at=complete_at, fee=fee)
        )
        if rec.enabled:
            rec.payment_event(
                unit.payment_id, "launch", now,
                unit=unit.unit_id, path=list(path), complete_at=round(complete_at, 9),
            )
        return True

    def _unqueue(self, unit: TransactionUnit) -> None:
        """Take a unit off its pair's queue and its value off its sender's total."""
        pair = (unit.sender, unit.recipient)
        queue = self._queues.get(pair)
        if queue is not None:
            try:
                queue.remove(unit)
            except ValueError:
                pass
            if not queue:
                self._queues.pop(pair, None)
        remaining = self._queued_value.get(unit.sender, 0.0) - unit.value
        self._queued_value[unit.sender] = max(remaining, 0.0)

    # -- expiry ---------------------------------------------------------- #
    def _expire_overdue(self, now: float, report: StepReport) -> None:
        for queue in list(self._queues.values()):
            for unit in list(queue):
                payment = self._payments.get(unit.payment_id)
                if payment is None:
                    self._unqueue(unit)
                    continue
                if unit.expired(now) or payment.is_failed:
                    self._unqueue(unit)
                    report.aborted_units += 1
                    if not payment.is_failed:
                        payment.fail(FailureReason.TIMEOUT)
                        rec = obs.RECORDER
                        if rec.enabled:
                            rec.payment_event(
                                payment, "expire", now,
                                unit=unit.unit_id, reason=FailureReason.TIMEOUT.value,
                            )
                        report.failed_payments.append(payment)
                        self._payments.pop(payment.payment_id, None)
        # Payments whose deadline passed while all remaining units are in flight
        # still fail: the recipient only accepts the full demand (section III-A).
        for payment_id, payment in list(self._payments.items()):
            if payment.deadline < now and not payment.is_complete:
                payment.fail(FailureReason.TIMEOUT)
                rec = obs.RECORDER
                if rec.enabled:
                    rec.payment_event(payment, "expire", now, reason=FailureReason.TIMEOUT.value)
                report.failed_payments.append(payment)
                self._payments.pop(payment_id, None)

    # ------------------------------------------------------------------ #
    # inspection helpers
    # ------------------------------------------------------------------ #
    def queued_unit_count(self) -> int:
        """Number of transaction units currently waiting in queues."""
        return sum(len(queue) for queue in self._queues.values())

    def queued_value(self, sender: NodeId) -> float:
        """Total value the sender currently has queued (``q_amount``)."""
        return self._queued_value.get(sender, 0.0)

    def in_flight_count(self) -> int:
        """Number of units currently locked along their paths."""
        return len(self._in_flight)

    def drain(self, now: float, dt: float, max_steps: int = 1000) -> List[StepReport]:
        """Step repeatedly until no queued or in-flight units remain (or budget ends)."""
        reports = []
        current = now
        for _ in range(max_steps):
            if self.queued_unit_count() == 0 and self.in_flight_count() == 0:
                break
            current += dt
            reports.append(self.step(current, dt))
        return reports
