"""Common interface and machinery for routing schemes.

A routing scheme owns all state it needs to route payments on a
:class:`~repro.topology.network.PCNetwork` (paths, prices, queues) and is
driven by the experiment runner through three calls:

* :meth:`RoutingScheme.prepare` once before the run,
* :meth:`RoutingScheme.submit` for every arriving payment request,
* :meth:`RoutingScheme.step` once per simulation step.

Two families of schemes share helper machinery here:

* *atomic source-routing* schemes (Flash, landmark, shortest-path, A2L,
  SpeedyMurmurs, waterfilling) attempt the whole payment in one shot:
  :meth:`AtomicRoutingMixin.submit` asks the scheme for its paths
  (``_paths``) and :meth:`AtomicRoutingMixin._execute` locks and settles
  funds across them, all-or-nothing,
* *source-computation delay*: the paper argues source routing pushes the
  path computation onto the (weak) sender, which becomes a bottleneck as the
  network grows; :class:`SourceComputationModel` converts network size into
  a per-payment computation delay that eats into the 3-second deadline:
  :meth:`RoutingScheme.route_batch` holds every request for its scheme's
  :meth:`RoutingScheme.extra_delay` before submitting it, and payments are
  dated from arrival, so the wait counts against the deadline.
"""

from __future__ import annotations

import abc
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.batch import AtomicBatchExecutor
from repro.routing.transaction import HOP_DELAY, FailureReason, Payment
from repro.simulator.workload import TransactionRequest
from repro.topology.network import PCNetwork
from repro.topology.pathcsr import PathCSR

NodeId = Hashable
Path = Tuple[NodeId, ...]


@dataclass
class SchemeStepReport:
    """Payments that completed or failed during one scheme step."""

    completed: List[Payment] = field(default_factory=list)
    failed: List[Payment] = field(default_factory=list)
    fees_paid: float = 0.0


@dataclass(frozen=True)
class SourceComputationModel:
    """Per-payment path-computation delay of source-routing schemes.

    The delay grows linearly with network size: ``base_delay`` at
    ``reference_size`` nodes and proportionally more in larger networks,
    reflecting that each sender must maintain the full topology and compute
    routes on its own hardware.
    """

    base_delay: float = 0.05
    reference_size: int = 100

    def delay_for(self, node_count: int) -> float:
        """Computation delay for one payment in a network of ``node_count`` nodes."""
        if node_count <= 0:
            return 0.0
        return self.base_delay * node_count / self.reference_size


class RoutingScheme(abc.ABC):
    """Interface every comparison scheme implements."""

    #: Display name used in result tables.
    name: str = "scheme"

    #: Seconds a payment may take before it fails (section V-A: 3 s).
    timeout: float = 3.0

    #: The sender's path-computation cost; ``None`` for schemes without one.
    computation: Optional[SourceComputationModel] = None

    def __init__(self) -> None:
        self.network: Optional[PCNetwork] = None
        self.control_messages = 0.0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def prepare(self, network: PCNetwork, rng: Optional[np.random.Generator] = None) -> None:
        """Bind the scheme to a network and precompute whatever it needs."""
        self.network = network
        self.control_messages = 0.0
        #: Requests waiting out :meth:`extra_delay`: ``(ready_at, offer order, request)``.
        self._waiting: List[Tuple[float, int, TransactionRequest]] = []
        self._offers = itertools.count()

    @abc.abstractmethod
    def submit(self, request: TransactionRequest, now: float) -> Payment:
        """Offer one payment request to the scheme; returns the payment object."""

    def route_batch(self, requests: Sequence[TransactionRequest]) -> List[Payment]:
        """Offer a batch of requests that arrived since the last drain.

        The experiment runner hands over everything that arrived between two
        drain points in one call (nothing else happened in between, so the
        decision sequence is unchanged).  Each request waits
        :meth:`extra_delay` from its ``arrival_time``; those whose wait ended
        by the batch's last arrival are submitted, in order of readiness, at
        the time it ended, the rest by a later batch or :meth:`step`.
        Returns the payments this call submitted.
        """
        for request in requests:
            ready_at = request.arrival_time + self.extra_delay(request)
            heapq.heappush(self._waiting, (ready_at, next(self._offers), request))
        return self._route_waiting(requests[-1].arrival_time) if requests else []

    def _route_waiting(self, now: float) -> List[Payment]:
        """Submit, in order of readiness, every request whose wait ended by ``now``."""
        waiting, routed = self._waiting, []
        while waiting and waiting[0][0] <= now:
            ready_at, _, request = heapq.heappop(waiting)
            routed.append(self.submit(request, ready_at))
        return routed

    @abc.abstractmethod
    def step(self, now: float, dt: float) -> SchemeStepReport:
        """Advance the scheme by ``dt`` seconds and report finished payments."""

    def finish(self, now: float) -> SchemeStepReport:
        """Flush at the end of the run (default: one final zero-length step)."""
        return self.step(now, 0.0)

    # ------------------------------------------------------------------ #
    # dynamics
    # ------------------------------------------------------------------ #
    def on_network_change(self) -> None:
        """The network was mutated outside the scheme; repair derived state.

        Called by the runner after every dynamics event application and
        revert, and once more after the end-of-run unwinding.  Topology
        changes (channel close/open) are also visible through
        ``network.topology_version``; this hook additionally covers pure
        balance mutations such as jamming locks (SpeedyMurmurs re-embeds on
        the funding flips they cause).  Balances themselves need no hook:
        every scheme reads and writes them on the network.
        """

    # ------------------------------------------------------------------ #
    # per-payment accounting
    # ------------------------------------------------------------------ #
    def extra_delay(self, request: TransactionRequest) -> float:
        """Seconds ``request`` waits before it can start routing.

        The wait counts against the payment's deadline.  By default the
        source-computation delay of :attr:`computation` at the network's
        current size, or nothing without a model.
        """
        if self.computation is None:
            return 0.0
        return self.computation.delay_for(self._require_network().node_count())

    def _payment(self, request: TransactionRequest) -> Payment:
        """The payment for ``request``: dated from arrival, due :attr:`timeout` later."""
        return Payment.create(
            request.sender,
            request.recipient,
            request.value,
            created_at=request.arrival_time,
            timeout=self.timeout,
        )

    def overhead_messages(self) -> float:
        """Control-plane messages generated so far."""
        return self.control_messages

    def _require_network(self) -> PCNetwork:
        if self.network is None:
            raise RuntimeError(f"{self.name}: prepare() must be called before use")
        return self.network


class AtomicRoutingMixin:
    """Shared all-or-nothing multi-path intake for source-routing schemes.

    A scheme supplies only :meth:`_paths` (counting its own probe messages
    there) and, for a split other than the executor's greedy one,
    :meth:`_execute`; :meth:`submit` does the rest.

    Payments execute on an :class:`~repro.baselines.batch.AtomicBatchExecutor`
    bound in :meth:`prepare`: per-pair path catalogs plus lock/settle
    arithmetic run directly on the network's balance store, replaying the
    per-hop :class:`~repro.topology.channel.PaymentChannel` walk (kept as the
    oracle in :mod:`repro.reference.baselines`) bit for bit, which is what
    makes paper-scale comparisons tractable.
    """

    #: Bound by :meth:`prepare`.
    _executor: Optional[AtomicBatchExecutor] = None

    def __init__(self) -> None:
        super().__init__()
        #: Outcomes buffered since the last step; reset by :meth:`prepare`.
        self._report = SchemeStepReport()

    def prepare(self, network: PCNetwork, rng: Optional[np.random.Generator] = None) -> None:
        """Bind a fresh executor and report buffer for a run on ``network``."""
        super().prepare(network, rng)
        self._executor = AtomicBatchExecutor(network, HOP_DELAY)
        self._report = SchemeStepReport()

    def submit(self, request: TransactionRequest, now: float) -> Payment:
        """Route ``request`` at once on the scheme's paths, all-or-nothing."""
        self._require_network()
        payment = self._payment(request)
        if now > payment.deadline:  # the wait outlasted the deadline
            payment.fail(FailureReason.TIMEOUT)
            self._report.failed.append(payment)
            return payment
        paths = self._paths(request.sender, request.recipient, request.value)
        if not paths.paths:
            payment.fail(FailureReason.NO_PATH)
            self._report.failed.append(payment)
        elif self._execute(payment, paths, now):
            self._report.completed.append(payment)
        else:
            self._report.failed.append(payment)
        return payment

    def step(self, now: float, dt: float) -> SchemeStepReport:
        """Hand over the payments that finished since the last step.

        Atomic schemes execute at submission time, so stepping submits the
        requests whose wait has ended and swaps the report buffer.
        """
        self._route_waiting(now)
        report = self._report
        self._report = SchemeStepReport()
        return report

    def _paths(self, sender: NodeId, recipient: NodeId, value: float) -> PathCSR:
        """The paths to attempt a payment on: a catalog entry or a ``PathCSR``."""
        raise NotImplementedError

    def _execute(self, payment: Payment, paths: PathCSR, now: float) -> bool:
        """Attempt to deliver ``payment`` across ``paths``, all-or-nothing.

        The value is split greedily, largest bottleneck capacity first; if
        the paths cannot jointly carry it, nothing moves and the attempt
        fails.
        """
        return self._executor.execute(payment, paths, now)
