"""Rate-based deadlock-free routing (paper section IV-D).

The routing layer turns a payment demand into transaction units (TUs),
chooses a set of paths for them, and controls the per-path sending rates
from two kinds of channel prices:

* the *capacity price* (lambda) rises when the funds required to sustain the
  current rates exceed the channel capacity,
* the *imbalance price* (mu) rises in the direction that carries more value
  than the reverse direction, steering flow back towards balance -- this is
  what prevents the local deadlocks of section II-B.

What cannot be sent waits in per-pair queues bounded by the value each
sender may have queued, and pluggable schedulers decide the order in which
queued TUs are served.  The paper's per-path congestion windows (equations
27-28) are not implemented: they changed no measured outcome.
"""

from repro.routing.paths import (
    PathSelector,
    edge_disjoint_shortest_paths,
    edge_disjoint_widest_paths,
    get_path_selector,
    heuristic_widest_paths,
    k_shortest_paths,
)
from repro.routing.prices import PriceTable
from repro.routing.rate_control import PathRateController
from repro.routing.router import RateRouter
from repro.routing.scheduling import SCHEDULERS, get_scheduler
from repro.routing.transaction import Payment, PaymentStatus, TransactionUnit, split_value

__all__ = [
    "Payment",
    "PaymentStatus",
    "TransactionUnit",
    "split_value",
    "PathSelector",
    "get_path_selector",
    "k_shortest_paths",
    "heuristic_widest_paths",
    "edge_disjoint_widest_paths",
    "edge_disjoint_shortest_paths",
    "PriceTable",
    "PathRateController",
    "SCHEDULERS",
    "get_scheduler",
    "RateRouter",
]
