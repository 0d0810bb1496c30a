"""Figure 9: evaluation of smooth-node placement.

(a)-(d) read the placement pipeline's rows (``place-compare``, seed 1, the
paper's seven omegas): the optimum vs the double-greedy model at ``small``
(60 nodes) and the model alone at ``medium`` (200 nodes).

* 9(a) balance cost vs omega, model vs exact optimum,
* 9(b) management / synchronization cost tradeoff along omega,
* 9(c)/(d) number of placed smooth nodes vs omega at both scales,
* 9(e)/(f) decision delay vs control overhead with and without PCHs.
"""

import pytest

from .conftest import show
from repro.analysis.tables import fig9_table
from repro.baselines import ShortestPathScheme, SplicerScheme
from repro.core.config import SplicerConfig
from repro.placement.compare import PLACEMENT_SCALES, build_place_network

DELAY_OMEGAS = [0.02, 0.1, 0.5]


@pytest.fixture(scope="module")
def small(place):
    return place("small", ["exact", "greedy"])


@pytest.fixture(scope="module")
def medium(place):
    return place("medium", ["greedy"])


def _method_rows(rows, method):
    return [row for row in rows if row["method"] == method]


def test_fig9a_balance_cost(small):
    """Balance cost vs omega: the greedy model tracks the exact optimum closely."""
    show("Figure 9(a): balance cost vs omega (small)", fig9_table(small, ["exact", "greedy"]))
    gaps = [
        0.0 if exact["balance_cost"] == 0 else
        100.0 * (greedy["balance_cost"] - exact["balance_cost"]) / exact["balance_cost"]
        for exact, greedy in zip(_method_rows(small, "exact"), _method_rows(small, "greedy"))
    ]
    assert max(gaps) <= 25.0
    assert sum(gaps) / len(gaps) <= 10.0


def test_fig9b_cost_tradeoff(small):
    """Management vs synchronization cost move in opposite directions along omega."""
    exact = _method_rows(small, "exact")
    columns = ("omega", "hub_count", "management_cost", "synchronization_cost", "balance_cost")
    show("Figure 9(b): cost tradeoff along omega (small, exact)",
         [{key: row[key] for key in columns} for row in exact])
    assert exact[0]["management_cost"] <= exact[-1]["management_cost"] + 1e-9
    assert exact[0]["synchronization_cost"] >= exact[-1]["synchronization_cost"] - 1e-9


def test_fig9cd_hub_count(small, medium):
    """Cheaper synchronization (small omega) places more hubs; the larger network needs more."""
    show("Figure 9(d): smooth nodes vs omega (medium)", fig9_table(medium, ["greedy"]))
    for counts in ([row["hub_count"] for row in _method_rows(small, "exact")],
                   [row["hub_count"] for row in medium]):
        assert counts[0] >= counts[-1]
        assert all(count >= 1 for count in counts)
    assert medium[0]["hub_count"] >= _method_rows(small, "exact")[0]["hub_count"]


@pytest.mark.parametrize("scale", ["small", "medium"])
def test_fig9ef_delay_overhead(scale):
    """Placed PCHs decide faster than source routing, trading hubs for sync traffic.

    With PCHs a client only talks to its (nearby, placement-optimized) hub,
    but the hubs pay per-epoch synchronization traffic; without PCHs every
    sender computes routes itself, at a per-payment delay that grows with
    the network size.
    """
    nodes = int(PLACEMENT_SCALES[scale]["nodes"])
    network = build_place_network({"nodes": nodes}, seed=1)
    table = []
    for omega in DELAY_OMEGAS:
        splicer = SplicerScheme(SplicerConfig(omega=omega, placement_method="greedy", placement_seed=0))
        splicer.prepare(network)
        clients = list(splicer.placement_plan.assignment)
        table.append({
            "scheme": f"splicer (omega={omega})",
            "hub_count": splicer.placement_plan.hub_count,
            "decision_delay": round(sum(map(splicer.management_delay, clients)) / len(clients), 4),
            "mgmt_hops_per_payment": round(sum(map(splicer.management_hops, clients)) / len(clients), 2),
            "sync_hops_per_epoch": splicer.sync_message_hops_per_epoch(),
        })
    source = ShortestPathScheme()
    source.prepare(network)
    table.append({"scheme": "no PCH (source routing)", "hub_count": 0,
                  "decision_delay": round(source.computation.delay_for(nodes), 4),
                  "mgmt_hops_per_payment": 0.0, "sync_hops_per_epoch": 0})
    show(f"Figure 9(e)/(f): decision delay vs overhead with and without PCHs ({scale})", table)
    *hubs, baseline = table
    assert min(row["decision_delay"] for row in hubs) < baseline["decision_delay"]
    assert hubs[0]["decision_delay"] <= hubs[-1]["decision_delay"] + 1e-9
    assert hubs[0]["sync_hops_per_epoch"] >= hubs[-1]["sync_hops_per_epoch"]
