"""Table II and the mechanism ablations: one sweep of Splicer's router settings.

Every variant is a Splicer entry of the comparison pipeline's ``small``
scale (seed 1), changing one router setting from its default:

* path type   -- KSP vs heuristic vs edge-disjoint widest vs edge-disjoint shortest,
* path number -- 1 / 3 / 5 / 7 edge-disjoint widest paths,
* scheduling  -- FIFO / LIFO / SPF / EDF waiting-queue scheduling,
* ablations   -- price-based rate control or the imbalance price (deadlock
  avoidance) switched off.

The paper's congestion-control ablation has no row: the router keeps no
congestion windows (equations 27-28), which changed no measured outcome.
"""

import pytest

from .conftest import pick, scheme, show

TABLE2 = {
    "path_type": ["ksp", "heuristic", "edw", "eds"],
    "path_count": [1, 3, 5, 7],
    "scheduler": ["fifo", "lifo", "spf", "edf"],
}
ABLATIONS = {
    "full splicer": scheme("splicer"),
    "single path (k=1)": scheme("splicer", path_count=1),
    "no rate control": scheme("splicer", rate_control_enabled=False),
    "no imbalance pricing": scheme("splicer", imbalance_pricing_enabled=False),
}

VARIANTS = [scheme("splicer", **{key: value}) for key, values in TABLE2.items() for value in values]
ENTRIES = list({repr(entry): entry for entry in VARIANTS + list(ABLATIONS.values())}.values())


@pytest.fixture(scope="module")
def rows(compare):
    return compare("small", ENTRIES)


@pytest.mark.parametrize("setting", list(TABLE2))
def test_table2(rows, setting):
    """EDW is the strongest path type, k saturates by 5, LIFO leads the schedulers."""
    row = {
        str(value): pick(rows, scheme("splicer", **{setting: value}))["success_ratio"]
        for value in TABLE2[setting]
    }
    show(f"Table II: Splicer TSR by {setting} (small)", [row])
    if setting == "path_type":
        assert row["edw"] >= row["ksp"] - 0.05
    elif setting == "path_count":
        assert row["5"] >= row["1"] - 0.06
        assert abs(row["7"] - row["5"]) <= 0.02
    else:
        assert row["lifo"] >= max(row.values()) - 0.08


def test_mechanism_ablations(rows):
    """Disabling each mechanism reports its cost; the full system stays competitive."""
    table = [
        {"variant": label, **{metric: pick(rows, entry)[metric] for metric in
                              ("success_ratio", "normalized_throughput", "average_delay")}}
        for label, entry in ABLATIONS.items()
    ]
    show("Ablations of Splicer's routing mechanisms (small)", table)
    full, single = table[0]["success_ratio"], table[1]["success_ratio"]
    assert full > 0.0
    assert full >= single - 0.02
    for row in table:
        assert full >= row["success_ratio"] - 0.10, row["variant"]
