"""Figures 7 and 8 and the section V-B headline: the five-scheme comparison.

Figure 7 is the comparison pipeline's ``small`` scale (60 nodes, 20
payments/s), figure 8 its ``medium`` scale (200 nodes, 30 payments/s; the
paper's 3000 nodes is ``python -m repro compare --scale paper``).  One test
per subplot, each parametrized over both figures:

* (a) success ratio vs channel size,
* (b) success ratio vs transaction size,
* (c) success ratio vs price-update interval tau (rate-based schemes plus A2L),
* (d) normalized throughput at the default operating point.

The headline reuses (d)'s rows at both scales.
"""

import pytest

from .conftest import SCHEMES, pick, scheme, show
from repro.analysis.stats import mean_improvement

FIGURES = {"small": "Figure 7", "medium": "Figure 8"}
SCALES = pytest.mark.parametrize("scale", list(FIGURES))

CHANNEL_SCALES = [0.5, 1.0, 2.0]
VALUE_SCALES = [0.5, 1.0, 2.0]
UPDATE_INTERVALS = [0.1, 0.2, 0.4]

FIVE = [scheme(name) for name in SCHEMES]
SPLICER, A2L = FIVE[0], FIVE[-1]


def _channel_rows(compare, scale):
    return compare(scale, FIVE, channel_scales=CHANNEL_SCALES)


def _tsr_table(rows, axis, values):
    return [
        {axis: value, **{e["name"]: pick(rows, e, **{axis: value})["success_ratio"] for e in FIVE}}
        for value in values
    ]


@SCALES
def test_channel_size(compare, scale):
    """TSR vs channel size: Splicer beats A2L everywhere; bigger channels never hurt it."""
    table = _tsr_table(_channel_rows(compare, scale), "channel_scale", CHANNEL_SCALES)
    show(f"{FIGURES[scale]}(a): TSR vs channel size ({scale})", table)
    assert all(row["splicer"] >= row["a2l"] for row in table)
    assert table[-1]["splicer"] >= table[0]["splicer"] - 0.05


@SCALES
def test_transaction_size(compare, scale):
    """TSR vs transaction size: Splicer beats A2L everywhere; bigger payments are not easier."""
    rows = compare(scale, FIVE, value_scales=VALUE_SCALES)
    table = _tsr_table(rows, "value_scale", VALUE_SCALES)
    show(f"{FIGURES[scale]}(b): TSR vs transaction size ({scale})", table)
    assert all(row["splicer"] >= row["a2l"] for row in table)
    assert table[0]["splicer"] >= table[-1]["splicer"] - 0.05


@SCALES
def test_update_time(compare, scale):
    """TSR vs tau: Splicer stays ahead of the single-hub PCH at every update interval."""
    splicers = {tau: scheme("splicer", update_interval=tau) for tau in UPDATE_INTERVALS}
    rows = compare(scale, [*splicers.values(), scheme("spider"), A2L])
    table = [
        {
            "update_interval": tau,
            "splicer": pick(rows, entry)["success_ratio"],
            "spider": pick(rows, scheme("spider"))["success_ratio"],
            "a2l": pick(rows, A2L)["success_ratio"],
        }
        for tau, entry in splicers.items()
    ]
    show(f"{FIGURES[scale]}(c): TSR vs update time ({scale})", table)
    assert all(row["splicer"] >= row["a2l"] for row in table)


@SCALES
def test_throughput(compare, scale):
    """Normalized throughput: Splicer beats the baselines' mean and Spider."""
    rows = _channel_rows(compare, scale)
    columns = ("success_ratio", "normalized_throughput", "average_delay", "p99_delay")
    table = [{"scheme": e["name"], **{key: pick(rows, e)[key] for key in columns}} for e in FIVE]
    show(f"{FIGURES[scale]}(d): normalized throughput by scheme ({scale})", table)
    splicer, *others = [row["normalized_throughput"] for row in table]
    assert splicer >= sum(others) / len(others)
    assert splicer >= others[0]  # Spider


def test_headline_improvements(compare):
    """Mean TSR / throughput gain of Splicer over the four baselines is positive at both scales.

    The paper reports +42 % TSR and +29.3 % throughput; the percentages
    depend on the testbed and are printed, not asserted.
    """
    table = []
    for scale in FIGURES:
        rows = _channel_rows(compare, scale)
        row = {"scale": scale}
        for metric, label in (("success_ratio", "tsr"), ("normalized_throughput", "throughput")):
            ours = [pick(rows, SPLICER)[metric]]
            baselines = {e["name"]: [pick(rows, e)[metric]] for e in FIVE[1:]}
            row[f"splicer_{label}"] = ours[0]
            row[f"mean_{label}_gain_%"] = round(mean_improvement(ours, baselines), 1)
        table.append(row)
    show("Headline: mean gain over the four baselines (paper: +42% TSR, +29.3% throughput)", table)
    assert all(row["mean_tsr_gain_%"] > 0.0 for row in table)
    assert all(row["mean_throughput_gain_%"] > 0.0 for row in table)
