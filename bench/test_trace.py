"""Tests of the benchmark's own machinery: spans, the scheme proxy, the checks.

Run with ``python -m pytest bench -q`` (the tier-1 suite collects ``tests/`` only).
"""

import json
import os

import numpy as np
import pytest

from bench import checks
from bench.metrics import END_TO_END, PER_LAYER
from bench.spans import SchemeProxy, Tracer
from bench.workloads import WORKLOADS, write_payment_trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_spans_nest_and_carry_the_run_identifier():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.run = "seed=1|flash"
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
        with tracer.span("inner"):
            pass
    tracer.run = "seed=2|flash"
    with tracer.span("outer"):
        pass
    assert [(span.name, span.parent, span.run) for span in tracer.spans] == [
        ("outer", None, "seed=1|flash"),
        ("inner", 0, "seed=1|flash"),
        ("leaf", 1, "seed=1|flash"),
        ("inner", 0, "seed=1|flash"),
        ("outer", None, "seed=2|flash"),
    ]
    assert set(tracer.dump()[0]) == {"name", "start", "end", "parent", "run"}


def test_self_time_is_the_span_minus_its_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer"):
        clock.now += 1.0
        with tracer.span("inner"):
            clock.now += 2.0
            with tracer.span("leaf"):
                clock.now += 4.0
        clock.now += 8.0
        with tracer.span("inner"):
            clock.now += 16.0
    assert tracer.total("outer") == 31.0
    assert tracer.total("inner") == 22.0
    assert tracer.self_total("outer") == 9.0
    assert tracer.self_total("inner") == 18.0
    assert tracer.self_total("leaf") == 4.0
    # Self times partition the root: nothing is counted twice or lost.
    assert sum(tracer.self_times()) == tracer.total("outer")


def test_a_span_closes_when_its_body_raises():
    tracer = Tracer(FakeClock())
    with pytest.raises(KeyError):
        with tracer.span("outer"):
            raise KeyError("boom")
    with tracer.span("next"):
        pass
    assert tracer.spans[1].parent is None


@pytest.mark.parametrize("scheme", ["splicer", "landmark"])
def test_a_proxied_run_takes_the_same_decisions_as_a_bare_one(scheme):
    from repro.scenarios.registry import build_comparison_spec
    from repro.scenarios.spec import derive_seed

    def run(proxied: bool):
        spec = build_comparison_spec("small", [scheme], seeds=[3], duration=2.0)
        seed, overrides = spec.expand_runs()[0]
        runner, schemes = spec.with_overrides(overrides).build_experiment(seed)
        tracer = Tracer()
        driven = SchemeProxy(schemes[0], tracer, "scheme") if proxied else schemes[0]
        rng = np.random.default_rng(derive_seed(seed, "schemes"))
        return runner.run_single(driven, rng=rng).as_dict(), driven, tracer

    bare, _, _ = run(proxied=False)
    row, proxy, tracer = run(proxied=True)
    assert row == bare
    assert proxy.payments == row["generated_count"] > 0
    assert proxy.ticks == len(tracer.durations("scheme.step")) - 1  # finish() is a step span
    assert len(tracer.durations("scheme.prepare")) == 1


def test_benchmark_json_lists_exactly_the_metrics_the_benchmark_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]
    ] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == PER_LAYER
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert contract["paths"] == ["bench"]


def test_the_generated_trace_offers_the_same_work_for_every_seed(tmp_path):
    def read(seed):
        path = tmp_path / f"{seed}.csv"
        write_payment_trace(str(path), seed, payments=120, accounts=80)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert all(sender != recipient for _, _, sender, recipient, _ in rows)
        return rows

    first, again, other = read(5), read(5), read(6)
    assert first == again
    assert first != other
    for column in (2, 3, 4):  # senders, recipients, amounts: same multiset, other order
        assert sorted(row[column] for row in first) == sorted(row[column] for row in other)


def _write(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def _compare_row(seed, scheme, **overrides):
    metrics = {
        "generated_count": 10, "completed_count": 7, "failed_count": 3,
        "success_ratio": 0.7, "normalized_throughput": 0.5,
    }
    metrics.update(overrides)
    return {"run_key": f"k|{seed}|{scheme}", "seed": seed, "metrics": {scheme: metrics}}


def test_checks_accept_a_complete_grid(tmp_path):
    _write(tmp_path / "any-name.jsonl", [_compare_row(1, "flash"), _compare_row(1, "spider")])
    report = checks.check_results(
        str(tmp_path), "compare", checks.expected_compare([1], ["flash", "spider"])
    )
    assert report.violations == []
    assert report.failed_share == 0.0


def test_checks_flag_missing_failed_quarantined_and_inconsistent_shards(tmp_path):
    _write(
        tmp_path / "compare-x.jsonl",
        [
            _compare_row(1, "flash", completed_count=9),  # 9 + 3 != 10
            _compare_row(1, "spider", success_ratio=1.5),
            _compare_row(2, "flash"),
            _compare_row(2, "flash"),  # written twice
            {"run_key": "k|2|spider", "status": "failed", "failure": "exception",
             "error": "ValueError", "attempt": 0, "final": False},
        ],
    )
    _write(tmp_path / "compare-x.quarantine.jsonl", [{"run_key": "k|2|spider", "error": "E"}])
    report = checks.check_results(
        str(tmp_path), "compare", checks.expected_compare([1, 2], ["flash", "spider"])
    )
    text = "\n".join(report.violations)
    for needle in ("generated 10 != completed+failed 12", "success_ratio=1.5",
                   "written 2 times", "failure row", "quarantined", "found 0", "found 2"):
        assert needle in text
    assert report.failed_share == 1.0
    assert len(report.failure_rows) == 1


def test_checks_require_a_hub_and_finite_costs_of_every_placement(tmp_path):
    good = {"run_key": "a", "seed": 1, "method": "greedy", "omega": 0.5, "hub_count": 3,
            "management_cost": 1.0, "synchronization_cost": 2.0, "balance_cost": 3.0}
    bad = dict(good, run_key="b", method="greedy-det", hub_count=0, balance_cost=float("nan"))
    _write(tmp_path / "place.jsonl", [good, bad])
    report = checks.check_results(
        str(tmp_path), "place-compare",
        checks.expected_place([1], ["greedy", "greedy-det"], [0.5]),
    )
    assert len(report.violations) == 2
    assert report.failed_share == 0.5
