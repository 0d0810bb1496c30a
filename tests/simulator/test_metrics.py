"""Tests for the metric collectors."""

import pytest

from repro.routing.transaction import Payment
from repro.simulator.metrics import MetricsCollector, SchemeMetrics


def _completed_payment(value: float, latency: float) -> Payment:
    payment = Payment.create("a", "b", value, created_at=0.0, timeout=10.0)
    unit = payment.split(min_tu=value, max_tu=value)[0]
    unit.path = ("a", "x", "b")
    payment.record_unit_delivery(unit, now=latency)
    return payment


class TestMetricsCollector:
    def test_empty_collector(self):
        metrics = MetricsCollector("test").finalize()
        assert metrics.success_ratio == 0.0
        assert metrics.normalized_throughput == 0.0
        assert metrics.average_delay == 0.0

    def test_success_ratio_and_throughput(self):
        collector = MetricsCollector("test")
        for value in (10.0, 20.0, 30.0):
            collector.record_generated(value)
        collector.record_completed(_completed_payment(10.0, 0.5))
        collector.record_completed(_completed_payment(20.0, 1.5))
        failed = Payment.create("a", "b", 30.0, timeout=3.0)
        failed.fail()
        collector.record_failed(failed)
        metrics = collector.finalize()
        assert metrics.generated_count == 3
        assert metrics.completed_count == 2
        assert metrics.failed_count == 1
        assert metrics.success_ratio == pytest.approx(2 / 3)
        assert metrics.normalized_throughput == pytest.approx(30.0 / 60.0)
        assert metrics.average_delay == pytest.approx(1.0)
        assert metrics.median_delay == pytest.approx(1.0)
        assert metrics.transfer_hops == 4

    def test_overhead_and_fees(self):
        collector = MetricsCollector("test")
        collector.add_overhead(100.0)
        collector.add_overhead(50.0)
        collector.add_fees(1.5)
        metrics = collector.finalize()
        assert metrics.overhead_messages == 150.0
        assert metrics.fees_paid == 1.5

    def test_extra_values(self):
        collector = MetricsCollector("test")
        collector.set_extra("hub_count", 4.0)
        metrics = collector.finalize()
        assert metrics.extra["hub_count"] == 4.0
        assert metrics.as_dict()["hub_count"] == 4.0

    def test_bounds_invariants(self):
        collector = MetricsCollector("test")
        for value in (5.0, 7.0):
            collector.record_generated(value)
        collector.record_completed(_completed_payment(5.0, 0.2))
        metrics = collector.finalize()
        assert 0.0 <= metrics.success_ratio <= 1.0
        assert 0.0 <= metrics.normalized_throughput <= 1.0
        assert metrics.completed_value <= metrics.generated_value


class TestSchemeMetrics:
    def test_as_dict_round_values(self):
        metrics = SchemeMetrics(
            scheme="x",
            generated_count=10,
            completed_count=5,
            success_ratio=0.123456,
            normalized_throughput=0.654321,
        )
        row = metrics.as_dict()
        assert row["scheme"] == "x"
        assert row["success_ratio"] == pytest.approx(0.1235)
        assert row["normalized_throughput"] == pytest.approx(0.6543)


class TestTailDelays:
    def test_percentiles_track_the_tail(self):
        import numpy as np

        collector = MetricsCollector("test")
        latencies = [0.1 * i for i in range(1, 101)]
        for latency in latencies:
            collector.record_generated(1.0)
            collector.record_completed(_completed_payment(1.0, latency))
        metrics = collector.finalize()
        assert metrics.p90_delay == pytest.approx(float(np.percentile(latencies, 90)))
        assert metrics.p99_delay == pytest.approx(float(np.percentile(latencies, 99)))
        assert metrics.p99_delay > metrics.p90_delay > metrics.average_delay

    def test_percentiles_zero_without_completions(self):
        metrics = MetricsCollector("test").finalize()
        assert metrics.p90_delay == 0.0
        assert metrics.p99_delay == 0.0

    def test_as_dict_carries_tail_columns(self):
        collector = MetricsCollector("test")
        collector.record_generated(1.0)
        collector.record_completed(_completed_payment(1.0, 2.0))
        row = collector.finalize().as_dict()
        assert row["p90_delay"] == pytest.approx(2.0)
        assert row["p99_delay"] == pytest.approx(2.0)
