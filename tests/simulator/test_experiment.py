"""Tests for the experiment runner."""

import pytest

from repro.baselines import ShortestPathScheme, SplicerScheme
from repro.baselines.base import RoutingScheme, SchemeStepReport
from repro.core.config import SplicerConfig
from repro.routing.router import RouterConfig
from repro.routing.transaction import Payment
from repro.simulator.experiment import ExperimentResult, ExperimentRunner
from repro.simulator.workload import WorkloadConfig, generate_workload


class AcceptAllScheme(RoutingScheme):
    """Toy scheme that instantly completes every payment (for runner tests)."""

    name = "accept-all"

    def __init__(self) -> None:
        super().__init__()
        self._report = SchemeStepReport()

    def submit(self, request, now):
        payment = Payment.create(
            request.sender, request.recipient, request.value, created_at=now, timeout=self.timeout
        )
        unit = payment.split(min_tu=request.value, max_tu=request.value)[0]
        payment.record_unit_delivery(unit, now)
        self._report.completed.append(payment)
        return payment

    def step(self, now, dt):
        report = self._report
        self._report = SchemeStepReport()
        return report


class RejectAllScheme(RoutingScheme):
    """Toy scheme that fails every payment."""

    name = "reject-all"

    def __init__(self) -> None:
        super().__init__()
        self._report = SchemeStepReport()

    def submit(self, request, now):
        payment = Payment.create(
            request.sender, request.recipient, request.value, created_at=now, timeout=self.timeout
        )
        payment.fail()
        self._report.failed.append(payment)
        return payment

    def step(self, now, dt):
        report = self._report
        self._report = SchemeStepReport()
        return report


@pytest.fixture
def workload(small_ws_network, value_distribution):
    config = WorkloadConfig(
        duration=5.0, arrival_rate=8.0, seed=11, value_distribution=value_distribution
    )
    return generate_workload(small_ws_network, config)


class TestExperimentRunner:
    def test_toy_schemes_bound_the_metrics(self, small_ws_network, workload):
        runner = ExperimentRunner(small_ws_network, workload, step_size=0.2, drain_time=1.0)
        result = runner.run([AcceptAllScheme(), RejectAllScheme()])
        accept = result.scheme("accept-all")
        reject = result.scheme("reject-all")
        assert accept.success_ratio == pytest.approx(1.0)
        assert accept.normalized_throughput == pytest.approx(1.0)
        assert reject.success_ratio == 0.0
        assert reject.generated_count == workload.count

    def test_network_state_restored_between_schemes(self, small_ws_network, workload):
        snapshot = small_ws_network.snapshot()
        runner = ExperimentRunner(small_ws_network, workload, step_size=0.2, drain_time=1.0)
        runner.run([ShortestPathScheme(), ShortestPathScheme()])
        runner.reset_network()
        assert small_ws_network.snapshot() == snapshot

    def test_real_scheme_produces_sensible_metrics(self, small_ws_network, workload):
        runner = ExperimentRunner(small_ws_network, workload, step_size=0.2, drain_time=2.0)
        config = SplicerConfig(router=RouterConfig(path_count=3), placement_method="greedy")
        metrics = runner.run_single(SplicerScheme(config))
        assert metrics.generated_count == workload.count
        assert 0.0 <= metrics.success_ratio <= 1.0
        assert 0.0 <= metrics.normalized_throughput <= 1.0
        assert metrics.completed_count + metrics.failed_count <= metrics.generated_count
        assert metrics.overhead_messages > 0

    def test_invalid_parameters(self, small_ws_network, workload):
        with pytest.raises(ValueError):
            ExperimentRunner(small_ws_network, workload, step_size=0.0)
        with pytest.raises(ValueError):
            ExperimentRunner(small_ws_network, workload, drain_time=-1.0)

    def test_run_records_parameters(self, small_ws_network, workload):
        runner = ExperimentRunner(small_ws_network, workload, step_size=0.2, drain_time=0.5)
        result = runner.run([AcceptAllScheme()], parameters={"label": "unit-test"})
        assert result.parameters["label"] == "unit-test"
        assert result.workload_count == workload.count


class TestExperimentResult:
    def _result(self):
        metrics = {
            "a": __import__("repro.simulator.metrics", fromlist=["SchemeMetrics"]).SchemeMetrics(
                scheme="a", success_ratio=0.9, normalized_throughput=0.8
            ),
            "b": __import__("repro.simulator.metrics", fromlist=["SchemeMetrics"]).SchemeMetrics(
                scheme="b", success_ratio=0.6, normalized_throughput=0.4
            ),
        }
        return ExperimentResult(metrics=metrics, workload_count=10, workload_value=100.0)

    def test_ranking(self):
        result = self._result()
        assert result.ranking("success_ratio") == ["a", "b"]
        assert result.schemes() == ["a", "b"]

    def test_improvement(self):
        result = self._result()
        assert result.improvement("a", "b", "success_ratio") == pytest.approx(0.5)
        assert result.improvement("a", "b", "normalized_throughput") == pytest.approx(1.0)

    def test_improvement_zero_baseline(self):
        result = self._result()
        result.metrics["b"].success_ratio = 0.0
        assert result.improvement("a", "b", "success_ratio") == float("inf")
        result.metrics["a"].success_ratio = 0.0
        assert result.improvement("a", "b", "success_ratio") == 0.0

    def test_as_rows(self):
        rows = self._result().as_rows()
        assert len(rows) == 2
        assert rows[0]["scheme"] == "a"
