"""End-to-end integration tests: full system runs on shared workloads.

These tests exercise the whole stack (topology generation, candidate
election, placement, the counted workflow, rate-based routing, the
discrete-event harness and the metric collectors) on small-but-loaded
scenarios, and check the *qualitative* claims of the paper rather than
absolute numbers.
"""

from collections import Counter

import numpy as np
import pytest

from repro.analysis.stats import improvement_percent
from repro.baselines import (
    A2LScheme,
    FlashScheme,
    LandmarkScheme,
    ShortestPathScheme,
    SpiderScheme,
    SplicerScheme,
)
from repro.core.config import SplicerConfig
from repro.routing.router import RouterConfig
from repro.simulator.experiment import ExperimentRunner
from repro.simulator.workload import TransactionRequest, WorkloadConfig, generate_workload
from repro.topology.datasets import ChannelSizeDistribution, TransactionValueDistribution
from repro.topology.generators import watts_strogatz_pcn


@pytest.fixture(scope="module")
def comparison_result():
    """One loaded comparison run shared by the assertions below."""
    network = watts_strogatz_pcn(
        60,
        nearest_neighbors=6,
        rewire_probability=0.25,
        channel_sizes=ChannelSizeDistribution(),
        candidate_fraction=0.15,
        seed=31,
    )
    workload = generate_workload(
        network,
        WorkloadConfig(
            duration=15.0,
            arrival_rate=30.0,
            seed=32,
            value_distribution=TransactionValueDistribution(
                mean_value=15.0, tail_fraction=0.08, tail_start=80.0
            ),
            recipient_skew=1.2,
            deadlock_fraction=0.2,
        ),
    )
    splicer_config = SplicerConfig(placement_method="greedy")
    runner = ExperimentRunner(network, workload, step_size=0.1, drain_time=4.0)
    schemes = [
        SplicerScheme(splicer_config),
        SpiderScheme(),
        FlashScheme(),
        LandmarkScheme(),
        A2LScheme(),
    ]
    return runner.run(schemes)


class TestSchemeComparison:
    def test_all_schemes_produce_valid_metrics(self, comparison_result):
        for name in comparison_result.schemes():
            metrics = comparison_result.scheme(name)
            assert 0.0 <= metrics.success_ratio <= 1.0
            assert 0.0 <= metrics.normalized_throughput <= 1.0
            assert metrics.completed_value <= metrics.generated_value + 1e-9
            assert metrics.completed_count + metrics.failed_count <= metrics.generated_count

    def test_splicer_has_best_success_ratio(self, comparison_result):
        ranking = comparison_result.ranking("success_ratio")
        assert ranking[0] == "splicer"

    def test_splicer_beats_the_average_baseline_throughput(self, comparison_result):
        splicer = comparison_result.scheme("splicer").normalized_throughput
        others = [
            comparison_result.scheme(name).normalized_throughput
            for name in comparison_result.schemes()
            if name != "splicer"
        ]
        assert splicer > float(np.mean(others))

    def test_splicer_beats_the_single_hub_pch(self, comparison_result):
        assert improvement_percent(
            comparison_result.scheme("splicer").success_ratio,
            comparison_result.scheme("a2l").success_ratio,
        ) > 10.0

    def test_rate_based_schemes_beat_atomic_landmark_on_tsr(self, comparison_result):
        assert (
            comparison_result.scheme("spider").success_ratio
            >= comparison_result.scheme("landmark").success_ratio - 0.05
        )


class TestPlacementReducesManagementDelay:
    def test_splicer_management_delay_below_source_computation(self):
        """Figure 9(e)/(f) direction: hub-assisted routing cuts the decision delay."""
        network = watts_strogatz_pcn(
            80, nearest_neighbors=6, candidate_fraction=0.15, uniform_channel_size=300.0, seed=41
        )
        splicer = SplicerScheme(SplicerConfig(placement_method="greedy"))
        splicer.prepare(network)
        source_routing = ShortestPathScheme()
        source_routing.prepare(network)
        client = sorted(network.clients(), key=repr)[0]
        hub_delay = splicer.management_delay(client)
        source_delay = source_routing.computation.delay_for(network.node_count())
        assert hub_delay < source_delay


class TestDeadlockScenario:
    def test_figure1_circulation_survives_under_splicer(self, triangle_network):
        """The figure-1 workload keeps the B -> A direction working, and the
        router settles every unit it accepted.

        The outcome is pinned per direction once the run drains: the flows
        into B complete until their channels run dry and fail after that,
        while every late B -> A payment completes.
        """
        config = SplicerConfig(
            router=RouterConfig(path_count=1, hop_delay=0.01, eta=0.5),
            placement_method="greedy",
        )
        # C, the relay, is the only candidate and so the one hub.
        triangle_network.set_role("C", "candidate")
        scheme = SplicerScheme(config)
        scheme.prepare(triangle_network)
        assert list(scheme.placement_plan.hubs) == ["C"]
        completed_late_circulation = 0
        submitted = []
        now = 0.0
        for round_number in range(15):
            now = round_number * 0.4

            def submit(sender, recipient, value):
                request = TransactionRequest(
                    arrival_time=now, sender=sender, recipient=recipient, value=value
                )
                submitted.append(scheme.submit(request, now))
                return submitted[-1]

            submit("A", "B", 1.0)
            submit("C", "B", 2.0)
            late = submit("B", "A", 1.0) if round_number >= 10 else None
            for sub_step in range(1, 5):
                scheme.step(now + sub_step * 0.1, 0.1)
            if late is not None and late.is_complete:
                completed_late_circulation += 1
        # Even after the imbalanced phase, the B -> A direction keeps working.
        assert completed_late_circulation == 5

        # Every accepted unit settles or is released: nothing stays queued or
        # locked, each payment ends, and no channel gains or loses funds.
        scheme.router.drain(6.0, 0.1)
        assert scheme.router.queued_unit_count() == 0
        assert scheme.router.in_flight_count() == 0
        assert all(payment.is_complete or payment.is_failed for payment in submitted)
        outcome = Counter((p.sender, p.recipient, p.is_complete) for p in submitted)
        assert outcome == {
            ("A", "B", True): 7, ("A", "B", False): 8,
            ("C", "B", True): 4, ("C", "B", False): 11,
            ("B", "A", True): 5,
        }
        for a, b in (("A", "C"), ("C", "B")):
            channel = triangle_network.channel(a, b)
            assert channel.balance(a) + channel.balance(b) == pytest.approx(20.0)
