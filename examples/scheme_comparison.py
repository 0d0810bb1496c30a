"""Compare Splicer against the paper's baselines on one shared workload.

A compact version of the figure-7 experiment: one 80-node PCN, one
heavy-tailed workload with deadlock-inducing circulations, five routing
schemes.  Prints the per-scheme transaction success ratio, normalized
throughput, delay and overhead.

Run with::

    python examples/scheme_comparison.py
"""

from repro.analysis.tables import result_table
from repro.baselines import A2LScheme, FlashScheme, LandmarkScheme, SpiderScheme, SplicerScheme
from repro.core.config import SplicerConfig
from repro.simulator.experiment import ExperimentRunner
from repro.simulator.workload import WorkloadConfig, generate_workload
from repro.topology.datasets import ChannelSizeDistribution, TransactionValueDistribution
from repro.topology.generators import watts_strogatz_pcn


def main() -> None:
    network = watts_strogatz_pcn(
        node_count=80,
        nearest_neighbors=8,
        rewire_probability=0.25,
        channel_sizes=ChannelSizeDistribution(),
        candidate_fraction=0.15,
        seed=3,
    )
    workload = generate_workload(
        network,
        WorkloadConfig(
            duration=20.0,
            arrival_rate=30.0,
            seed=4,
            value_distribution=TransactionValueDistribution(
                mean_value=15.0, tail_fraction=0.08, tail_start=80.0
            ),
            recipient_skew=1.2,
            deadlock_fraction=0.2,
        ),
    )
    print(
        f"Workload: {workload.count} payments, {workload.total_value:.0f} tokens total, "
        f"over {network.node_count()} nodes\n"
    )

    schemes = [
        SplicerScheme(SplicerConfig(placement_method="greedy")),
        SpiderScheme(),
        FlashScheme(),
        LandmarkScheme(),
        A2LScheme(),
    ]
    runner = ExperimentRunner(network, workload, step_size=0.1, drain_time=4.0)
    result = runner.run(schemes)
    print(result_table(result))

    print("\nRelative improvement of Splicer (success ratio / throughput):")
    for name in result.schemes():
        if name == "splicer":
            continue
        tsr_gain = 100.0 * result.improvement("splicer", name, "success_ratio")
        thr_gain = 100.0 * result.improvement("splicer", name, "normalized_throughput")
        print(f"  vs {name:<10} +{tsr_gain:6.1f}% TSR   +{thr_gain:6.1f}% throughput")


if __name__ == "__main__":
    main()
