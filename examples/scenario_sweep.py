"""Example: define a custom scenario, sweep a grid in parallel, and resume.

Demonstrates the three layers of the scenario subsystem:

1. a declarative :class:`~repro.scenarios.spec.ScenarioSpec` (here: the
   paper topology under a channel-jamming adversary, sweeping the jammed
   fraction),
2. mid-run network dynamics resolved against the generated topology,
3. the parallel, resumable :class:`~repro.scenarios.runner.ScenarioRunner`.

Run it twice: the second invocation reports zero executed runs because every
(seed, grid point) is already in the JSONL results file.

    PYTHONPATH=src python examples/scenario_sweep.py
"""

from repro.analysis.tables import scenario_table
from repro.scenarios.registry import get_scenario, register_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import DynamicsEventSpec, ScenarioSpec, SchemeSpec


@register_scenario
def jamming_sweep() -> ScenarioSpec:
    """Paper-default conditions, sweeping how hard the adversary jams."""
    spec = get_scenario("paper-default")
    spec.name = "jamming-sweep"
    spec.description = "jammed-fraction sweep on the paper-default setting"
    spec.workload.duration = 4.0
    spec.schemes = [SchemeSpec(name="splicer"), SchemeSpec(name="spider"), SchemeSpec(name="flash")]
    spec.dynamics = [
        DynamicsEventSpec(kind="jamming", time=1.0, duration=6.0, params={"count": 10})
    ]
    spec.seeds = [1, 2]
    spec.grid = {"dynamics.0.params.fraction": [0.5, 0.9]}
    return spec


def main() -> None:
    spec = get_scenario("jamming-sweep")
    runner = ScenarioRunner(spec, results_dir="results/scenarios", workers=2)
    report = runner.run(on_row=lambda row: print(f"  done {row['run_key']}"))
    print(
        f"\n{report.name}: executed {report.executed}, "
        f"skipped {report.skipped} (already in {report.results_path})\n"
    )
    print(scenario_table(report.rows))


if __name__ == "__main__":
    main()
