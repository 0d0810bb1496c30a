"""The per-process seed runner cache of ``execute_run``.

The scheme shards of one seed replay the process's cached experiment runner
(network, workload, dynamics events) instead of rebuilding it.  These tests
pin what that may change -- nothing in a row -- and when the cache must not
serve: another seed, a non-scheme override, a moved topology, a shard that
raised.
"""

import json
from dataclasses import asdict

import pytest

from repro.scenarios import jsonl, runner as runner_module
from repro.scenarios.registry import build_comparison_spec, get_scenario
from repro.scenarios.runner import ScenarioRunner, clear_seed_runner, execute_run
from repro.scenarios.spec import TopologySpec, derive_seed
from repro.simulator.experiment import ExperimentRunner
from repro.topology import shared


@pytest.fixture
def topology_builds(monkeypatch):
    """The base seed of every topology build, with a cold cache to start."""
    monkeypatch.setattr(runner_module, "_SEED_RUNNER", {})
    builds = []
    build = TopologySpec.build
    seeds = {derive_seed(seed, "topology"): seed for seed in range(1, 5)}

    def spy(topology, seed):
        builds.append(seeds.get(seed, seed))
        return build(topology, seed)

    monkeypatch.setattr(TopologySpec, "build", spy)
    return builds


def comparison_spec(seeds=(1, 2)):
    return build_comparison_spec(
        "small",
        ["shortest-path", "spider", "flash", "waterfilling"],
        seeds=list(seeds),
        duration=1.5,
        nodes=30,
    )


def snapshot_trace_spec():
    return build_comparison_spec(
        "small",
        ["landmark", "speedymurmurs", "splicer"],
        seeds=[1, 2],
        duration=2.0,
        nodes=40,
        topology_source="lightning-snapshot",
        workload_source="ripple-trace",
    )


def churn_spec():
    """``channel-churn`` sharded one scheme per run, as ``compare`` shards."""
    spec = get_scenario("channel-churn").with_overrides(
        {"topology.params.node_count": 30, "workload.duration": 2.0}
    )
    spec.grid = {"schemes.0": [asdict(scheme) for scheme in spec.scheme_specs()]}
    spec.schemes = spec.schemes[:1]
    spec.seeds = [1]
    return spec


def tasks(spec):
    return [(spec.to_dict(), seed, overrides) for seed, overrides in spec.expand_runs()]


def as_json(rows):
    return [json.dumps(row, sort_keys=True) for row in rows]


class TestReuse:
    def test_a_seeds_scheme_shards_build_its_topology_once(self, topology_builds):
        rows = [execute_run(task) for task in tasks(comparison_spec())]
        assert len(rows) == 8
        assert topology_builds == [1, 2]

    @pytest.mark.parametrize(
        "make_spec", [comparison_spec, snapshot_trace_spec, churn_spec],
        ids=["comparison", "snapshot-x-trace", "channel-churn"],
    )
    def test_rows_equal_a_fresh_runner_per_shard(self, make_spec, topology_builds):
        spec = make_spec()
        reused = [execute_run(task) for task in tasks(spec)]
        fresh = []
        for task in tasks(spec):
            clear_seed_runner()  # what a new worker process starts with
            fresh.append(execute_run(task))
        assert as_json(reused) == as_json(fresh)

    def test_a_moved_topology_is_rebuilt(self, topology_builds):
        # Churn closes and reopens channels: every shard of the seed rebuilds,
        # since a reconciled network breaks path ties differently.
        spec = churn_spec()
        for task in tasks(spec):
            execute_run(task)
            (cached,) = runner_module._SEED_RUNNER.values()
            assert cached.topology_moved
        assert topology_builds == [1] * len(spec.expand_runs())

    def test_another_seed_evicts(self, topology_builds):
        first, _, _, _, other, *_ = tasks(comparison_spec())
        for task in (first, other, first):
            execute_run(task)
        assert topology_builds == [1, 2, 1]
        assert len(runner_module._SEED_RUNNER) == 1

    def test_a_non_scheme_override_never_uses_the_entry(self, topology_builds):
        first, second = tasks(comparison_spec(seeds=[1]))[:2]
        base = execute_run(first)
        scaled = execute_run((first[0], 1, {"workload.value_scale": 3.0}))
        assert scaled["workload_value"] == pytest.approx(3.0 * base["workload_value"], rel=1e-3)
        assert runner_module._SEED_RUNNER == {}  # dropped, and its runner not kept
        execute_run(second)
        assert topology_builds == [1, 1, 1]

    def test_a_shard_that_raises_drops_the_entry(self, topology_builds, monkeypatch):
        first, second = tasks(comparison_spec(seeds=[1]))[:2]
        execute_run(first)
        run_single = ExperimentRunner.run_single

        def broken(self, scheme, rng=None, dynamics=None):
            raise RuntimeError("scheme blew up mid-run")

        monkeypatch.setattr(ExperimentRunner, "run_single", broken)
        with pytest.raises(RuntimeError, match="mid-run"):
            execute_run(second)
        assert runner_module._SEED_RUNNER == {}
        monkeypatch.setattr(ExperimentRunner, "run_single", run_single)
        execute_run(second)
        assert topology_builds == [1, 1]


class TestSerialSweep:
    def test_a_retried_shard_rebuilds_and_rows_match_a_clean_sweep(
        self, topology_builds, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(jsonl, "BACKOFF_BASE", 0.0)
        spec = comparison_spec(seeds=[1])
        clean = ScenarioRunner(spec, results_dir=str(tmp_path / "clean")).run()
        assert topology_builds == [1]

        run_single = ExperimentRunner.run_single
        calls = []

        def fails_once_on_the_second_shard(self, scheme, rng=None, dynamics=None):
            calls.append(scheme.name)
            if len(calls) == 2:
                raise RuntimeError("transient")
            return run_single(self, scheme, rng=rng, dynamics=dynamics)

        monkeypatch.setattr(ExperimentRunner, "run_single", fails_once_on_the_second_shard)
        clear_seed_runner()
        retried = ScenarioRunner(spec, results_dir=str(tmp_path / "retried")).run()
        assert retried.retries == 1
        # One build for the clean sweep, then the retried sweep's first build
        # and the one after its failed shard dropped the runner.
        assert topology_builds == [1, 1, 1]
        assert as_json(retried.rows) == as_json(clean.rows)

    def test_one_worker_exports_no_shared_memory(self, topology_builds, monkeypatch, tmp_path):
        exports = []
        monkeypatch.setattr(
            shared.SharedTopologyBlock, "from_network",
            classmethod(lambda cls, network: exports.append(network)),
        )
        before = shared.scan_segments()
        report = ScenarioRunner(
            comparison_spec(), results_dir=str(tmp_path), workers=1, shared_topology=True
        ).run()
        assert report.executed == 8
        assert exports == []
        assert shared.scan_segments() == before
        assert topology_builds == [1, 2]
