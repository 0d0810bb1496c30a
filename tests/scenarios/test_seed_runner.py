"""The cross-shard runner cache of ``execute_run``.

The scheme shards of one seed replay the process's kept experiment runner
(network, workload, dynamics events) instead of rebuilding it, and a shard
that builds the same topology otherwise -- another seed of an unseeded
snapshot, a workload override -- reuses the runner's network.  These tests
pin what that may change -- nothing in a row -- and when neither may serve:
another topology, a moved topology, a shard that raised.  Reuse is the only
way a shard gets a network it did not build: no sweep exports one to shared
memory, at any scale or worker count.
"""

import json
import os
from dataclasses import asdict

import pytest

from repro.__main__ import main as cli_main
from repro.scenarios import jsonl, runner as runner_module
from repro.scenarios.registry import build_comparison_spec, get_scenario
from repro.scenarios.runner import (
    ScenarioRunner,
    clear_seed_runner,
    execute_run,
    load_result_rows,
)
from repro.scenarios.spec import (
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    WorkloadSpec,
    derive_seed,
)
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


def grid_splicer_spec():
    """A grid with no designated candidates: Splicer elects its own."""
    return ScenarioSpec(
        name="grid-splicer",
        topology=TopologySpec(kind="grid", params={"rows": 6, "cols": 6}),
        workload=WorkloadSpec(duration=2.0, arrival_rate=10.0),
        schemes=[SchemeSpec(name="splicer")],
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


def cold(task):
    """``task``'s row from a process that kept nothing."""
    clear_seed_runner()
    return execute_run(task)


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
        fresh = [cold(task) for task in tasks(spec)]
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

    def test_a_splicer_shard_leaves_the_next_shard_a_cold_network(self, topology_builds):
        # Splicer elects and places hubs on the network it routes; a kept
        # runner must hand the next omega the network a cold build would.
        spec = grid_splicer_spec().to_dict()
        execute_run((spec, 1, {"schemes.0.params.omega": 0.5}))
        warm = execute_run((spec, 1, {"schemes.0.params.omega": 0.0}))
        assert topology_builds == [1]
        assert as_json([warm]) == as_json([cold((spec, 1, {"schemes.0.params.omega": 0.0}))])


class TestNetworkReuse:
    def test_seeds_of_the_bundled_snapshot_build_it_once(self, topology_builds):
        # Poisson arrivals: each seed offers its own workload on the one network.
        spec = build_comparison_spec(
            "small",
            ["waterfilling", "splicer"],
            seeds=[1, 2, 3],
            duration=2.0,
            nodes=40,
            topology_source="lightning-snapshot",
        )
        reused = [execute_run(task) for task in tasks(spec)]
        assert topology_builds == [1]
        assert len({row["workload_value"] for row in reused}) == 3
        fresh = [cold(task) for task in tasks(spec)]
        assert as_json(reused) == as_json(fresh)

    def test_a_workload_override_reuses_the_network_and_rebuilds_the_workload(
        self, topology_builds
    ):
        first, second = tasks(comparison_spec(seeds=[1]))[:2]
        base = execute_run(first)
        (kept,) = runner_module._SEED_RUNNER.values()
        scaled_task = (first[0], 1, {"workload.value_scale": 3.0})
        scaled = execute_run(scaled_task)
        (rebuilt,) = runner_module._SEED_RUNNER.values()
        assert rebuilt is not kept and rebuilt.network is kept.network
        assert scaled["workload_value"] == pytest.approx(3.0 * base["workload_value"], rel=1e-3)
        back = execute_run(second)
        assert topology_builds == [1]
        assert as_json([scaled, back]) == as_json([cold(scaled_task), cold(second)])

    @pytest.mark.parametrize(
        "make_spec, first, then",
        [
            (comparison_spec, (1, {}), (1, {"topology.params.nearest_neighbors": 6})),
            (comparison_spec, (1, {}), (2, {})),
            (churn_spec, (1, {}), (1, {"workload.value_scale": 3.0})),
        ],
        ids=["topology-override", "watts-strogatz-seed", "moved-topology"],
    )
    def test_another_or_a_moved_topology_is_rebuilt(
        self, make_spec, first, then, topology_builds
    ):
        spec = make_spec().to_dict()
        execute_run((spec, *first))
        row = execute_run((spec, *then))
        assert topology_builds == [first[0], then[0]]
        assert as_json([row]) == as_json([cold((spec, *then))])

    def test_a_shard_that_raises_drops_the_entry(self, topology_builds, monkeypatch):
        first, second = tasks(comparison_spec(seeds=[1]))[:2]
        execute_run(first)
        run_single = ExperimentRunner.run_single

        def broken(self, scheme, rng=None):
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

        def fails_once_on_the_second_shard(self, scheme, rng=None):
            calls.append(scheme.name)
            if len(calls) == 2:
                raise RuntimeError("transient")
            return run_single(self, scheme, rng=rng)

        monkeypatch.setattr(ExperimentRunner, "run_single", fails_once_on_the_second_shard)
        clear_seed_runner()
        retried = ScenarioRunner(spec, results_dir=str(tmp_path / "retried")).run()
        assert retried.retries == 1
        # One build for the clean sweep, then the retried sweep's first build
        # and the one after its failed shard dropped the runner.
        assert topology_builds == [1, 1, 1]
        assert as_json(retried.rows) == as_json(clean.rows)


class TestNoSharedMemory:
    def test_an_xl_compare_exports_nothing_at_either_worker_count(
        self, topology_builds, monkeypatch, tmp_path
    ):
        # Calls land in a file, so a forked worker's call counts too.
        calls = tmp_path / "from_network.log"
        from_network = shared.SharedTopologyBlock.from_network.__func__

        def recording(cls, network):
            with open(calls, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return from_network(cls, network)

        monkeypatch.setattr(shared.SharedTopologyBlock, "from_network", classmethod(recording))
        before = shared.scan_segments()
        argv = [
            "compare", "--scale", "xl", "--nodes", "60", "--payments", "200",
            "--schemes", "shortest-path,landmark", "--seeds", "1,2", "--quiet",
        ]
        rows = {}
        for workers in (1, 2):
            results_dir = tmp_path / f"w{workers}"
            extra = ["--workers", str(workers), "--results-dir", str(results_dir)]
            assert cli_main([*argv, *extra]) == 0
            rows[workers] = sorted(
                as_json(load_result_rows(str(results_dir / "compare-xl.jsonl")))
            )
        assert not calls.exists()
        assert shared.scan_segments() == before
        assert len(rows[1]) == 4
        assert rows[1] == rows[2]
        # One build per seed in this process, all on the serial pass: the
        # two-worker parent builds nothing.
        assert topology_builds == [1, 2]

    def test_a_two_worker_sweep_builds_each_seed_once_per_worker(self, monkeypatch, tmp_path):
        # The grid is seed-major and shards go out in order, so a worker that
        # moved on to the next seed never needs an earlier one again.
        monkeypatch.setattr(runner_module, "_SEED_RUNNER", {})
        log_path = tmp_path / "builds.log"
        build = TopologySpec.build
        seeds = {derive_seed(seed, "topology"): seed for seed in (1, 2)}

        def logging_build(topology, seed):
            with open(log_path, "a") as handle:
                handle.write(f"{os.getpid()} {seeds[seed]}\n")
            return build(topology, seed)

        monkeypatch.setattr(TopologySpec, "build", logging_build)
        report = ScenarioRunner(
            comparison_spec(), results_dir=str(tmp_path / "rows"), workers=2
        ).run()
        assert report.executed == 8
        builds = [tuple(map(int, line.split())) for line in log_path.read_text().splitlines()]
        assert len(builds) == len(set(builds))
        assert {seed for _pid, seed in builds} == {1, 2}
        assert os.getpid() not in {pid for pid, _seed in builds}

    def test_the_runner_takes_no_shared_topology_option(self, tmp_path):
        with pytest.raises(TypeError):
            ScenarioRunner(comparison_spec(), results_dir=str(tmp_path), shared_topology=True)
