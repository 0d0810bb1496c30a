"""Tests for the sharded figure-8 comparison pipeline and its CLI."""

import os

import pytest

from repro.__main__ import main as cli_main
from repro.data.sources import list_topology_sources
from repro.scenarios.registry import (
    COMPARISON_SCALES,
    build_comparison_spec,
    get_scenario,
    size_topology,
)
from repro.scenarios.runner import ScenarioRunner, run_key
from repro.scenarios.spec import ScenarioSpec, SchemeSpec, TopologySpec


class TestComparisonSpec:
    def test_grid_shards_one_scheme_per_run(self):
        spec = build_comparison_spec(
            "small", ["splicer", "spider", "flash"], seeds=[1, 2]
        )
        runs = spec.expand_runs()
        assert len(runs) == 6  # 3 schemes x 2 seeds
        names = {run[1]["schemes.0"]["name"] for run in runs}
        assert names == {"splicer", "spider", "flash"}

    def test_unknown_scale_is_rejected(self):
        with pytest.raises(KeyError):
            build_comparison_spec("galactic", ["splicer"])

    def test_paper_scale_is_registered(self):
        assert COMPARISON_SCALES["paper"]["nodes"] == 3000
        assert get_scenario("compare-large").name == "compare-large"

    def test_grid_of_scheme_entries_and_scales_expands_to_their_product(self):
        """The figure-7/8 sweeps put Splicer variants and both scales in one
        grid: every run carries all three overrides and its own run key."""
        spec = build_comparison_spec("small", ["splicer"])
        tuned = {"name": "splicer", "params": {"router": {"update_interval": 0.4}}}
        spec.grid = {
            "schemes.0": [{"name": "splicer", "params": {}}, tuned],
            "topology.channel_scale": [0.5, 1.0],
            "workload.value_scale": [1.0, 2.0],
        }
        runs = spec.expand_runs()
        assert len(runs) == 8  # 2 entries x 2 channel scales x 2 value scales, 1 seed
        assert all(set(overrides) == set(spec.grid) for _, overrides in runs)
        keys = {run_key(spec.name, seed, overrides) for seed, overrides in runs}
        assert len(keys) == 8

    def test_router_overrides_of_a_scheme_entry_reach_its_router(self):
        spec = build_comparison_spec("small", ["splicer"]).with_overrides(
            {
                "schemes.0": {
                    "name": "splicer",
                    "params": {
                        "placement_method": "greedy",
                        "router": {"update_interval": 0.4, "path_count": 1},
                    },
                }
            }
        )
        (entry,) = spec.scheme_specs()
        config = entry.build().config
        assert config.router.update_interval == 0.4
        assert config.router.path_count == 1
        assert config.placement_method == "greedy"

    def test_channel_scale_override_scales_every_channel(self):
        spec = build_comparison_spec("small", ["splicer"])
        base = spec.topology.build(1)
        for scale in (0.5, 2.0):
            scaled = spec.with_overrides({"topology.channel_scale": scale}).topology.build(1)
            assert scaled.channel_count() == base.channel_count()
            assert scaled.total_funds() == pytest.approx(scale * base.total_funds())

    def test_scheme_dict_overrides_are_coerced(self):
        """A grid override replacing a whole schemes entry with a plain dict
        (how the runner ships it to workers) must still build schemes."""
        spec = ScenarioSpec(name="coerce-test", schemes=[SchemeSpec(name="splicer")])
        spec = spec.with_overrides(
            {"schemes.0": {"name": "shortest-path", "params": {}}}
        )
        specs = spec.scheme_specs()
        assert [entry.name for entry in specs] == ["shortest-path"]
        assert specs[0].build().name == "shortest-path"


#: What the synthetic kinds sized by their own parameters need spelled out.
_OWN_SIZE_PARAMS = {
    "grid": {"rows": 4, "cols": 4},
    "star": {"client_count": 12},
    "multi-star": {"hub_count": 3, "clients_per_hub": 4},
}


class TestSyntheticTopologySources:
    """``compare --topology-source`` works for every registered generator."""

    @pytest.mark.parametrize(
        "kind", [info.kind for info in list_topology_sources() if info.synthetic]
    )
    def test_spec_builds_and_a_shard_runs_to_a_row(self, kind, tmp_path):
        descriptor = {"kind": kind, **_OWN_SIZE_PARAMS.get(kind, {})}
        spec = build_comparison_spec(
            "small", ["shortest-path"], duration=1.0, nodes=18, topology_source=descriptor
        )
        _, params = spec.topology.resolved_source()
        assert "max_nodes" not in params  # the data-backed loaders' cap only
        if kind in _OWN_SIZE_PARAMS:
            assert params == _OWN_SIZE_PARAMS[kind]
        else:
            assert params == {"node_count": 18}
        report = ScenarioRunner(spec, results_dir=str(tmp_path), workers=1).run()
        assert report.executed == 1 and not report.failures
        assert report.rows[0]["metrics"]["shortest-path"]["completed_count"] >= 1

    def test_explicit_node_count_wins_and_snapshots_keep_their_cap(self):
        explicit = build_comparison_spec(
            "small", ["splicer"], topology_source={"kind": "scale-free", "node_count": 25}
        )
        assert explicit.topology.resolved_source()[1] == {"node_count": 25}
        snapshot = build_comparison_spec(
            "small", ["splicer"], nodes=30, topology_source="lightning-snapshot"
        )
        assert snapshot.topology.resolved_source()[1] == {"max_nodes": 30}


class TestRunNodes:
    """``run --nodes`` sizes a spec through the same key ``compare`` uses."""

    def test_it_caps_a_source_backed_scenario(self, tmp_path, monkeypatch):
        built = []
        build = TopologySpec.build

        def spy(topology, seed):
            network = build(topology, seed)
            built.append(network.node_count())
            return network

        monkeypatch.setattr(TopologySpec, "build", spy)
        argv = [
            "run", "real-trace", "--nodes", "20", "--seeds", "1", "--schemes", "flash",
            "--duration", "1", "--quiet", "--results-dir", str(tmp_path),
        ]
        assert cli_main(argv) == 0
        assert built == [20]

    def test_it_overrides_a_descriptor_key_compare_would_keep(self):
        descriptor = {"kind": "lightning-snapshot", "max_nodes": 30}
        spec = build_comparison_spec("small", ["flash"], nodes=20, topology_source=descriptor)
        assert spec.topology.resolved_source()[1] == {"max_nodes": 30}
        size_topology(spec.topology, 20)
        assert spec.topology.resolved_source()[1] == {"max_nodes": 20}


class TestComparisonRuns:
    def _tiny_spec(self, schemes, seeds):
        spec = build_comparison_spec("small", schemes, seeds=seeds, duration=1.5)
        spec.topology.params["node_count"] = 16
        return spec

    def test_rows_carry_one_scheme_each(self, tmp_path):
        spec = self._tiny_spec(["shortest-path", "landmark"], seeds=[1])
        runner = ScenarioRunner(spec, results_dir=str(tmp_path), workers=1)
        report = runner.run()
        assert report.executed == 2
        schemes_seen = sorted(
            scheme for row in report.rows for scheme in row["metrics"]
        )
        assert schemes_seen == ["landmark", "shortest-path"]

    def test_resume_skips_completed_shards(self, tmp_path):
        spec = self._tiny_spec(["shortest-path"], seeds=[1, 2])
        runner = ScenarioRunner(spec, results_dir=str(tmp_path), workers=1)
        assert runner.run().executed == 2
        again = runner.run()
        assert again.executed == 0
        assert again.skipped == 2

    def test_bad_scheme_parameter_fails_in_the_parent(self, tmp_path):
        """A constructor parameter a scheme does not take is a configuration
        error: the runner raises before dispatching a single shard."""
        spec = self._tiny_spec(["splicer", "flash"], seeds=[1])
        spec.grid["schemes.0"][0]["params"]["router"] = {"backend": "python"}
        runner = ScenarioRunner(spec, results_dir=str(tmp_path), workers=1)
        with pytest.raises(ValueError, match=r"'splicer'.*'router\.backend'.*removed"):
            runner.run()
        assert not os.listdir(tmp_path)


class TestCompareCli:
    def test_compare_command_writes_table(self, tmp_path, capsys):
        results_dir = str(tmp_path / "compare")
        rc = cli_main(
            [
                "compare",
                "--schemes",
                "shortest-path,landmark",
                "--scale",
                "small",
                "--seeds",
                "1",
                "--duration",
                "1.5",
                "--nodes",
                "16",
                "--results-dir",
                results_dir,
                "--quiet",
            ]
        )
        assert rc == 0
        output = capsys.readouterr().out
        assert "Figure 8 comparison -- scale small (16 nodes)" in output
        assert "shortest-path" in output
        table_path = os.path.join(results_dir, "fig8-small.txt")
        assert os.path.exists(table_path)

    def test_a_capped_source_reports_the_cap_as_a_cap(self, tmp_path, capsys):
        """The snapshot source takes the scale's 60 nodes as ``max_nodes`` and builds 44."""
        from repro.data.lightning import load_snapshot

        assert load_snapshot(max_nodes=60).node_count() == 44
        results_dir = str(tmp_path / "compare")
        rc = cli_main(
            [
                "compare", "--scale", "small", "--topology-source", "lightning-snapshot",
                "--schemes", "shortest-path", "--seeds", "1", "--duration", "1",
                "--results-dir", results_dir, "--quiet",
            ]
        )
        assert rc == 0
        output = capsys.readouterr().out
        assert "compare scale 'small': up to 60 nodes, 1 scheme(s)" in output
        title = "Figure 8 comparison -- scale small (up to 60 nodes)"
        assert title in output
        with open(os.path.join(results_dir, "fig8-small.txt")) as handle:
            assert handle.readline().rstrip("\n") == title

    def test_empty_scheme_list_is_an_error(self):
        assert cli_main(["compare", "--schemes", ",,"]) == 2

    def test_cli_has_no_backend_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["compare", "--backend", "numpy", "--scale", "small"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err


#: The smallest real ``run`` invocation: one shard, well under a second.
_TINY_RUN = [
    "run", "paper-default", "--duration", "1", "--seeds", "1", "--schemes", "shortest-path",
]


class TestCompareCliErrorPaths:
    """Bad inputs exit with a clean one-line error, never a traceback.

    ``cli_main`` returning 2 (instead of raising) is the no-traceback
    guarantee; the stderr assertions pin the message quality.
    """

    @pytest.fixture(autouse=True)
    def _scratch(self, tmp_path, monkeypatch):
        """Run in an empty cwd; a rejected command must leave it empty."""
        monkeypatch.chdir(tmp_path)
        self.results_dir = tmp_path / "out"
        yield
        assert not (tmp_path / "results").exists()
        # Config errors are rejected in the parent before any dispatch: no
        # failure row, no quarantine file, nothing for a later sweep to trip on.
        assert not list(tmp_path.rglob("*.jsonl"))

    def _fails_cleanly(self, capsys, argv, *needles):
        assert cli_main([*argv, "--results-dir", str(self.results_dir)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for needle in needles:
            assert needle in err
        return err

    def test_unknown_scheme_name(self, capsys):
        err = self._fails_cleanly(
            capsys, ["compare", "--schemes", "splicer,warpspeed"],
            "unknown scheme", "warpspeed",
        )
        # The error names the valid choices so the fix is self-evident.
        assert "splicer" in err

    def test_malformed_topology_source_json(self, capsys):
        self._fails_cleanly(
            capsys,
            ["compare", "--schemes", "splicer", "--topology-source", "{not json"],
            "--topology-source", "invalid JSON",
        )

    def test_malformed_workload_source_json(self, capsys):
        self._fails_cleanly(
            capsys,
            ["compare", "--schemes", "splicer", "--workload-source", '{"kind": '],
            "--workload-source", "invalid JSON",
        )

    def test_bare_source_name_gets_a_named_error(self, capsys):
        # Non-JSON values are name shortcuts; unknown names also exit clean.
        self._fails_cleanly(
            capsys,
            ["compare", "--schemes", "splicer", "--workload-source", "no-such-trace"],
            "unknown workload source", "no-such-trace",
        )

    def test_nodes_on_a_source_sized_by_its_own_parameters(self, capsys):
        # Rejected in the parent: no shard runs, nothing is written.
        self._fails_cleanly(
            capsys,
            [
                *_TINY_RUN, "--nodes", "20",
                "--set", 'topology.source={"kind": "grid", "rows": 3, "cols": 3}',
            ],
            "'grid' is sized by its own parameters",
        )
        assert not self.results_dir.exists()

    def test_compare_nodes_on_a_source_sized_by_its_own_parameters(self, capsys):
        # ``--nodes`` means the same on both commands: compare rejects it too.
        self._fails_cleanly(
            capsys,
            [
                "compare", "--scale", "small", "--schemes", "shortest-path",
                "--duration", "1", "--seeds", "1", "--nodes", "20",
                "--topology-source", '{"kind": "grid", "rows": 3, "cols": 3}',
            ],
            "'grid' is sized by its own parameters",
        )
        assert not self.results_dir.exists()

    def test_source_descriptor_missing_kind(self, capsys):
        self._fails_cleanly(
            capsys,
            ["compare", "--schemes", "splicer", "--topology-source", '{"path": "x"}'],
            "--topology-source", "kind",
        )

    def test_run_rejects_unknown_scheme_override(self, capsys):
        self._fails_cleanly(
            capsys, ["run", "scheme-zoo", "--schemes", "warpspeed"],
            "unknown scheme", "warpspeed",
        )

    @pytest.mark.parametrize(
        "scenario, override, needles",
        [
            pytest.param(
                ["channel-jamming", "--nodes", "30"], 'schemes.1.params.backend="fortran"',
                ["'spider'", "unknown parameter 'backend'", "option was removed"],
                id="backend",
            ),
            # The router's queue-delay marking, and with it its threshold, was removed.
            pytest.param(
                ["paper-default"], 'schemes.0.params={"router": {"delay_threshold": 0.4}}',
                ["'splicer'", "unknown parameter 'router.delay_threshold'"],
                id="delay_threshold",
            ),
            # So were the congestion windows, their switch and their factors.
            pytest.param(
                ["paper-default"],
                'schemes.0.params={"router": {"congestion_control_enabled": false}}',
                ["'splicer'", "unknown parameter 'router.congestion_control_enabled'"],
                id="congestion_control_enabled",
            ),
            pytest.param(
                ["paper-default"], 'schemes.0.params={"router": {"beta": 10.0}}',
                ["'splicer'", "unknown parameter 'router.beta'"],
                id="beta",
            ),
            pytest.param(
                ["paper-default"], 'schemes.0.params={"router": {"gamma": 1.0}}',
                ["'splicer'", "unknown parameter 'router.gamma'"],
                id="gamma",
            ),
            # The paper's fixed operating point is router class constants.
            pytest.param(
                ["paper-default"], 'schemes.0.params={"router": {"queue_limit": 10}}',
                ["'splicer'", "unknown parameter 'router.queue_limit'"],
                id="queue_limit",
            ),
            # The key management group went with the simulated workflow.
            pytest.param(
                ["paper-default"], "schemes.0.params.kmg_size=3",
                ["'splicer'", "unknown parameter 'kmg_size'"],
                id="kmg_size",
            ),
            # Election, epochs, the client-hub delay, the placement seed and
            # the deadline take no config field.
            *(
                pytest.param(
                    ["paper-default"], f"schemes.0.params.{name}=1",
                    ["'splicer'", f"unknown parameter '{name}'"],
                    id=name,
                )
                for name in (
                    "candidate_count", "epoch_duration", "client_hub_hop_delay",
                    "hub_sync_hop_delay", "placement_seed", "payment_timeout",
                )
            ),
            # The baselines' parameters are class constants.
            pytest.param(
                ["paper-default"], "schemes.2.params.elephant_threshold=40",
                ["'flash'", "unknown parameter 'elephant_threshold'"],
                id="elephant_threshold",
            ),
        ],
    )
    def test_run_rejects_unknown_scheme_parameter(self, capsys, scenario, override, needles):
        # Raised in the parent: exit 2, no retried shard, no failure row, no
        # quarantine file (the fixture checks the scratch cwd stays clean).
        self._fails_cleanly(
            capsys,
            ["run", *scenario, "--duration", "1", "--seeds", "1", "--set", override],
            *needles,
        )
        assert not list(self.results_dir.rglob("*quarantine*"))


    @pytest.mark.parametrize(
        "override, message",
        [
            ("engine=ticks", "override path 'engine' does not resolve on ScenarioSpec"),
            ('grid={"engine": ["epoch"]}', "override path 'engine' does not resolve"),
            ("step_size=-1", "step_size must be positive"),
            ("drain_time=-1", "drain_time must be non-negative"),
            ('grid={"step_size": [0.1, -1]}', "step_size must be positive"),
        ],
    )
    def test_run_rejects_bad_runner_settings_in_the_parent(self, capsys, override, message):
        # The removed engine selector is an unknown path and the runner's
        # stepping rules hold for every grid point: exit 2 before dispatch,
        # nothing retried, nothing quarantined (the fixture checks the cwd).
        self._fails_cleanly(capsys, [*_TINY_RUN, "--set", override], message)
        assert not self.results_dir.exists()

    def test_run_rejects_a_bad_router_setting_in_the_parent(self, capsys):
        # RouterConfig checks path_count when the spec builds its schemes:
        # exit 2 before dispatch, nothing retried, nothing written.
        self._fails_cleanly(
            capsys,
            [
                "run", "paper-default", "--duration", "1", "--seeds", "1",
                "--set", 'schemes.0.params={"router": {"path_count": 0}}',
            ],
            "path_count must be at least 1",
        )
        assert not self.results_dir.exists()


def test_rejected_override_does_not_poison_the_results_dir(tmp_path, capsys):
    """``--set engine=...`` used to be retried, quarantined *under the valid
    configuration's run key* and exit 0, so the next correct invocation
    skipped its only run.  Now step one fails fast and step two executes."""
    argv = [*_TINY_RUN, "--quiet", "--results-dir", str(tmp_path)]
    assert cli_main([*argv, "--set", "engine=ticks"]) == 2
    assert not list(tmp_path.rglob("*quarantine*"))
    capsys.readouterr()
    assert cli_main(argv) == 0
    assert "executed 1 run(s), skipped 0" in capsys.readouterr().out


def test_production_paths_do_not_import_the_reference_oracle(tmp_path):
    """The CLI, a ``compare`` run, a compare shard and a placement solve leave
    ``repro.reference`` unimported: the scalar oracle -- the per-event
    arrival loop of ``repro.reference.simulator`` included -- is for the
    differential suites only."""
    import subprocess
    import sys

    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    probe = (
        "import sys, repro.__main__\n"
        "from repro.placement.solver import solve_placement\n"
        "from repro.scenarios.registry import build_comparison_spec\n"
        "from repro.scenarios.runner import execute_run\n"
        "spec = build_comparison_spec('small', ['splicer', 'flash'], duration=1.0, nodes=16)\n"
        "for seed, overrides in spec.expand_runs():\n"
        "    execute_run((spec.to_dict(), seed, overrides))\n"
        "solve_placement(spec.topology.build(1), method='exact')\n"
        "repro.__main__.main(['compare', '--scale', 'small', '--nodes', '16', '--duration', '1',\n"
        "    '--schemes', 'shortest-path,spider', '--quiet', '--results-dir', 'out'])\n"
        "sys.exit(any(name.startswith('repro.reference') for name in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src_dir),
        cwd=str(tmp_path),
        timeout=120,
    )
    assert result.returncode == 0
