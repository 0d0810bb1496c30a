"""End-to-end observability pipeline tests.

The load-bearing properties:

* enabling tracing + health telemetry leaves every result row bit-identical
  (observability never touches a simulation RNG or mutates network state),
* the same spec and trace seed produce byte-identical trace files whatever
  the process or run ordering (content-addressed sampling),
* health NPZ files round-trip with one sample per probe.
"""

import copy
import json
import os

import numpy as np

from repro.obs.health import SATURATION_BINS, HealthRecorder, gini, load_health
from repro.scenarios.runner import clear_seed_runner, execute_run
from repro.scenarios.spec import (
    DynamicsEventSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    WorkloadSpec,
)


def tiny_spec(obs=None, dynamics=(), schemes=("shortest-path",)) -> ScenarioSpec:
    return ScenarioSpec(
        name="obs-pipeline-test",
        topology=TopologySpec(
            params={"node_count": 16, "nearest_neighbors": 4, "candidate_fraction": 0.2}
        ),
        workload=WorkloadSpec(duration=1.5, arrival_rate=10.0),
        schemes=[SchemeSpec(name=name) for name in schemes],
        dynamics=list(dynamics),
        seeds=[1],
        drain_time=0.5,
        obs=obs,
    )


def obs_settings(tmp_path, **overrides):
    settings = {
        "dir": str(tmp_path / "obs"),
        "sample_rate": 1.0,
        "trace_seed": 0,
        "health_interval": 0.5,
    }
    settings.update(overrides)
    return settings


def strip_obs(row):
    row = copy.deepcopy(row)
    row.pop("obs", None)
    return row


def read_kinds(trace_path):
    return [json.loads(line)["kind"] for line in open(trace_path)]


class TestNoOpEquivalence:
    def test_rows_bit_identical_with_and_without_obs(self, tmp_path):
        plain = execute_run((tiny_spec().to_dict(), 1, {}))
        clear_seed_runner()  # the traced run builds its own runner
        traced = execute_run((tiny_spec(obs=obs_settings(tmp_path)).to_dict(), 1, {}))
        assert strip_obs(traced) == plain
        assert traced["obs"]["sampled_payments"] > 0

    def test_rows_bit_identical_under_dynamics(self, tmp_path):
        dynamics = [
            DynamicsEventSpec(
                kind="churn",
                time=0.2,
                params={"count": 3, "start": 0.2, "end": 1.0, "down_time": 0.3},
            )
        ]
        plain = execute_run((tiny_spec(dynamics=dynamics).to_dict(), 1, {}))
        clear_seed_runner()
        traced = execute_run(
            (tiny_spec(obs=obs_settings(tmp_path), dynamics=dynamics).to_dict(), 1, {})
        )
        assert strip_obs(traced) == plain
        trace_files = [
            name for name in os.listdir(tmp_path / "obs") if name.startswith("trace-")
        ]
        kinds = read_kinds(tmp_path / "obs" / trace_files[0])
        assert "dynamics.apply" in kinds

    def test_atomic_baseline_rows_bit_identical(self, tmp_path):
        plain = execute_run((tiny_spec(schemes=("flash",)).to_dict(), 1, {}))
        clear_seed_runner()
        traced = execute_run(
            (tiny_spec(obs=obs_settings(tmp_path), schemes=("flash",)).to_dict(), 1, {})
        )
        assert strip_obs(traced) == plain


class TestTraceDeterminism:
    def test_same_spec_and_seed_produce_identical_trace_bytes(self, tmp_path):
        first_dir, second_dir = tmp_path / "a", tmp_path / "b"
        execute_run((tiny_spec(obs=obs_settings(first_dir)).to_dict(), 1, {}))
        execute_run((tiny_spec(obs=obs_settings(second_dir)).to_dict(), 1, {}))
        first_files = sorted(os.listdir(first_dir / "obs"))
        assert first_files == sorted(os.listdir(second_dir / "obs"))
        traces = [name for name in first_files if name.startswith("trace-")]
        assert traces
        for name in traces:
            first = (first_dir / "obs" / name).read_bytes()
            second = (second_dir / "obs" / name).read_bytes()
            assert first == second

    def test_sampling_seed_changes_selection(self, tmp_path):
        rows = {}
        for trace_seed in (0, 1):
            directory = tmp_path / f"seed{trace_seed}"
            row = execute_run(
                (
                    tiny_spec(
                        obs=obs_settings(directory, sample_rate=0.4, trace_seed=trace_seed)
                    ).to_dict(),
                    1,
                    {},
                )
            )
            rows[trace_seed] = row["obs"]["sampled_payments"]
        # Different hash seeds select different subsets; rates stay similar.
        assert rows[0] > 0 and rows[1] > 0

    def test_terminal_discipline(self, tmp_path):
        row = execute_run((tiny_spec(obs=obs_settings(tmp_path)).to_dict(), 1, {}))
        trace_path = row["obs"]["trace"]
        events = [json.loads(line) for line in open(trace_path)]
        terminal = {}
        for event in events:
            if event["kind"] in ("payment.settle", "payment.fail"):
                key = (event.get("scheme"), event["pid"])
                terminal[key] = terminal.get(key, 0) + 1
        assert terminal, "expected at least one terminal span"
        assert set(terminal.values()) == {1}


class TestHealthTelemetry:
    def test_npz_round_trip(self, tmp_path):
        row = execute_run((tiny_spec(obs=obs_settings(tmp_path)).to_dict(), 1, {}))
        health = load_health(row["obs"]["health"])
        assert "shortest-path" in health
        metrics = health["shortest-path"]
        assert len(metrics["time"]) >= 2
        for name in (
            "gini",
            "imbalance_mean",
            "locked_total",
            "motifs_found",
            "motifs_drained",
            "batch_count",
            "batch_mean",
        ):
            assert len(metrics[name]) == len(metrics["time"])
        assert (metrics["gini"] >= 0).all() and (metrics["gini"] <= 1).all()

    def test_interval_zero_disables_probes(self, tmp_path):
        row = execute_run(
            (tiny_spec(obs=obs_settings(tmp_path, health_interval=0)).to_dict(), 1, {})
        )
        assert "health" not in row["obs"]
        assert not [
            name for name in os.listdir(tmp_path / "obs") if name.startswith("health-")
        ]

    def test_recorder_health_used_directly(self, tmp_path, small_ws_network):
        path = str(tmp_path / "health.npz")
        recorder = HealthRecorder(path=path, interval=1.0, seed=0)
        recorder.note_batch("scheme", 3)
        recorder.observe("scheme", small_ws_network, 1.0)
        recorder.observe("scheme", small_ws_network, 2.0)
        recorder.save()
        loaded = load_health(path)["scheme"]
        assert list(loaded["time"]) == [1.0, 2.0]
        assert loaded["batch_count"][0] == 1
        assert loaded["batch_mean"][0] == 3.0
        assert loaded["batch_count"][1] == 0


    def test_probe_reads_the_store_like_the_per_channel_walk(self, small_ws_network):
        """Balances off the flat store: every statistic ``==`` the channel API's,
        with locks in flight and after a removal has permuted the slots."""
        network = small_ws_network
        channels = list(network.channels())
        for index, channel in enumerate(channels[:12]):
            channel.transfer(channel.node_a, channel.balance(channel.node_a) * index / 12.0)
        channels[3].lock(channels[3].node_b, 17.5)
        channels[8].lock(channels[8].node_a, 2.25)
        network.remove_channel(*channels[5].endpoints)
        walk = network.balance_store.channels
        assert [c.endpoints for c in walk] != [c.endpoints for c in network.channels()]

        recorder = HealthRecorder(interval=1.0, seed=0)
        recorder.observe("scheme", network, 1.0)
        probe = {key.split("|")[1]: value[0] for key, value in recorder.arrays().items()}
        imbalances = np.asarray([channel.imbalance() for channel in walk])
        assert probe["gini"] == gini(np.asarray([side for c in walk for side in c.balance_pair()]))
        assert probe["imbalance_mean"] == float(imbalances.mean())
        assert probe["locked_total"] == sum(channel.locked_total() for channel in walk) == 19.75
        assert (probe["saturation_hist"] == np.histogram(imbalances, bins=SATURATION_BINS)[0]).all()


class TestFingerprintTransparency:
    def test_obs_field_does_not_change_run_keys(self, tmp_path):
        from repro.scenarios.runner import spec_fingerprint

        plain = tiny_spec().to_dict()
        traced = tiny_spec(obs=obs_settings(tmp_path)).to_dict()
        assert spec_fingerprint(plain) == spec_fingerprint(traced)


class TestDisabledOverhead:
    def test_disabled_guard_is_cheap(self):
        # The pin for "instrumentation off costs one module-attr read plus
        # one attribute check": generous absolute bound so slow CI machines
        # never flake, but a regression to real work (dict lookups, string
        # formatting) would blow straight through it.
        import timeit

        from repro.obs import core

        per_call = (
            timeit.timeit(
                "rec = obs.RECORDER\nrec.enabled and None",
                globals={"obs": core},
                number=100_000,
            )
            / 100_000
        )
        assert per_call < 5e-6

    def test_null_recorder_event_calls_are_cheap(self):
        import timeit

        from repro.obs.core import NULL_RECORDER

        per_call = (
            timeit.timeit(
                "rec.payment_event(3, 'lock', 0.5)",
                globals={"rec": NULL_RECORDER},
                number=100_000,
            )
            / 100_000
        )
        assert per_call < 5e-6
