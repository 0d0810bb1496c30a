"""Tests for the Ripple-style trace pipeline: clean, canonicalize, replay."""

import json

import numpy as np
import pytest

from repro.data.fixtures import fixture_path
from repro.data.ripple import (
    CanonicalTrace,
    clean_trace,
    load_trace,
    read_canonical,
    trace_info,
    trace_workload,
    write_canonical,
)
from repro.reference.workload import materialize
from repro.topology.network import PCNetwork

DIRTY_CSV = """payment_id,timestamp,sender,receiver,amount
tx1,10.0,a,b,5.0
tx2,not-a-time,a,b,5.0
tx3,11.0,,b,5.0
tx4,12.0,a,b,not-a-value
tx1,13.0,c,d,7.0
tx5,14.0,a,b,0.0
tx6,15.0,a,b,-3.0
tx7,16.0,c,c,9.0
tx8,5.0,b,a,2.0
tx9,5.0,a,c,4.0
"""


@pytest.fixture()
def dirty_csv(tmp_path):
    path = tmp_path / "dirty.csv"
    path.write_text(DIRTY_CSV)
    return str(path)


def _star_network(leaves: int = 6) -> PCNetwork:
    net = PCNetwork()
    net.add_node("hub", role="candidate")
    for i in range(leaves):
        net.add_node(f"leaf{i}")
        net.add_channel("hub", f"leaf{i}", 500.0)
    return net


class TestCleaning:
    def test_edge_cases_counted(self, dirty_csv):
        trace, report, _ = clean_trace(dirty_csv)
        assert report.rows_total == 10
        # tx2 (bad timestamp), tx3 (missing sender), tx4 (bad value)
        assert report.dropped_malformed == 3
        # second tx1, even though its fields are fine
        assert report.dropped_duplicate_id == 1
        # tx5 zero, tx6 negative
        assert report.dropped_nonpositive == 2
        # tx7 pays itself
        assert report.dropped_self_payment == 1
        assert report.kept == 3
        assert trace.count == 3

    def test_out_of_order_rows_stable_sorted_and_zero_based(self, dirty_csv):
        trace, report, _ = clean_trace(dirty_csv)
        # tx8/tx9 (t=5) precede tx1 (t=10) after sorting; equal-time rows
        # keep file order (tx8 before tx9), and times start at zero.
        assert report.reordered > 0
        assert list(trace.times) == [0.0, 0.0, 5.0]
        assert list(trace.values) == [2.0, 4.0, 5.0]
        senders = [trace.accounts[i] for i in trace.senders]
        recipients = [trace.accounts[i] for i in trace.recipients]
        assert senders == ["b", "a", "a"]
        assert recipients == ["a", "c", "b"]

    def test_fixture_dirt_counts(self):
        _, report, _ = clean_trace(fixture_path("ripple_small.csv"))
        assert report.rows_total == 376
        assert report.kept == 360
        assert report.dropped_malformed == 4
        assert report.dropped_duplicate_id == 5
        assert report.dropped_nonpositive == 3
        assert report.dropped_self_payment == 4

    def test_missing_required_column_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("payment_id,timestamp,sender,amount\ntx1,1.0,a,5.0\n")
        with pytest.raises(ValueError, match="missing required column"):
            clean_trace(str(path))

    def test_column_aliases_accepted(self, tmp_path):
        path = tmp_path / "alias.csv"
        path.write_text("tx,time,from,to,usd_amount\nt1,1.0,a,b,5.0\n")
        trace, report, _ = clean_trace(str(path))
        assert report.kept == 1
        assert trace.total_value == 5.0


class TestCanonical:
    def test_rerun_is_byte_identical(self, dirty_csv, tmp_path):
        first = tmp_path / "first.npz"
        second = tmp_path / "second.npz"
        clean_trace(dirty_csv, str(first))
        clean_trace(dirty_csv, str(second))
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "first.json").read_text() == (
            (tmp_path / "second.json").read_text()
        )

    def test_round_trip_preserves_trace(self, dirty_csv, tmp_path):
        dest = tmp_path / "trace.npz"
        trace, _, _ = clean_trace(dirty_csv, str(dest))
        loaded = read_canonical(str(dest))
        assert loaded.fingerprint == trace.fingerprint
        assert loaded.accounts == trace.accounts
        np.testing.assert_array_equal(loaded.times, trace.times)
        np.testing.assert_array_equal(loaded.values, trace.values)

    def test_sidecar_fingerprint_mismatch_raises(self, dirty_csv, tmp_path):
        dest = tmp_path / "trace.npz"
        clean_trace(dirty_csv, str(dest))
        sidecar = tmp_path / "trace.json"
        meta = json.loads(sidecar.read_text())
        meta["fingerprint"] = "0" * 64
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="does not match its sidecar"):
            read_canonical(str(dest))

    def test_load_trace_reads_npz_and_csv(self, dirty_csv, tmp_path):
        dest = tmp_path / "trace.npz"
        clean_trace(dirty_csv, str(dest))
        assert load_trace(str(dest)).fingerprint == load_trace(dirty_csv).fingerprint

    def test_trace_info_reports_cleaning(self, dirty_csv):
        info = trace_info(dirty_csv)
        assert info["payments"] == 3
        assert info["cleaning"]["dropped_malformed"] == 3
        assert info["fingerprint"]


class TestReplay:
    @pytest.fixture(scope="class")
    def trace(self):
        return load_trace(fixture_path("ripple_small.csv"))

    def test_duration_compresses_timestamps(self, trace):
        workload = trace_workload(_star_network(), trace, duration=4.0)
        requests = [r for chunk in workload.iter_chunks() for r in chunk]
        assert requests[0].arrival_time == 0.0
        assert max(r.arrival_time for r in requests) == pytest.approx(4.0)

    def test_value_scale_and_floor(self, trace):
        base = trace_workload(_star_network(), trace)
        scaled = trace_workload(_star_network(), trace, value_scale=2.0, min_value=15.0)
        base_values = [r.value for chunk in base.iter_chunks() for r in chunk]
        scaled_values = [r.value for chunk in scaled.iter_chunks() for r in chunk]
        for small, big in zip(base_values, scaled_values):
            assert big == pytest.approx(max(2.0 * small, 15.0))

    def test_max_payments_truncates(self, trace):
        workload = trace_workload(_star_network(), trace, max_payments=20)
        assert workload.count <= 20
        requests = [r for chunk in workload.iter_chunks() for r in chunk]
        assert len(requests) == workload.count

    def test_chunk_size_does_not_change_requests(self, trace):
        tiny = trace_workload(_star_network(), trace, chunk_size=7)
        big = trace_workload(_star_network(), trace, chunk_size=4096)
        tiny_requests = [r for chunk in tiny.iter_chunks() for r in chunk]
        big_requests = [r for chunk in big.iter_chunks() for r in chunk]
        assert [
            (r.arrival_time, r.sender, r.recipient, r.value) for r in tiny_requests
        ] == [(r.arrival_time, r.sender, r.recipient, r.value) for r in big_requests]

    def test_count_and_total_match_materialized(self, trace):
        workload = trace_workload(_star_network(), trace)
        materialized = materialize(workload)
        assert len(materialized.requests) == workload.count
        assert sum(r.value for r in materialized.requests) == pytest.approx(
            workload.total_value
        )

    def test_activity_mapping_deterministic(self, trace):
        first = trace_workload(_star_network(), trace, seed=1)
        second = trace_workload(_star_network(), trace, seed=99)
        first_pairs = [(r.sender, r.recipient) for c in first.iter_chunks() for r in c]
        second_pairs = [(r.sender, r.recipient) for c in second.iter_chunks() for r in c]
        assert first_pairs == second_pairs

    def test_random_mapping_seeded(self, trace):
        same_a = trace_workload(_star_network(), trace, mapping="random", seed=3)
        same_b = trace_workload(_star_network(), trace, mapping="random", seed=3)
        other = trace_workload(_star_network(), trace, mapping="random", seed=4)
        pairs = lambda w: [(r.sender, r.recipient) for c in w.iter_chunks() for r in c]  # noqa: E731
        assert pairs(same_a) == pairs(same_b)
        assert pairs(same_a) != pairs(other)

    def test_unknown_mapping_rejected(self, trace):
        with pytest.raises(ValueError, match="unknown account mapping"):
            trace_workload(_star_network(), trace, mapping="alphabetical")

    def test_conflicting_time_arguments_rejected(self, trace):
        with pytest.raises(ValueError, match="duration or time_scale"):
            trace_workload(_star_network(), trace, duration=4.0, time_scale=0.5)

    def test_empty_trace_rejected(self):
        empty = CanonicalTrace(
            times=np.zeros(0),
            values=np.zeros(0),
            senders=np.zeros(0, dtype=np.int64),
            recipients=np.zeros(0, dtype=np.int64),
            accounts=[],
        )
        with pytest.raises(ValueError, match="no payments"):
            trace_workload(_star_network(), empty)
