"""The loaders keep the last file's parse while the file is unchanged.

``load_trace`` and ``parse_snapshot`` key their one-entry memo on the path,
size, mtime and inode (``repro.data.sources.last_parse``).  A hit hands out
fresh containers over the shared, read-only parse.
"""

import os

import numpy as np
import pytest

from repro.data import lightning, ripple
from repro.data.fixtures import fixture_path
from repro.data.lightning import load_snapshot, parse_snapshot
from repro.data.ripple import load_trace, trace_workload

TRACE_CSV = """payment_id,timestamp,sender,receiver,amount
tx1,0.0,a,b,5.0
tx2,1.0,b,c,3.0
tx3,2.0,c,a,4.0
"""

SNAPSHOT_JSON = """{"edges": [
  {"node1_pub": "x", "node2_pub": "y", "capacity": "100"},
  {"node1_pub": "y", "node2_pub": "z", "capacity": "300"}
]}
"""


@pytest.fixture(autouse=True)
def _empty_memos():
    ripple._LOADED_TRACE.clear()
    lightning._PARSED_SNAPSHOT.clear()
    yield
    ripple._LOADED_TRACE.clear()
    lightning._PARSED_SNAPSHOT.clear()


@pytest.fixture()
def parses(monkeypatch):
    """Paths handed to the two parsers behind the memos."""
    seen = []
    read_csv, read_snapshot = ripple._read_raw_csv, lightning._parse_snapshot_file

    def csv_spy(path):
        seen.append(path)
        return read_csv(path)

    def snapshot_spy(path):
        seen.append(path)
        return read_snapshot(path)

    monkeypatch.setattr(ripple, "_read_raw_csv", csv_spy)
    monkeypatch.setattr(lightning, "_parse_snapshot_file", snapshot_spy)
    return seen


def _rewrite_by_rename(path, text):
    """Replace ``path`` with same-size content and the old mtime: only the inode moves."""
    stat = os.stat(path)
    fresh = str(path) + ".new"
    with open(fresh, "w") as handle:
        handle.write(text)
    os.utime(fresh, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    os.replace(fresh, path)


class TestLoadTrace:
    def test_an_unchanged_file_is_parsed_once(self, tmp_path, parses):
        path = str(tmp_path / "trace.csv")
        with open(path, "w") as handle:
            handle.write(TRACE_CSV)
        first, second = load_trace(path), load_trace(path)
        assert parses == [path]
        assert second is not first and second.accounts is not first.accounts
        assert second.fingerprint == first.fingerprint
        second.accounts.append("intruder")
        assert load_trace(path).accounts == first.accounts
        assert not first.times.flags.writeable
        with pytest.raises(ValueError):
            first.values[0] = 0.0

    def test_a_rewrite_is_parsed_again(self, tmp_path, parses):
        path = str(tmp_path / "trace.csv")
        with open(path, "w") as handle:
            handle.write(TRACE_CSV)
        before = load_trace(path)
        with open(path, "w") as handle:
            handle.write(TRACE_CSV + "tx4,3.0,a,c,9.0\n")
        after = load_trace(path)
        assert parses == [path, path]
        assert (before.count, after.count) == (3, 4)

        _rewrite_by_rename(path, TRACE_CSV.replace("b,c,3.0", "b,c,7.0") + "tx4,3.0,a,c,9.0\n")
        renamed = load_trace(path)
        assert parses == [path, path, path]
        assert renamed.total_value == after.total_value + 4.0

    def test_two_workloads_over_the_shared_trace_are_identical(self):
        network = load_snapshot(max_nodes=30)

        def replay():
            workload = trace_workload(network, load_trace(), seed=3, duration=5.0)
            chunks = [
                [(r.arrival_time, r.sender, r.recipient, r.value) for r in chunk]
                for chunk in workload.iter_chunks()
            ]
            return workload.count, workload.total_value, workload.config, chunks

        first = replay()
        assert len(ripple._LOADED_TRACE) == 1
        assert replay() == first


class TestParseSnapshot:
    def test_an_unchanged_file_is_parsed_once(self, tmp_path, parses):
        path = str(tmp_path / "snap.json")
        with open(path, "w") as handle:
            handle.write(SNAPSHOT_JSON)
        first, second = parse_snapshot(path), parse_snapshot(path)
        assert parses == [path]
        assert second is not first
        assert second.channels == first.channels and second.channels is not first.channels
        second.channels.clear()
        second.nodes.append("intruder")
        assert parse_snapshot(path) == first

    def test_a_rewrite_is_parsed_again(self, tmp_path, parses):
        path = str(tmp_path / "snap.json")
        with open(path, "w") as handle:
            handle.write(SNAPSHOT_JSON)
        assert len(parse_snapshot(path).channels) == 2
        _rewrite_by_rename(path, SNAPSHOT_JSON.replace('"300"', '"700"'))
        assert parse_snapshot(path).channels[1].capacity == 700.0
        with open(path, "w") as handle:
            handle.write(SNAPSHOT_JSON.replace('"300"', '"50000"'))
        assert parse_snapshot(path).channels[1].capacity == 50000.0
        assert parses == [path, path, path]

    def test_the_memo_holds_one_file(self, tmp_path):
        other = str(tmp_path / "snap.json")
        with open(other, "w") as handle:
            handle.write(SNAPSHOT_JSON)
        bundled = fixture_path("lightning_small.json")
        parse_snapshot(bundled)
        parse_snapshot(other)
        assert [key[0] for key in lightning._PARSED_SNAPSHOT] == [other]
        assert np.isclose(
            sum(channel.capacity for channel in parse_snapshot(other).channels), 400.0
        )
