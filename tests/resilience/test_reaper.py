"""Orphan-reaper tests: dead owners reaped, live owners left alone."""

import multiprocessing
import os
import signal

import pytest

from repro.__main__ import main as cli_main
from repro.scenarios.registry import build_comparison_spec
from repro.scenarios.runner import ScenarioRunner
from repro.topology.generators import watts_strogatz_pcn
from repro.topology.shared import (
    _MAGIC,
    _OWNER_STAMP,
    SharedTopologyBlock,
    _proc_start_ticks,
    _segment_owner_pid,
    reap_orphan_segments,
    scan_segments,
)

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)


def tiny_network():
    return watts_strogatz_pcn(
        12, nearest_neighbors=4, uniform_channel_size=50.0, seed=5
    )


def _untrack(name):
    """Drop the leaked segment from the resource tracker after the reap.

    The dead child registered the segment with the (fork-shared) tracker;
    once the reaper has unlinked the file the tracker's record is stale and
    would only produce shutdown noise.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:
        pass


def _export_and_die(conn):
    """Child: export a topology block, report its name, die without cleanup.

    SIGKILL on itself models an OOM-killed runner: no ``finally``, no
    ``weakref.finalize``, the segment simply leaks.
    """
    block = SharedTopologyBlock.from_network(tiny_network())
    conn.send(block.name)
    conn.close()
    os.kill(os.getpid(), signal.SIGKILL)


def leak_segment():
    """Create an orphaned segment (dead owner) and return its name."""
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_export_and_die, args=(send,))
    child.start()
    send.close()
    name = receive.recv()
    child.join(timeout=30)
    receive.close()
    return name


class TestReaper:
    def test_dead_owner_segment_is_reaped(self):
        name = leak_segment()
        path = os.path.join("/dev/shm", name)
        assert os.path.exists(path)
        entries = {entry[0]: entry for entry in scan_segments()}
        assert name in entries
        _seg, owner, alive = entries[name]
        assert not alive
        reaped = reap_orphan_segments()
        _untrack(name)
        assert name in reaped
        assert not os.path.exists(path)
        # Idempotent: nothing left to reap.
        assert name not in reap_orphan_segments()

    def test_live_owner_segment_is_left_alone(self):
        block = SharedTopologyBlock.from_network(tiny_network())
        try:
            entries = {entry[0]: entry for entry in scan_segments()}
            assert entries[block.name][2] is True  # owner (us) is alive
            assert block.name not in reap_orphan_segments()
            assert os.path.exists(os.path.join("/dev/shm", block.name))
        finally:
            block.unlink()

    def test_foreign_files_are_never_touched(self, tmp_path):
        foreign = tmp_path / "not-a-segment"
        foreign.write_bytes(b"some other program's data")
        assert _segment_owner_pid(str(foreign)) is None
        truncated = tmp_path / "truncated"
        truncated.write_bytes(_MAGIC + b"\x00\x01")  # magic but torn stamp
        assert _segment_owner_pid(str(truncated)) is None

    def test_owner_pid_stamped_in_header(self):
        block = SharedTopologyBlock.from_network(tiny_network())
        try:
            assert (
                _segment_owner_pid(os.path.join("/dev/shm", block.name)) == os.getpid()
            )
        finally:
            block.unlink()

    def test_scan_never_unpickles(self, tmp_path, monkeypatch):
        """A planted magic-tagged file must not reach pickle.

        /dev/shm is world-writable: any local user can drop a file carrying
        our magic whose body is a malicious pickle.  The scanner reads only
        the fixed struct stamp, so the payload is inert.
        """
        payload = b"cos\nsystem\n(S'true'\ntR."  # classic pickle-RCE shape
        planted = tmp_path / "planted"
        planted.write_bytes(_MAGIC + _OWNER_STAMP.pack(1, 0, len(payload)) + payload)

        import pickle as _pickle

        def poisoned_loads(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("scanner called pickle.loads on a scanned file")

        monkeypatch.setattr(_pickle, "loads", poisoned_loads)
        entries = {entry[0]: entry for entry in scan_segments(str(tmp_path))}
        # The stamp parses without touching the payload; pid 1 (init) is
        # alive, so nothing is reaped either.
        assert entries["planted"][1] == 1
        assert reap_orphan_segments(str(tmp_path)) == []

    def test_recycled_pid_counts_as_dead(self, tmp_path):
        """A live pid with a mismatched start time is a recycled pid.

        Without the start-time stamp a dead runner whose pid was reused by
        an unrelated process would pin its orphaned segment forever.
        """
        our_pid = os.getpid()
        our_ticks = _proc_start_ticks(our_pid)
        if our_ticks is None:
            pytest.skip("no /proc start-time on this platform")
        recycled = tmp_path / "recycled"
        recycled.write_bytes(
            _MAGIC + _OWNER_STAMP.pack(our_pid, our_ticks + 12345, 1) + b"x"
        )
        current = tmp_path / "current"
        current.write_bytes(
            _MAGIC + _OWNER_STAMP.pack(our_pid, our_ticks, 1) + b"x"
        )
        alive_by_name = {
            name: alive for name, _owner, alive in scan_segments(str(tmp_path))
        }
        assert alive_by_name == {"recycled": False, "current": True}
        assert reap_orphan_segments(str(tmp_path)) == ["recycled"]
        assert current.exists() and not recycled.exists()


class TestSegmentsLeftBehind:
    """A killed exporter -- a benchmark pass, an earlier version -- leaks a block.

    Sweeps neither make nor reap segments; ``repro doctor`` reaps them.
    """

    def test_a_sweep_leaves_a_dead_segment_alone(self, tmp_path):
        name = leak_segment()
        path = os.path.join("/dev/shm", name)
        try:
            spec = build_comparison_spec(
                "small", ["shortest-path", "landmark"], seeds=[1], duration=1.0, nodes=16
            )
            report = ScenarioRunner(spec, results_dir=str(tmp_path), workers=2).run()
            assert report.executed == 2
            assert os.path.exists(path)
            assert (name, False) in [(seg, alive) for seg, _owner, alive in scan_segments()]
        finally:
            reap_orphan_segments()
            _untrack(name)
        assert not os.path.exists(path)

    def test_doctor_reaps_a_dead_segment(self):
        name = leak_segment()
        path = os.path.join("/dev/shm", name)
        assert os.path.exists(path)
        try:
            assert cli_main(["doctor"]) == 0
            assert not os.path.exists(path)
            assert name not in [seg for seg, _owner, _alive in scan_segments()]
        finally:
            reap_orphan_segments()
            _untrack(name)
