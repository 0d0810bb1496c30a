"""The persistent-pool contract: reuse, replacement, isolation, hygiene.

Executors here report the pid (and clock, and memory) of the process that
ran them, which is all the evidence the contract needs: how many processes
served a sweep, which one survived a fault, and what a long-lived worker
still holds after its shards.
"""

import gc
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.scenarios import jsonl
from repro.scenarios.faults import FaultDirective, FaultPlan
from repro.scenarios.jsonl import RESULT_SCHEMA_VERSION, load_result_rows
from repro.scenarios.registry import build_comparison_spec
from repro.scenarios.runner import ScenarioRunner, execute_run

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
KEYS = [f"shard-{index:02d}" for index in range(12)]


def pid_execute(task):
    key, value = task
    # Long enough that a fault is noticed while shards are still pending --
    # a replacement is forked only when there is work an idle worker cannot take.
    time.sleep(0.05)
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "run_key": key,
        "value": value * value,
        "pid": os.getpid(),
        "finished": time.monotonic(),
    }


@pytest.fixture
def run_pool(toy_runner_cls, tmp_path, no_backoff):
    """Run the twelve toy shards on two workers with the pid-reporting executor."""

    class PidRunner(toy_runner_cls):
        def executor(self):
            return pid_execute

    def run(plan=None, **kwargs):
        runner = PidRunner(str(tmp_path), KEYS, workers=2, fault_plan=plan, **kwargs)
        return runner, runner.run()

    return run


def proc_stat(pid):
    """``(state, ppid)`` of a process from ``/proc``, or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return state, int(ppid)


def exited(pid):
    """Whether a process is gone (or only a zombie awaiting its reaper)."""
    stat = proc_stat(pid)
    return stat is None or stat[0] == "Z"


def child_pids():
    """Live (non-zombie) children of this process."""
    stats = {int(entry): proc_stat(entry) for entry in os.listdir("/proc") if entry.isdigit()}
    return {
        pid
        for pid, stat in stats.items()
        if stat is not None and stat[0] != "Z" and stat[1] == os.getpid()
    }


def succeeded_keys(runner):
    """Run keys of the success rows in a runner's results file, in file order."""
    return [
        row["run_key"]
        for row in load_result_rows(runner.results_path)
        if row.get("status") != "failed"
    ]


class TestReuse:
    def test_two_workers_serve_twelve_shards_from_two_pids(self, run_pool):
        before = child_pids()
        _runner, report = run_pool()
        assert report.executed == len(KEYS)
        pids = {row["pid"] for row in report.rows}
        assert len(pids) == 2 and os.getpid() not in pids
        assert child_pids() <= before  # the pool is gone when run() returns

    @pytest.mark.parametrize(
        "action,kind", [("raise", "exception"), ("corrupt", "corrupt-output")]
    )
    def test_exception_and_corrupt_row_leave_the_worker_alive(
        self, run_pool, action, kind
    ):
        plan = FaultPlan([FaultDirective(action=action, shard=0)])
        _runner, report = run_pool(plan)
        assert report.executed == len(KEYS)
        assert [row["failure"] for row in report.failures] == [kind]
        # A replacement would have served at least the shard it was forked
        # for, so two pids over all rows means nobody was replaced.
        assert len({row["pid"] for row in report.rows}) == 2


class TestReplacement:
    def test_killed_worker_is_replaced_and_only_its_shard_fails(self, run_pool):
        before = child_pids()
        plan = FaultPlan([FaultDirective(action="kill", shard=3)])
        runner, report = run_pool(plan)
        assert [row["failure"] for row in report.failures] == ["worker-death"]
        assert report.failures[0]["run_key"] == KEYS[3]
        assert "code -9" in report.failures[0]["error_message"]
        assert report.retries == 1
        # Every shard exactly once (the killed one through its retry), from
        # three processes: the two originals and the replacement.
        assert sorted(succeeded_keys(runner)) == KEYS
        assert len({row["pid"] for row in report.rows}) == 3
        assert child_pids() <= before

    def test_timeout_kills_only_the_hung_worker(self, run_pool):
        before = child_pids()
        plan = FaultPlan([FaultDirective(action="hang", shard=0, seconds=120.0)])
        started = time.monotonic()
        _runner, report = run_pool(plan, shard_timeout=1.5)
        assert report.executed == len(KEYS)
        assert [row["failure"] for row in report.failures] == ["timeout"]
        # The sibling drained the other eleven shards while shard 0 hung,
        # then -- idle when the timeout fired -- served its retry as well.
        assert len({row["pid"] for row in report.rows}) == 1
        drained = [row for row in report.rows if row["finished"] < started + 1.5]
        assert len(drained) == len(KEYS) - 1
        assert child_pids() <= before


class TestStress:
    def test_more_workers_than_cores_under_random_faults(
        self, toy_runner_cls, tmp_path, no_backoff
    ):
        """Eight workers, seeded kills/raises/corrupt rows: every shard exactly once."""
        before = child_pids()
        keys = [f"shard-{index:03d}" for index in range(150)]
        plan = FaultPlan(
            [
                FaultDirective(action=action, probability=0.08)
                for action in ("kill", "raise", "corrupt")
            ],
            seed=7,
        )
        runner = toy_runner_cls(str(tmp_path), keys, workers=8, fault_plan=plan)
        report = runner.run()
        assert report.executed == len(keys) and report.quarantined == []
        assert report.retries == len(report.failures) > 10
        assert sorted(succeeded_keys(runner)) == keys
        assert child_pids() <= before


class TestWaiting:
    def test_backoff_is_slept_not_polled(self, run_pool, monkeypatch):
        monkeypatch.setattr(jsonl, "BACKOFF_BASE", 0.6)
        plan = FaultPlan([FaultDirective(action="raise", shard=0)])
        wall, cpu = time.perf_counter(), time.process_time()
        _runner, report = run_pool(plan)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        assert report.executed == len(KEYS) and report.retries == 1
        assert wall >= 0.6
        assert cpu < 0.25, f"supervising parent burned {cpu:.2f}s CPU while waiting"


ORPHAN_SCRIPT = """
import os, sys, time
from repro.scenarios.jsonl import JsonlGridRunner

def slow(key):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(0.2)
    return {"schema_version": JsonlGridRunner.schema_version, "run_key": key}

class Grid(JsonlGridRunner):
    results_name = "orphan"
    def expected_keys(self):
        return [f"k{i}" for i in range(500)]
    def pending_tasks(self):
        return self.expected_keys()
    def executor(self):
        return slow

Grid(sys.argv[2], workers=2).run()
"""


class TestOrphans:
    def test_workers_exit_when_the_parent_is_sigkilled(self, tmp_path):
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        parent = subprocess.Popen(
            [sys.executable, "-c", ORPHAN_SCRIPT, str(pid_dir), str(tmp_path / "out")],
            env=env,
        )
        try:
            deadline = time.monotonic() + 60
            while len(os.listdir(pid_dir)) < 2 and time.monotonic() < deadline:
                assert parent.poll() is None, "sweep ended before it could be killed"
                time.sleep(0.05)
            workers = [int(name) for name in os.listdir(pid_dir)]
            assert len(workers) == 2
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=30)
        # No kill reaches the workers: each must notice the closed pipe (at
        # its next recv, or when sending the row of the shard in flight).
        deadline = time.monotonic() + 15
        while not all(exited(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(exited(pid) for pid in workers), "orphaned pool worker"


def compare_spec(seeds):
    return build_comparison_spec(
        "small", ["shortest-path", "landmark"], seeds=list(seeds), duration=1.0, nodes=16
    )


class TestDeterminism:
    def test_one_and_two_workers_write_the_same_rows(self, tmp_path):
        spec = compare_spec([1, 2, 3])
        lines = {}
        for workers in (1, 2):
            report = ScenarioRunner(
                spec, results_dir=str(tmp_path / f"w{workers}"), workers=workers
            ).run()
            assert report.executed == 6
            with open(report.results_path, encoding="utf-8") as handle:
                lines[workers] = sorted(handle)
        assert lines[1] == lines[2]


_SERVED = 0


def _shm_mappings():
    with open("/proc/self/maps", encoding="utf-8") as handle:
        return sum(1 for line in handle if "/dev/shm/" in line)


def probing_execute(task):
    """``execute_run`` plus what the serving process holds afterwards."""
    global _SERVED
    mapped = _shm_mappings()
    row = execute_run(task)
    _SERVED += 1
    with open("/proc/self/statm", encoding="utf-8") as handle:
        rss_pages = int(handle.read().split()[1])
    row.update(
        pid=os.getpid(),
        served=_SERVED,
        new_mappings=_shm_mappings() - mapped,
        rss_pages=rss_pages,
    )
    return row


class _Cycle:
    """Garbage only the cyclic collector can free; ``live`` counts instances."""

    live = 0

    def __init__(self):
        self.me = self
        type(self).live += 1

    def __del__(self):
        type(self).live -= 1


def littering_execute(task):
    """Leave one cycle behind; report how many earlier shards' cycles survive."""
    key, _value = task
    survivors = _Cycle.live
    _Cycle()
    return {"schema_version": RESULT_SCHEMA_VERSION, "run_key": key, "survivors": survivors}


class ProbingRunner(ScenarioRunner):
    def executor(self):
        return probing_execute


class TestLongLivedWorkerHygiene:
    def test_no_shard_maps_shared_memory(self, tmp_path):
        # A shard gets its network by reuse or by building it, so a reused
        # worker maps nothing from /dev/shm over a sweep.
        spec = compare_spec([1, 2, 3])
        report = ProbingRunner(spec, results_dir=str(tmp_path), workers=2).run()
        assert report.executed == 6
        assert max(row["served"] for row in report.rows) >= 2  # workers were reused
        assert [row["new_mappings"] for row in report.rows] == [0] * 6

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_shards_cyclic_garbage_goes_with_the_shard(self, toy_runner_cls, tmp_path, workers):
        class LitteringRunner(toy_runner_cls):
            def executor(self):
                return littering_execute

        gc.collect()
        report = LitteringRunner(str(tmp_path), KEYS, workers=workers).run()
        assert report.executed == len(KEYS)
        # Twelve tiny shards never reach an automatic collection: without the
        # worker's own one per shard the counts would climb 0, 1, 2, ...
        assert [row["survivors"] for row in report.rows] == [0] * len(KEYS)
        # Only a worker freezes its heap; the supervising parent's stays live.
        assert gc.get_freeze_count() == 0

    def test_worker_rss_is_flat_from_ten_to_a_hundred_shards(self, tmp_path):
        spec = compare_spec(range(1, 111))
        report = ProbingRunner(spec, results_dir=str(tmp_path), workers=2).run()
        assert report.executed == 220
        checked = 0
        for pid in {row["pid"] for row in report.rows}:
            rss = {row["served"]: row["rss_pages"] for row in report.rows if row["pid"] == pid}
            if 100 in rss:
                checked += 1
                assert rss[100] <= 1.05 * rss[10], json.dumps(
                    {"pid": pid, "after_10": rss[10], "after_100": rss[100]}
                )
        assert checked >= 1
