"""A result row is a function of its shard alone, and a sweep reports one
row per run key in grid order.

Covers the three things that used to make equal sweeps print different
output: the disk caches' hit counters in the rows (deleted), completion
order leaking into the tables, and a grid value listed twice running -- and
counting -- twice.  Also pins that results directories written before the
caches were deleted keep resuming.
"""

import json
import os
import shutil

import pytest

from repro.__main__ import main as cli_main
from repro.scenarios.runner import spec_fingerprint
from repro.scenarios.spec import ScenarioSpec

DATA = os.path.join(os.path.dirname(__file__), "data", "parent_results")

COMPARE = [
    "compare", "--scale", "small", "--nodes", "24", "--duration", "1.5",
    "--schemes", "landmark,flash,shortest-path", "--seeds", "1,2", "--quiet",
]
PLACE = [
    "place-compare", "--scale", "small", "--nodes", "24", "--omegas", "0.02,0.2",
    "--seeds", "1,2", "--quiet",
]


def _rows(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _sorted_rows(path, drop=()):
    rows = [{k: v for k, v in row.items() if k not in drop} for row in _rows(path)]
    return sorted(rows, key=lambda row: row["run_key"])


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _run(argv, results_dir, *extra):
    assert cli_main([*argv, *extra, "--results-dir", str(results_dir)]) == 0


class TestWorkerCountIndependence:
    @pytest.mark.parametrize(
        "argv, results, table, wall_clock",
        [
            # No field stripped: nothing in a row depends on a sibling shard.
            (COMPARE, "compare-small.jsonl", "fig8-small.txt", ()),
            (PLACE, "place-small.jsonl", "fig9-small.txt", ("solve_seconds",)),
        ],
        ids=["compare", "place-compare"],
    )
    def test_rows_and_table(self, tmp_path, argv, results, table, wall_clock):
        for workers in ("1", "2"):
            _run(argv, tmp_path / workers, "--workers", workers)
        serial, pooled = tmp_path / "1", tmp_path / "2"
        assert _sorted_rows(serial / results, wall_clock) == _sorted_rows(
            pooled / results, wall_clock
        )
        assert _read(serial / table) == _read(pooled / table)
        assert not (serial / "path-cache").exists() and not (pooled / "path-cache").exists()


class TestGridOrder:
    def test_table_follows_the_grid_not_the_file(self, tmp_path, capsys):
        """Completion order (= file order) is whatever the pool made it; the
        scheme lines follow ``--schemes`` all the same."""
        _run(COMPARE, tmp_path)
        table = _read(tmp_path / "fig8-small.txt")
        lines = table.decode().splitlines()[4:]
        assert [line.split()[0] for line in lines] == ["landmark", "flash", "shortest-path"]

        results = tmp_path / "compare-small.jsonl"
        finished = results.read_text(encoding="utf-8").splitlines(keepends=True)
        results.write_text("".join(reversed(finished)), encoding="utf-8")
        capsys.readouterr()
        _run(COMPARE, tmp_path)
        assert "executed 0 run(s), skipped 6" in capsys.readouterr().out
        assert _read(tmp_path / "fig8-small.txt") == table


class TestDuplicateGridValues:
    @pytest.mark.parametrize(
        "argv, results_name",
        [
            ([*COMPARE[:7], "--schemes", "flash", "--seeds", "1,1", "--quiet"], "compare-small"),
            ([*COMPARE[:7], "--schemes", "flash,flash", "--seeds", "1", "--quiet"], "compare-small"),
            (
                [*PLACE[:5], "--methods", "greedy", "--omegas", "0.1,0.1", "--quiet"],
                "place-small",
            ),
        ],
        ids=["seeds", "schemes", "omegas"],
    )
    def test_a_run_named_twice_executes_and_counts_once(
        self, tmp_path, capsys, argv, results_name
    ):
        _run(argv, tmp_path)
        assert "executed 1 run(s), skipped 0" in capsys.readouterr().out
        assert len(_rows(tmp_path / f"{results_name}.jsonl")) == 1
        if results_name == "compare-small":
            (line,) = _read(tmp_path / "fig8-small.txt").decode().splitlines()[4:]
            assert line.split("|")[1].strip() == "1"  # the ``runs`` column
        _run(argv, tmp_path)
        assert "executed 0 run(s), skipped 1" in capsys.readouterr().out


class TestParentWrittenResults:
    """``data/parent_results`` was written by the last commit that had the
    disk caches (its rows carry ``path_cache`` / ``hop_cache``, a
    ``path-cache/`` directory sits next to them); ``command.json`` holds the
    arguments that wrote each directory."""

    @pytest.mark.parametrize("name", ["compare", "place"])
    def test_resumes_with_nothing_to_execute(self, tmp_path, capsys, name):
        results_dir = tmp_path / name
        shutil.copytree(os.path.join(DATA, name), results_dir)
        with open(os.path.join(DATA, "command.json"), encoding="utf-8") as handle:
            argv = json.load(handle)[name]
        cached = sorted(os.listdir(results_dir / "path-cache"))
        assert cached  # the fixture really has the old caches
        rows = _read(next(results_dir.glob("*-small.jsonl")))
        assert b"_cache" in rows
        _run(argv, results_dir)
        output = capsys.readouterr().out
        assert "executed 0 run(s)" in output
        assert _read(next(results_dir.glob("*-small.jsonl"))) == rows
        assert sorted(os.listdir(results_dir / "path-cache")) == cached

    def test_old_spec_dict_keeps_its_fingerprint(self):
        with open(os.path.join(DATA, "spec.json"), encoding="utf-8") as handle:
            old = json.load(handle)
        assert old["path_cache_dir"]  # written while the field existed
        spec = ScenarioSpec.from_dict(old)
        assert not hasattr(spec, "path_cache_dir")
        (row,) = _rows(os.path.join(DATA, "compare", "compare-small.jsonl"))[:1]
        assert f"|cfg={spec_fingerprint(spec.to_dict())}|" in row["run_key"]
