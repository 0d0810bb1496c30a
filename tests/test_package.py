"""The package root: one version string, lazy re-exports, a light CLI import."""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from importlib import metadata

import pytest

import repro

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _probe(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_one_version_string():
    """``pyproject.toml`` states no version of its own: it reads the attribute."""
    with open(os.path.join(_ROOT, "pyproject.toml"), encoding="utf-8") as handle:
        pyproject = handle.read()
    assert re.search(r'^dynamic\s*=\s*\["version"\]', pyproject, re.MULTILINE)
    assert re.search(r'^version\s*=\s*\{\s*attr\s*=\s*"repro\.__version__"', pyproject, re.MULTILINE)
    assert not re.search(r'^version\s*=\s*"', pyproject, re.MULTILINE)
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
    try:
        installed = metadata.version("splicer-repro")
    except metadata.PackageNotFoundError:
        return  # running from the source tree (PYTHONPATH=src)
    assert installed == repro.__version__


def test_root_exports_resolve_lazily():
    assert repro.__all__ == [
        "SplicerConfig",
        "SplicerSystem",
        "PlacementPlan",
        "PlacementProblem",
        "PlacementSolver",
        "solve_placement",
        "RateRouter",
        "ScenarioRunner",
        "ScenarioSpec",
        "get_scenario",
        "list_scenarios",
        "register_scenario",
        "ExperimentResult",
        "ExperimentRunner",
        "PCNetwork",
        "__version__",
    ]
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    assert set(repro.__all__) <= set(dir(repro))
    result = _probe(
        "import sys, repro\n"
        "assert 'repro.core' not in sys.modules and 'numpy' not in sys.modules\n"
        "from repro import SplicerSystem, PCNetwork\n"
        "assert SplicerSystem.__module__ == 'repro.core.splicer'\n"
        "assert 'SplicerSystem' in vars(repro)  # resolved once, then cached\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    assert result.returncode == 0, result.stderr


def test_importing_the_cli_module_loads_no_subcommand_stack():
    result = _probe(
        "import sys, repro.__main__\n"
        "loaded = [name for name in ('repro.core.voting', 'repro.placement.milp', 'networkx',\n"
        "    'repro.baselines', 'repro.scenarios') if name in sys.modules]\n"
        "sys.exit(', '.join(loaded) or 0)\n"
    )
    assert result.returncode == 0, result.stderr


def test_building_the_parser_loads_neither_networkx_nor_the_path_kernels():
    """The scheme zoo is in; the oracle's library, the path kernels
    (``repro.topology.csr``, first needed by a path query) and scipy (first
    needed by a level drain or a MILP) are not."""
    result = _probe(
        "import sys, repro.__main__ as cli\n"
        "cli._build_parser()\n"
        "assert 'repro.baselines.spider' in sys.modules\n"
        "loaded = [name for name in ('networkx', 'repro.topology.csr', 'scipy.sparse.csgraph',\n"
        "    'scipy', 'repro.reference') if name in sys.modules]\n"
        "sys.exit(', '.join(loaded) or 0)\n"
    )
    assert result.returncode == 0, result.stderr


def test_a_sweep_command_imports_its_whole_stack_before_it_forks(tmp_path):
    """Everything a shard needs is in the parent when the pool starts, so
    workers inherit it instead of importing it once each -- and nothing a
    Watts-Strogatz sweep never uses (networkx).  scipy is the one deliberate
    exception: only the widest-path level drain and the MILP call it, so a
    worker whose shards reach one of them imports it itself, and a sweep of
    atomic baselines or of the greedy placements never maps it."""
    result = _probe(
        "import sys, repro.__main__ as cli\n"
        "from repro.scenarios import jsonl\n"
        "run_pool = jsonl.JsonlGridRunner._run_pool\n"
        "def spy(self, *args, **kwargs):\n"
        "    missing = [name for name in ('repro.core.voting', 'repro.baselines.spider',\n"
        "        'repro.routing.router', 'repro.core.splicer') if name not in sys.modules]\n"
        "    assert not missing, missing\n"
        "    assert 'networkx' not in sys.modules\n"
        "    print('pool-started')\n"
        "    return run_pool(self, *args, **kwargs)\n"
        "jsonl.JsonlGridRunner._run_pool = spy\n"
        f"sys.exit(cli.main(['compare', '--scale', 'small', '--nodes', '16', '--duration', '1',\n"
        f"    '--schemes', 'shortest-path,spider', '--workers', '2', '--quiet',\n"
        f"    '--results-dir', {str(tmp_path)!r}]))\n"
    )
    assert result.returncode == 0, result.stderr
    assert "pool-started" in result.stdout


#: Runs the CLI in a process where every ``import scipy`` raises; pool
#: workers are forked, so they inherit the block.
_SCIPY_BLOCKED = (
    "import sys\n"
    "sys.modules['scipy'] = None\n"
    "from repro.__main__ import main\n"
    "code = main(sys.argv[1:])\n"
    "assert sys.modules['scipy'] is None\n"
    "sys.exit(code)\n"
)
_ATOMIC_BASELINES = "shortest-path,landmark,waterfilling,speedymurmurs"


def _cli(code, argv):
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )


def _sorted_rows(path) -> list:
    with open(path, encoding="utf-8") as handle:
        return sorted(handle)


def test_the_atomic_baselines_run_without_scipy(tmp_path):
    """Hop-count BFS, Yen, EDS, landmark and embedding walks, the atomic
    executor, the shared-memory block (``--scale xl``) and a no-op re-run
    never import scipy, on one worker or on a forked pool, and write the
    rows and table of a run that is free to import it."""
    free = "import sys\nfrom repro.__main__ import main\nsys.exit(main(sys.argv[1:]))\n"
    for scale, size in (("small", []), ("xl", ["--nodes", "300", "--payments", "2000"])):
        common = ["compare", "--scale", scale, *size, "--schemes", _ATOMIC_BASELINES, "--quiet"]
        reference = tmp_path / f"{scale}-free"
        assert _cli(free, [*common, "--results-dir", str(reference)]).returncode == 0
        for workers in ("1", "2"):
            results = tmp_path / f"{scale}-w{workers}"
            argv = [*common, "--workers", workers, "--results-dir", str(results)]
            result = _cli(_SCIPY_BLOCKED, argv)
            assert result.returncode == 0, result.stderr
            assert "Figure 8 comparison" in result.stdout
            for name in (f"compare-{scale}.jsonl", f"fig8-{scale}.txt"):
                assert _sorted_rows(results / name) == _sorted_rows(reference / name)
            rerun = _cli(_SCIPY_BLOCKED, argv)
            assert rerun.returncode == 0, rerun.stderr
            assert "executed 0 run(s)" in rerun.stdout


def _plan_rows(path) -> list:
    """A placement sweep's rows without ``solve_seconds`` (wall clock), sorted."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            del row["solve_seconds"]
            rows.append(json.dumps(row, sort_keys=True))
    return sorted(rows)


def test_the_placement_sweep_runs_without_scipy(tmp_path):
    """The hop probe, the cost build, the exact search and both double
    greedies never import scipy, on one worker or on a forked pool, and
    write the rows and table of a run that is free to import it -- which
    loads no scipy module either."""
    free = (
        "import sys\n"
        "from repro.__main__ import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "loaded = [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
        "sys.exit(', '.join(loaded) or 0)\n"
    )
    for scale, size in (("small", []), ("paper", ["--nodes", "300"])):
        common = ["place-compare", "--scale", scale, *size, "--quiet"]
        reference = tmp_path / f"{scale}-free"
        result = _cli(free, [*common, "--workers", "1", "--results-dir", str(reference)])
        assert result.returncode == 0, result.stderr
        for workers in ("1", "2"):
            results = tmp_path / f"{scale}-w{workers}"
            argv = [*common, "--workers", workers, "--results-dir", str(results)]
            result = _cli(_SCIPY_BLOCKED, argv)
            assert result.returncode == 0, result.stderr
            assert "Figure 9 placement comparison" in result.stdout
            rows = f"place-{scale}.jsonl"
            assert _plan_rows(results / rows) == _plan_rows(reference / rows)
            table = f"fig9-{scale}.txt"
            assert _sorted_rows(results / table) == _sorted_rows(reference / table)
            rerun = _cli(_SCIPY_BLOCKED, argv)
            assert rerun.returncode == 0, rerun.stderr
            assert "executed 0 run(s)" in rerun.stdout


def test_blocking_scipy_stops_the_level_drain():
    """The control of the tests above: with scipy blocked, the batched
    distance sweep still runs, while the widest-path level drain -- forced
    on at its first level -- raises, so a run that exits 0 really ran
    without scipy."""
    result = _probe(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from repro.topology import csr\n"
        "from repro.topology.generators import watts_strogatz_pcn\n"
        "network = watts_strogatz_pcn(30, 4, 0.1, uniform_channel_size=100.0, seed=1)\n"
        "nodes = network.nodes()\n"
        "assert network.shortest_path(*nodes[:2])\n"
        "node_order, rows = network.hop_count_rows(nodes[:2])\n"
        "assert rows.shape == (2, 30) and rows[0, node_order.index(nodes[0])] == 0\n"
        "csr._DRAIN_LEVEL_POPS, csr._DRAIN_MIN_UNVISITED = 0, 0\n"
        "try:\n"
        "    network.graph_arrays().edge_disjoint_widest_paths(nodes[0], nodes[15], 1)\n"
        "except ImportError:\n"
        "    sys.exit(0)\n"
        "sys.exit('the level drain ran with scipy blocked')\n"
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "module",
    [
        "repro.crypto",
        "repro.core.kmg",
        "repro.core.payment",
        "repro.core.client",
        "repro.core.smooth_node",
    ],
)
def test_simulated_workflow_modules_stay_removed(module):
    """The section III-A workflow is counted by ``SplicerSystem``; its toy crypto,
    key group and session objects are gone."""
    assert importlib.util.find_spec(module) is None


def test_the_kernel_perf_gate_is_not_in_the_package():
    """The perf gate is developer tooling in ``benchmarks/perf``: no ``repro.perf``
    module and no ``repro perf`` subcommand."""
    from repro.__main__ import _build_parser

    assert importlib.util.find_spec("repro.perf") is None
    with pytest.raises(SystemExit) as exited:
        _build_parser().parse_args(["perf"])
    assert exited.value.code == 2
