"""The package root: one version string, lazy re-exports, a light CLI import."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from importlib import metadata

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
        "loaded = [name for name in ('repro.crypto', 'repro.placement.milp', 'networkx',\n"
        "    'repro.baselines', 'repro.scenarios') if name in sys.modules]\n"
        "sys.exit(', '.join(loaded) or 0)\n"
    )
    assert result.returncode == 0, result.stderr


def test_building_the_parser_loads_neither_networkx_nor_the_path_kernels():
    """The scheme zoo is in, the oracle's library and scipy's csgraph stack
    (``repro.topology.csr``, first needed by a path query) are not."""
    result = _probe(
        "import sys, repro.__main__ as cli\n"
        "cli._build_parser()\n"
        "assert 'repro.baselines.spider' in sys.modules\n"
        "loaded = [name for name in ('networkx', 'repro.topology.csr', 'scipy.sparse.csgraph',\n"
        "    'repro.reference') if name in sys.modules]\n"
        "sys.exit(', '.join(loaded) or 0)\n"
    )
    assert result.returncode == 0, result.stderr


def test_a_sweep_command_imports_its_whole_stack_before_it_forks(tmp_path):
    """Everything a shard needs is in the parent when the pool starts, so
    workers inherit it instead of importing it once each -- and nothing a
    Watts-Strogatz sweep never uses (networkx)."""
    result = _probe(
        "import sys, repro.__main__ as cli\n"
        "from repro.scenarios import jsonl\n"
        "run_pool = jsonl.JsonlGridRunner._run_pool\n"
        "def spy(self, *args, **kwargs):\n"
        "    missing = [name for name in ('repro.crypto', 'repro.baselines.spider',\n"
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
