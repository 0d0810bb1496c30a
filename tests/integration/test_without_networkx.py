"""The pipelines a user runs finish in a process that cannot import networkx.

``sys.modules["networkx"] = None`` makes every ``import networkx`` raise
``ImportError`` -- the package is as good as uninstalled, without touching
the environment.  Each pipeline must write the same bytes as a run that is
free to import it: production builds the Watts-Strogatz, star and
lightning-snapshot topologies on its own, and networkx is what the tests
compare them against.
"""

import os
import subprocess
import sys

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
_BLOCKED = (
    "import sys\n"
    "sys.modules['networkx'] = None\n"
    "from repro.__main__ import main\n"
    "code = main(sys.argv[1:])\n"
    "assert sys.modules['networkx'] is None\n"
    "sys.exit(code)\n"
)
_FREE = "import sys\nfrom repro.__main__ import main\nsys.exit(main(sys.argv[1:]))\n"

#: name -> (argv, files whose bytes must match).  Place-compare rows carry a
#: wall-clock ``solve_seconds``, so only its table is compared.
PIPELINES = {
    "compare-watts-strogatz": (
        ["compare", "--scale", "small", "--duration", "2", "--schemes", "splicer,spider,landmark"],
        ["compare-small.jsonl", "fig8-small.txt"],
    ),
    "compare-snapshot-and-trace": (
        ["compare", "--scale", "small", "--duration", "2", "--schemes", "splicer,shortest-path",
         "--topology-source", "lightning-snapshot", "--workload-source", "ripple-trace"],
        ["compare-small.jsonl", "fig8-small.txt"],
    ),
    "place-compare": (["place-compare", "--scale", "small"], ["fig9-small.txt"]),
    "run-hub-failure": (
        ["run", "hub-failure", "--duration", "2", "--seeds", "1", "--schemes", "splicer,a2l"],
        ["hub-failure.jsonl"],
    ),
}


def _cli(code, argv, results_dir):
    return subprocess.run(
        [sys.executable, "-c", code, *argv, "--quiet", "--results-dir", str(results_dir)],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_pipeline_output_is_identical_with_networkx_blocked(name, tmp_path):
    argv, files = PIPELINES[name]
    for code, results_dir in ((_BLOCKED, tmp_path / "blocked"), (_FREE, tmp_path / "free")):
        result = _cli(code, argv, results_dir)
        assert result.returncode == 0, result.stderr
    for filename in files:
        blocked = (tmp_path / "blocked" / filename).read_bytes()
        assert blocked and blocked == (tmp_path / "free" / filename).read_bytes()


@pytest.mark.parametrize("kind", ["scale-free", "random", "grid"])
def test_an_auxiliary_topology_without_networkx_is_a_configuration_error(kind, tmp_path):
    """Exit 2 in the parent, one line naming the package and the kind; no shard ran."""
    result = _cli(
        _BLOCKED,
        ["compare", "--scale", "small", "--duration", "1", "--schemes", "shortest-path",
         "--workers", "2", "--topology-source", kind],
        tmp_path,
    )
    assert result.returncode == 2, result.stderr
    output = (result.stdout + result.stderr).strip()
    assert len(output.splitlines()) == 1 and "Traceback" not in output
    assert "networkx" in output and kind in output
    assert not list(tmp_path.glob("*.jsonl"))
