"""Shared fixtures for the Splicer reproduction test suite."""

from __future__ import annotations

import subprocess
from pathlib import Path
from typing import Optional, Set

import numpy as np
import pytest

from repro.placement import compare
from repro.placement.costs import PlacementCostModel, cost_model_from_network
from repro.placement.problem import PlacementProblem
from repro.scenarios import registry
from repro.scenarios.runner import clear_seed_runner
from repro.topology.datasets import ChannelSizeDistribution, TransactionValueDistribution
from repro.topology.generators import grid_pcn, multi_star_pcn, watts_strogatz_pcn
from repro.topology.network import PCNetwork


#: What the interpreter and the test tools themselves leave in a checkout.
_TOOL_LEFTOVERS = ("__pycache__", ".pytest_cache", ".hypothesis")


def _checkout_status(root: Path) -> Optional[Set[str]]:
    """``git status`` lines of the checkout, ignored files included.

    ``None`` outside a git checkout (an unpacked archive, no ``git``).
    """
    try:
        result = subprocess.run(
            ["git", "status", "--porcelain", "--ignored"],
            cwd=root, capture_output=True, text=True, check=False,
        )
    except OSError:
        return None
    if result.returncode != 0:
        return None
    return {
        line for line in result.stdout.splitlines()
        if not any(leftover in line for leftover in _TOOL_LEFTOVERS)
    }


def _root_directories(root: Path) -> Set[str]:
    """The directories in the checkout root, the test tools' own excepted."""
    return {
        path.name for path in root.iterdir()
        if path.is_dir() and path.name not in _TOOL_LEFTOVERS
    }


@pytest.fixture(scope="session", autouse=True)
def checkout_stays_clean():
    """Fail the session if the suite left anything new in the checkout.

    A test that writes ``results/`` (or a quarantine file, a cache, a JSONL)
    into the working tree instead of ``tmp_path`` silently masks run keys for
    later real sweeps; this turns the leak into a failure.
    """
    root = Path(__file__).resolve().parents[1]
    before = _checkout_status(root)
    directories = _root_directories(root)
    yield
    if before is None:
        return
    leaked = sorted(_checkout_status(root) - before)
    # ``git status`` does not list an empty directory, so look for new ones.
    leaked += [
        f"{name}/ (new directory)" for name in sorted(_root_directories(root) - directories)
    ]
    if leaked:
        pytest.fail(
            "the test suite left new state in the checkout:\n  " + "\n  ".join(leaked),
            pytrace=False,
        )


@pytest.fixture(scope="session", autouse=True)
def scenario_registry_stays_unchanged():
    """Fail the session if a test left a scenario registered (or removed one).

    ``scenario_names()`` would otherwise depend on which test modules ran
    first; a test registers its own scenario through ``monkeypatch``.
    """
    before = sorted(registry._REGISTRY)
    yield
    after = sorted(registry._REGISTRY)
    if after != before:
        pytest.fail(
            f"the test suite changed the scenario registry: {before} -> {after}",
            pytrace=False,
        )


@pytest.fixture(autouse=True)
def no_kept_seed_state():
    """Start every test with nothing kept from an earlier test's shards.

    ``execute_run`` keeps its last runner (network included) and
    ``execute_place_run`` its last placement problem, per process; a sweep
    runs its shards in worker processes, so only a test that calls either
    function directly fills them here, and the next test must not inherit
    its network or problem.
    """
    clear_seed_runner()
    compare._SEED_PROBLEM.clear()


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded random generator for deterministic tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def run_once():
    """``run_once(spec, seed)``: one seed of a :class:`ScenarioSpec`, in-process.

    The shard body of ``repro.scenarios.runner`` minus the row: the same
    experiment and scheme seed, returning the :class:`ExperimentResult`.
    """
    from repro.scenarios.spec import derive_seed

    def run(spec, seed: int):
        runner, schemes = spec.build_experiment(seed)
        rng = np.random.default_rng(derive_seed(seed, "schemes"))
        return runner.run(schemes, rng=rng)

    return run


@pytest.fixture(scope="session")
def rebalance():
    """``rebalance(channel, ratio)``: re-split a channel's spendable funds.

    ``ratio`` of them go to ``node_a`` and the rest to ``node_b``; in-flight
    locks stay as they are.  The public ``write_balances`` does the write, so
    a ratio outside ``[0, 1]`` is refused as a negative balance.
    """

    def run(channel, ratio: float = 0.5) -> None:
        balance_a, balance_b = channel.balance_pair()
        spendable = balance_a + balance_b
        channel.write_balances(spendable * ratio, spendable * (1.0 - ratio))

    return run


@pytest.fixture
def triangle_network() -> PCNetwork:
    """The three-node network of the paper's figure 1 (A - C - B)."""
    network = PCNetwork()
    for node in ("A", "B", "C"):
        network.add_node(node, role="client")
    network.add_channel("A", "C", 10.0, 10.0)
    network.add_channel("C", "B", 10.0, 10.0)
    return network


@pytest.fixture
def line_network() -> PCNetwork:
    """A five-node path network with uniform 50-token sides."""
    network = PCNetwork()
    nodes = ["n0", "n1", "n2", "n3", "n4"]
    for node in nodes:
        network.add_node(node, role="client")
    for a, b in zip(nodes, nodes[1:]):
        network.add_channel(a, b, 50.0, 50.0)
    return network


@pytest.fixture
def small_ws_network() -> PCNetwork:
    """A 30-node Watts-Strogatz PCN with candidates, used across subsystems."""
    return watts_strogatz_pcn(
        30,
        nearest_neighbors=4,
        rewire_probability=0.2,
        uniform_channel_size=200.0,
        candidate_fraction=0.2,
        seed=7,
    )


@pytest.fixture
def funded_ws_network() -> PCNetwork:
    """A 40-node Watts-Strogatz PCN funded from the paper's channel-size model."""
    return watts_strogatz_pcn(
        40,
        nearest_neighbors=6,
        rewire_probability=0.25,
        channel_sizes=ChannelSizeDistribution(),
        candidate_fraction=0.15,
        seed=11,
    )


@pytest.fixture
def grid_network() -> PCNetwork:
    """A 4x4 grid PCN (hand-checkable hop counts)."""
    return grid_pcn(4, 4, channel_size=100.0, seed=3)


@pytest.fixture
def multi_star_network() -> PCNetwork:
    """A 3-hub multi-star PCN (figure 2(b))."""
    return multi_star_pcn(hub_count=3, clients_per_hub=4)


@pytest.fixture
def tiny_placement_problem() -> PlacementProblem:
    """A hand-built placement instance with 3 candidates and 4 clients."""
    clients = ["c0", "c1", "c2", "c3"]
    candidates = ["h0", "h1", "h2"]
    zeta = {
        "c0": {"h0": 0.02, "h1": 0.06, "h2": 0.08},
        "c1": {"h0": 0.04, "h1": 0.02, "h2": 0.06},
        "c2": {"h0": 0.08, "h1": 0.04, "h2": 0.02},
        "c3": {"h0": 0.06, "h1": 0.02, "h2": 0.04},
    }
    delta = {
        "h0": {"h0": 0.0, "h1": 0.01, "h2": 0.02},
        "h1": {"h0": 0.01, "h1": 0.0, "h2": 0.01},
        "h2": {"h0": 0.02, "h1": 0.01, "h2": 0.0},
    }
    epsilon = {
        "h0": {"h0": 0.0, "h1": 0.05, "h2": 0.10},
        "h1": {"h0": 0.05, "h1": 0.0, "h2": 0.05},
        "h2": {"h0": 0.10, "h1": 0.05, "h2": 0.0},
    }
    model = PlacementCostModel(clients, candidates, zeta, delta, epsilon)
    return PlacementProblem(model, omega=0.5)


@pytest.fixture
def small_placement_problem(small_ws_network) -> PlacementProblem:
    """A placement instance probed from the 30-node fixture network."""
    model = cost_model_from_network(small_ws_network)
    return PlacementProblem(model, omega=0.05)


@pytest.fixture
def value_distribution() -> TransactionValueDistribution:
    """A light transaction-value distribution for fast simulation tests."""
    return TransactionValueDistribution(mean_value=8.0, tail_fraction=0.05, tail_start=40.0)
