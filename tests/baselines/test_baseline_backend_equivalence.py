"""Differential suite: batched baseline execution vs the scalar references.

Mirrors ``tests/routing/test_backend_equivalence.py`` one layer up: each
production baseline scheme (array executor, per-pair path catalogs) must
match its :mod:`repro.reference.baselines` counterpart (per-hop lock/settle
walk, per-payment paths) on every success/failure decision and every
routed amount, across random topologies and seeds, to 1e-9 -- and the
epoch-batched arrival draining of the experiment runner must be
indistinguishable from per-arrival delivery.
"""

import numpy as np
import pytest

from repro import baselines as production
from repro.baselines.base import AtomicRoutingMixin, RoutingScheme
from repro.reference import baselines as reference
from repro.reference.simulator import PerEventRunner
from repro.reference.topology import path_capacity
from repro.routing.transaction import Payment
from repro.scenarios.dynamics import churn_events, jamming_events
from repro.simulator.experiment import ExperimentRunner
from repro.simulator.workload import WorkloadConfig, generate_workload
from repro.topology.csr import GraphArrays
from repro.topology.generators import watts_strogatz_pcn
from repro.topology.network import PCNetwork
from repro.topology.pathcsr import PathCSR

TOL = 1e-9

SCHEME_FACTORIES = {
    "a2l": lambda side: side.A2LScheme(),
    "shortest-path": lambda side: side.ShortestPathScheme(),
    "landmark": lambda side: side.LandmarkScheme(),
    "flash": lambda side: side.FlashScheme(),
    "spider": lambda side: side.SpiderScheme(),
    "speedymurmurs": lambda side: side.SpeedyMurmursScheme(),
    "waterfilling": lambda side: side.WaterfillingScheme(),
}


def _build_network(seed, nodes=26):
    return watts_strogatz_pcn(
        nodes,
        nearest_neighbors=4,
        rewire_probability=0.3,
        uniform_channel_size=80.0,
        candidate_fraction=0.2,
        seed=seed,
    )


def _balances(network):
    """Final spendable balances per channel."""
    return {channel.endpoints: channel.balance_pair() for channel in network.channels()}


def _run(scheme_name, side, seed, dynamics_kind=None, runner_class=ExperimentRunner):
    """One full experiment run; returns (metrics, final channel balances).

    ``seed`` varies both the topology and the workload, so the differential
    coverage spans different graphs, not just different arrival streams.
    """
    network = _build_network(seed=seed + 100)
    workload = generate_workload(
        network, WorkloadConfig(duration=4.0, arrival_rate=15.0, seed=seed)
    )
    events = None
    if dynamics_kind == "churn":
        events = churn_events(
            network, np.random.default_rng(11), count=8, start=0.5, end=3.0, down_time=1.0
        )
    elif dynamics_kind == "jamming":
        events = jamming_events(network, at=0.5, duration=2.5, count=6, fraction=0.9)
    runner = runner_class(network, workload, step_size=0.1, dynamics=events)
    scheme = SCHEME_FACTORIES[scheme_name](side)
    metrics = runner.run_single(scheme, rng=np.random.default_rng(0))
    return metrics, _balances(network)


def _assert_equivalent(result_reference, result_production):
    metrics_py, balances_py = result_reference
    metrics_np, balances_np = result_production
    assert metrics_np.generated_count == metrics_py.generated_count
    assert metrics_np.completed_count == metrics_py.completed_count
    assert metrics_np.failed_count == metrics_py.failed_count
    assert metrics_np.success_ratio == pytest.approx(metrics_py.success_ratio, abs=TOL)
    assert metrics_np.completed_value == pytest.approx(metrics_py.completed_value, abs=TOL)
    assert metrics_np.normalized_throughput == pytest.approx(
        metrics_py.normalized_throughput, abs=TOL
    )
    assert metrics_np.overhead_messages == pytest.approx(metrics_py.overhead_messages, abs=TOL)
    assert metrics_np.transfer_hops == metrics_py.transfer_hops
    # Exact: the executor replays the scalar lock/settle arithmetic in the
    # same floating-point order, so every balance is bit-identical.
    assert balances_np == balances_py


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
class TestStaticEquivalence:
    """Static topology: production agrees with the reference decision for decision."""

    def test_backends_agree(self, scheme_name, seed):
        _assert_equivalent(
            _run(scheme_name, reference, seed), _run(scheme_name, production, seed)
        )


@pytest.mark.parametrize("dynamics_kind", ["churn", "jamming"])
@pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
class TestDynamicEquivalence:
    """Mid-run topology churn and jamming: path catalogs and the balance
    mirror must invalidate exactly when the scalar reference sees the
    mutation, including Flash's deliberately stale mouse-path pools,
    Spider's price-table placeholder rows and SpeedyMurmurs' embedding
    repair."""

    def test_backends_agree(self, scheme_name, dynamics_kind):
        _assert_equivalent(
            _run(scheme_name, reference, seed=4, dynamics_kind=dynamics_kind),
            _run(scheme_name, production, seed=4, dynamics_kind=dynamics_kind),
        )


@pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
class TestBatchDrainingEquivalence:
    """Per-arrival delivery (the oracle runner) vs the batched cursor drain,
    both over the production schemes."""

    def test_batching_is_invisible(self, scheme_name):
        _assert_equivalent(
            _run(scheme_name, production, seed=3, runner_class=PerEventRunner),
            _run(scheme_name, production, seed=3),
        )


class TestExecutorArithmetic:
    """The executor's lock/settle arithmetic against the scalar mixin,
    including the shared-channel rollback path landmark routes can hit."""

    class _Harness(AtomicRoutingMixin, RoutingScheme):
        name = "harness"

    class _ScalarHarness(reference.ScalarAtomicMixin, _Harness):
        pass

    HARNESSES = {"reference": _ScalarHarness, "production": _Harness}

    @staticmethod
    def _line(n=5, capacity=40.0):
        network = PCNetwork()
        nodes = [f"n{i}" for i in range(n)]
        for node in nodes:
            network.add_node(node)
        for a, b in zip(nodes, nodes[1:]):
            network.add_channel(a, b, capacity, capacity)
        return network, nodes

    #: Two paths sharing the n1-n2 channel in the second case: joint
    #: capacity looks sufficient, but the second allocation's lock must fail
    #: and roll back everything (the scalar InsufficientFundsError path).
    SHARED_CHANNEL_CASES = [
        (["n0 n1 n2".split()], 25.0),
        (["n0 n1 n2".split(), "n0 n1 n2 n3".split()], 70.0),
        (["n2 n3 n4".split()], 10.0),
        (["n4 n3".split(), "n4 n3 n2".split()], 50.0),
    ]

    #: A2L-style leg pairs that cross the n1-n2 channel out and back: both
    #: directions of one channel locked by one payment, settled in order.
    BOTH_DIRECTIONS_CASES = [
        (["n0 n1 n2 n1".split()], 30.0),
        (["n3 n2 n1 n2 n3".split()], 12.5),
        (["n0 n1 n2 n1".split(), "n0 n1".split()], 45.0),
        (["n1 n2 n1 n0".split()], 60.0),
    ]

    def _execute_sequence(self, side, cases=SHARED_CHANNEL_CASES, jam=False):
        network, nodes = self._line()
        if jam:
            # An externally held lock on the crossed channel: its funds are
            # out of the spendable balance, so the executor must fail and
            # settle exactly where the scalar walk's channel locks do.
            network.channel("n1", "n2").lock("n2", 7.5, now=0.0, tag="jam")
        harness = self.HARNESSES[side]()
        harness.prepare(network)
        payments = []
        for index, (paths, value) in enumerate(cases):
            payment = Payment.create("s", "t", value, created_at=0.1 * index, timeout=9.0)
            outcome = harness._execute(payment, PathCSR(network, paths), 0.1 * index)
            payments.append(
                (
                    outcome,
                    payment.status,
                    payment.failure_reason,
                    payment.completed_at,
                    payment.delivered_value,
                    payment.hops_used,
                    payment.latency,
                )
            )
        harness.step(1.0, 0.1)
        return payments, _balances(network)

    @pytest.mark.parametrize(
        "cases, jam",
        [(SHARED_CHANNEL_CASES, False), (BOTH_DIRECTIONS_CASES, False), (BOTH_DIRECTIONS_CASES, True)],
        ids=["shared-channel", "both-directions", "both-directions-jammed"],
    )
    def test_arithmetic_matches(self, cases, jam):
        payments_py, balances_py = self._execute_sequence("reference", cases, jam)
        payments_np, balances_np = self._execute_sequence("production", cases, jam)
        outcomes = [payment[0] for payment in payments_np]
        assert True in outcomes and False in outcomes
        # Per payment: outcome, status, failure reason, completion time,
        # delivered value, hops and latency -- the executor completes a
        # payment in place, the scalar walk through a full-value unit.
        assert payments_np == payments_py
        assert balances_np == balances_py

    def test_balances_are_live_right_after_execute(self):
        """No hook between an execution and a reader: the store is the balance.

        Channel views, ``PathCSR`` capacities and the CSR kernels' balance vector
        all see the payment the moment ``execute`` returns, because it bumps
        the store's ``version``.
        """
        network, _ = self._line()
        arrays = network.graph_arrays()
        arrays.refresh_balances()
        store = network.balance_store
        version = store.version
        harness = self._Harness()
        harness.prepare(network)
        payment = Payment.create("s", "t", 25.0, created_at=0.0, timeout=9.0)
        assert harness._execute(payment, PathCSR(network, ["n0 n1 n2".split()]), 0.0)
        assert store.version != version
        assert network.channel("n0", "n1").balance_pair() == (15.0, 65.0)
        assert network.channel("n1", "n2").balance_pair() == (15.0, 65.0)
        assert PathCSR(network, ["n0 n1 n2".split(), "n2 n1 n0".split()]).capacities().tolist() == [
            15.0, 65.0,
        ]
        assert path_capacity(network, ["n0", "n1", "n2"]) == 15.0
        arrays.refresh_balances()
        fresh = GraphArrays(network)
        fresh.refresh_balances()
        assert arrays.balance == fresh.balance
        n0, n1 = arrays.node_row["n0"], arrays.node_row["n1"]
        assert arrays.balance[arrays.slot(n0, n1)] == 15.0

    def test_conservation_after_mixed_outcomes(self):
        for side in ("reference", "production"):
            network, _ = self._line()
            total_before = network.total_funds()
            harness = self.HARNESSES[side]()
            harness.prepare(network)
            for value in (10.0, 500.0, 35.0, 120.0):
                payment = Payment.create("s", "t", value, created_at=0.0, timeout=9.0)
                harness._execute(
                    payment, PathCSR(network, [["n0", "n1", "n2", "n3", "n4"]]), 0.0
                )
            harness.step(0.1, 0.1)
            assert network.total_funds() == pytest.approx(total_before, abs=1e-6)
