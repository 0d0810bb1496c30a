"""Equivalence suite: the array kernels must match the scalar reference.

Production (:mod:`repro.routing`) against :mod:`repro.reference.routing`, at
the three levels the vectorization touches:

* price-table level: identical channel/path prices after observations and
  updates,
* rate-controller level: identical gradient steps and required-funds
  reports,
* system level: three seeded scenarios through the full Splicer scheme must
  produce the same prices, rates and success ratio on both sides.

Tolerance is 1e-9 everywhere (the two differ only by floating-point
association order, which lands many orders of magnitude below that).
"""

import numpy as np
import pytest

from repro import routing as production
from repro.baselines import splicer_scheme
from repro.reference import baselines as reference_baselines
from repro.reference import routing as reference
from repro.simulator.experiment import ExperimentRunner
from repro.simulator.workload import WorkloadConfig, generate_workload
from repro.topology.generators import watts_strogatz_pcn
from repro.topology.network import PCNetwork

TOL = 1e-9


def _line_network(n=5, capacity=50.0):
    network = PCNetwork()
    nodes = [f"n{i}" for i in range(n)]
    for node in nodes:
        network.add_node(node, role="client")
    for a, b in zip(nodes, nodes[1:]):
        network.add_channel(a, b, capacity, capacity)
    return network


SIDES = (reference, production)


def _build_pair(side):
    """A (table, controller) pair over a line network with seeded state."""
    network = _line_network()
    table = side.PriceTable(network, kappa=0.1, eta=0.1, t_fee=0.01)
    controller = side.PathRateController(alpha=0.7, min_rate=0.2, initial_rate=3.0)
    rng = np.random.default_rng(42)
    pairs = [("n0", "n2"), ("n1", "n4"), ("n0", "n4"), ("n3", "n1")]
    for source, target in pairs:
        lo, hi = sorted((int(source[1]), int(target[1])))
        forward = tuple(f"n{i}" for i in range(lo, hi + 1))
        path = forward if source < target else tuple(reversed(forward))
        state = controller.register_pair(source, target, [path])
        state.rates = [float(5.0 * rng.random() + 0.5)]
        if rng.random() < 0.5:
            state.demand_rate = float(4.0 * rng.random() + 1.0)
    return network, table, controller, pairs


def _run_epochs(table, controller, epochs=5):
    rng = np.random.default_rng(7)
    for _ in range(epochs):
        for a, b in (("n0", "n1"), ("n1", "n2"), ("n3", "n2")):
            table.observe_transfer(a, b, float(10.0 * rng.random()))
        controller.report_required_funds(table, settlement_delay=0.2)
        table.update_all()
        controller.update_rates(table)


class TestPriceTableEquivalence:
    def test_channel_and_path_prices_match(self):
        results = {}
        for side in SIDES:
            network, table, controller, pairs = _build_pair(side)
            _run_epochs(table, controller)
            nodes = [f"n{i}" for i in range(5)]
            channel_prices = [
                (table.channel_price(a, b), table.channel_price(b, a), table.channel_fee(a, b))
                for a, b in zip(nodes, nodes[1:])
            ]
            paths = [("n0", "n1", "n2", "n3"), ("n3", "n2", "n1")]
            results[side] = (
                channel_prices,
                table.path_prices(paths).tolist(),
                [table.paths_blocked(paths, gap).tolist() for gap in (0.0, 0.01, 0.05)],
                table.path_capacities(paths).tolist(),
            )
        py, vec = results[reference], results[production]
        assert np.allclose(py[0], vec[0], atol=TOL, rtol=TOL)
        assert np.allclose(py[1], vec[1], atol=TOL, rtol=TOL)
        assert py[2:] == vec[2:]

    def test_view_accessors_match_scalar_entries(self):
        results = {}
        for side in SIDES:
            network, table, controller, _ = _build_pair(side)
            _run_epochs(table, controller)
            entry = table.prices("n1", "n2")
            results[side] = (
                entry.capacity_price,
                entry.imbalance_price["n1"],
                entry.imbalance_price["n2"],
                entry.required_funds["n1"],
                entry.routing_price("n1"),
                entry.forwarding_fee("n1", 0.01),
            )
        assert np.allclose(results[reference], results[production], atol=TOL, rtol=TOL)

    def test_path_queries_are_lenient_on_both_sides(self):
        """A path through a channel that neither has price state nor exists
        prices against placeholders and carries nothing, on both sides."""
        for side in SIDES:
            network = _line_network()
            table = side.PriceTable(network, kappa=0.01, eta=0.01, t_fee=0.01)
            dead = ("n0", "ghost", "n2")
            assert np.isfinite(table.path_prices([dead])[0])
            assert table.path_capacities([dead]).tolist() == [0.0]
            assert table.path_capacity(dead) == 0.0

    def test_batch_queries_match_one_path_queries(self):
        network, table, controller, _ = _build_pair(production)
        _run_epochs(table, controller)
        network.channel("n1", "n2").transfer("n1", 20.0)
        paths = [("n0", "n1", "n2"), ("n2", "n1", "n0"), ("n1", "n2", "n3", "n4")]
        prices = table.path_prices(paths)
        blocked = table.paths_blocked(paths, max_gap=0.05)
        capacities = table.path_capacities(paths)
        for i, path in enumerate(paths):
            assert table.path_prices([path])[0] == prices[i]
            assert table.paths_blocked([path], max_gap=0.05)[0] == blocked[i]
            assert table.path_capacity(path) == capacities[i]
        assert capacities.tolist() == [30.0, 50.0, 30.0]


class TestRateControllerEquivalence:
    def test_rates_match_after_epochs(self):
        final = {}
        for side in SIDES:
            network, table, controller, pairs = _build_pair(side)
            _run_epochs(table, controller, epochs=8)
            final[side] = {
                (source, target): list(controller.pair_state(source, target).rates)
                for source, target in pairs
            }
        for key in final[reference]:
            assert np.allclose(final[reference][key], final[production][key], atol=TOL, rtol=TOL)

    def test_required_funds_match(self):
        reported = {}
        for side in SIDES:
            network, table, controller, _ = _build_pair(side)
            controller.report_required_funds(table, settlement_delay=0.3)
            nodes = [f"n{i}" for i in range(5)]
            reported[side] = [
                (
                    table.prices(a, b).required_funds[a],
                    table.prices(a, b).required_funds[b],
                )
                for a, b in zip(nodes, nodes[1:])
            ]
        assert np.allclose(reported[reference], reported[production], atol=TOL, rtol=TOL)

    def test_prune_paths_preserves_prices_and_rate_updates(self):
        network, table, controller, pairs = _build_pair(production)
        _run_epochs(table, controller, epochs=3)
        # Register a throwaway path set (simulating churned-out paths).
        for i in range(4):
            table.path_row(("n4", "n3", "n2") if i % 2 else ("n2", "n3", "n4"))
        active = [path for s, t in pairs for path in controller.pair_state(s, t).paths]
        before = dict(zip(active, table.path_prices(active)))
        generation = table.path_generation
        table.prune_paths(active)
        assert table.path_generation == generation + 1
        assert table.registered_path_count() == len(set(active))
        for path, price in before.items():
            assert table.path_prices([path])[0] == pytest.approx(price, abs=TOL)
        _run_epochs(table, controller, epochs=2)  # flat cache must rebuild

    def _run_dead_path_scenario(self, side):
        """A path cached through a channel that opened and closed again
        before it was ever priced must not crash the epoch update or the
        dispatch ranking (regression: KeyError from pricing the dead hop)."""
        from repro.routing.transaction import Payment

        network = _line_network()
        # queue_limit small enough that the second submission is rejected
        # after its paths are cached but before they are ever priced.
        router = side.RateRouter(network)
        router.queue_limit = 6.0
        router.path_refresh_interval = 10.0
        network.add_node("z")
        network.add_channel("n0", "z", 50.0, 50.0)
        network.add_channel("z", "n2", 50.0, 50.0)
        filler = Payment.create("n0", "n4", 6.0, created_at=0.0, timeout=9.0)
        router.submit(filler, 0.0)
        rejected = Payment.create("n0", "n2", 5.0, created_at=0.0, timeout=9.0)
        router.submit(rejected, 0.0)
        assert rejected.failure_reason == "queue-full"  # paths for (n0, n2) cached, never priced
        network.remove_channel("n0", "z")
        network.remove_channel("z", "n2")
        for step in range(1, 11):  # epoch updates + dispatch must not raise
            router.step(0.1 * step, 0.1)
        assert filler.is_complete
        # The pair with the dead cached path keeps working end to end.
        accepted = Payment.create("n0", "n2", 2.0, created_at=1.1, timeout=9.0)
        router.submit(accepted, 1.1)
        assert not accepted.is_failed
        for step in range(1, 15):
            router.step(1.1 + 0.1 * step, 0.1)
        assert accepted.is_complete
        return {
            (state.source, state.target): list(state.rates)
            for state in router.rate_controller.pairs()
        }

    def test_dead_path_scenario_backends_agree(self):
        """Both sides survive the dead-path scenario AND allocate the
        same rates: the dead path must get identical zero-capacity
        placeholder economics (no free-price growth, no uncapped boost)."""
        rates_py = self._run_dead_path_scenario(reference)
        rates_np = self._run_dead_path_scenario(production)
        assert set(rates_py) == set(rates_np)
        for key in rates_py:
            assert np.allclose(rates_py[key], rates_np[key], atol=TOL, rtol=TOL)

    def test_router_prunes_retired_paths(self):
        from repro.routing.router import RateRouter

        network = _line_network()
        router = RateRouter(network)
        router.path_refresh_interval = 0.0
        # Register far more retired paths than the router's active set.
        for i in range(1200):
            network.add_node(f"x{i}")
            network.add_channel("n0", f"x{i}", 10.0, 10.0)
            router.price_table.path_row(("n0", f"x{i}"))
        assert router.price_table.registered_path_count() >= 1200
        from repro.routing.transaction import Payment

        payment = Payment.create("n0", "n2", 4.0, created_at=0.0, timeout=5.0)
        router.submit(payment, 0.0)
        router.step(0.3, 0.3)  # price update fires, then the prune
        assert router.price_table.registered_path_count() <= 512

    def test_registration_changes_invalidate_flat_cache(self):
        network, table, controller, _ = _build_pair(production)
        _run_epochs(table, controller, epochs=2)
        state = controller.register_pair("n0", "n3", [("n0", "n1", "n2", "n3")])
        _run_epochs(table, controller, epochs=2)
        assert len(state.rates) == 1
        controller.drop_pair("n0", "n3")
        _run_epochs(table, controller, epochs=2)  # must not crash on stale rows
        assert controller.pair_state("n0", "n3") is None


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestSystemEquivalence:
    """Three seeded scenarios end to end: success ratio must match exactly
    (it is a count ratio) and prices/rates within 1e-9."""

    def _run(self, scheme_class, seed):
        network = watts_strogatz_pcn(
            24,
            nearest_neighbors=4,
            rewire_probability=0.2,
            uniform_channel_size=200.0,
            candidate_fraction=0.2,
            seed=7,
        )
        workload = generate_workload(
            network, WorkloadConfig(duration=5.0, arrival_rate=12.0, seed=seed)
        )
        runner = ExperimentRunner(network, workload, step_size=0.1)
        scheme = scheme_class()
        metrics = runner.run_single(scheme, rng=np.random.default_rng(0))
        router = scheme.router
        rates = {
            (state.source, state.target): list(state.rates)
            for state in router.rate_controller.pairs()
        }
        prices = {
            (entry.node_a, entry.node_b): (
                entry.capacity_price,
                entry.imbalance_price[entry.node_a],
                entry.imbalance_price[entry.node_b],
            )
            for entry in router.price_table.all_prices()
        }
        return metrics, rates, prices

    def test_backends_agree(self, seed):
        metrics_py, rates_py, prices_py = self._run(reference_baselines.SplicerScheme, seed)
        metrics_np, rates_np, prices_np = self._run(splicer_scheme.SplicerScheme, seed)
        assert metrics_np.success_ratio == pytest.approx(metrics_py.success_ratio, abs=TOL)
        assert metrics_np.overhead_messages == metrics_py.overhead_messages
        assert metrics_np.normalized_throughput == pytest.approx(
            metrics_py.normalized_throughput, abs=TOL
        )
        assert set(rates_np) == set(rates_py)
        for key in rates_py:
            assert np.allclose(rates_py[key], rates_np[key], atol=TOL, rtol=TOL)
        assert set(prices_np) == set(prices_py)
        for key in prices_py:
            assert np.allclose(prices_py[key], prices_np[key], atol=TOL, rtol=TOL)
