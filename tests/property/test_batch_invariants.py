"""Property-based system invariants under batched dispatch.

Three invariants must hold for any batch the executor processes, whatever
the topology, funding or request mix:

* no channel's directional spendable balance ever goes negative,
* total funds are conserved across the whole batch (locked funds included),
* the batched executor and the scalar reference make identical
  decisions, payment for payment.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro import baselines as production
from repro.reference import baselines as reference
from repro.simulator.workload import TransactionRequest
from repro.topology.network import PCNetwork


def _with(scheme, **constants):
    """``scheme`` with some of its class constants overridden on the instance."""
    for name, value in constants.items():
        setattr(scheme, name, value)
    return scheme


SCHEME_FACTORIES = {
    "shortest-path": lambda side: side.ShortestPathScheme(),
    "landmark": lambda side: _with(side.LandmarkScheme(), landmark_count=3),
    "flash": lambda side: _with(side.FlashScheme(), elephant_threshold=40.0),
}


def _ring_with_chords(node_count: int, chord_stride: int, capacities) -> PCNetwork:
    """A ring plus chords, funded from the drawn capacity list (cycled)."""
    network = PCNetwork()
    nodes = [f"n{i}" for i in range(node_count)]
    for node in nodes:
        network.add_node(node)
    edges = [(nodes[i], nodes[(i + 1) % node_count]) for i in range(node_count)]
    if chord_stride >= 2:
        for i in range(0, node_count, chord_stride):
            a, b = nodes[i], nodes[(i + chord_stride) % node_count]
            if a != b and (a, b) not in edges and (b, a) not in edges:
                edges.append((a, b))
    for index, (a, b) in enumerate(edges):
        size = capacities[index % len(capacities)]
        network.add_channel(a, b, size, size)
    return network


@st.composite
def batch_scenarios(draw):
    node_count = draw(st.integers(min_value=4, max_value=12))
    chord_stride = draw(st.integers(min_value=2, max_value=4))
    capacities = draw(
        st.lists(
            st.floats(min_value=5.0, max_value=120.0, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    request_count = draw(st.integers(min_value=1, max_value=25))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=node_count - 1),
                st.integers(min_value=0, max_value=node_count - 1),
            ),
            min_size=request_count,
            max_size=request_count,
        )
    )
    values = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=200.0, allow_nan=False),
            min_size=request_count,
            max_size=request_count,
        )
    )
    requests = [
        TransactionRequest(
            arrival_time=0.01 * index,
            sender=f"n{source}",
            recipient=f"n{target}",
            value=value,
        )
        for index, ((source, target), value) in enumerate(zip(pairs, values))
        if source != target
    ]
    return node_count, chord_stride, capacities, requests


def _run_batch(scheme_name, side, node_count, chord_stride, capacities, requests):
    network = _ring_with_chords(node_count, chord_stride, capacities)
    total_before = network.total_funds()
    scheme = SCHEME_FACTORIES[scheme_name](side)
    scheme.prepare(network, rng=np.random.default_rng(0))
    payments = scheme.route_batch(requests)
    scheme.step(1.0, 0.1)
    return network, total_before, payments


@pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
class TestBatchInvariants:
    @settings(max_examples=25, deadline=None)
    @given(scenario=batch_scenarios())
    def test_balances_never_negative_and_funds_conserved(self, scheme_name, scenario):
        node_count, chord_stride, capacities, requests = scenario
        network, total_before, _ = _run_batch(
            scheme_name, production, node_count, chord_stride, capacities, requests
        )
        for channel in network.channels():
            assert channel.balance(channel.node_a) >= -1e-9
            assert channel.balance(channel.node_b) >= -1e-9
        assert network.total_funds() == pytest.approx(total_before, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(scenario=batch_scenarios())
    def test_backends_decide_identically(self, scheme_name, scenario):
        node_count, chord_stride, capacities, requests = scenario
        outcomes = {}
        balances = {}
        for side in (reference, production):
            network, _, payments = _run_batch(
                scheme_name, side, node_count, chord_stride, capacities, requests
            )
            outcomes[side] = [
                (payment.is_complete, payment.is_failed, payment.value)
                for payment in payments
            ]
            balances[side] = {
                channel.endpoints: (
                    channel.balance(channel.node_a),
                    channel.balance(channel.node_b),
                )
                for channel in network.channels()
            }
        assert outcomes[production] == outcomes[reference]
        for key, (balance_a, balance_b) in balances[reference].items():
            assert balances[production][key][0] == pytest.approx(balance_a, abs=1e-9)
            assert balances[production][key][1] == pytest.approx(balance_b, abs=1e-9)
