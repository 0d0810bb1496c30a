"""Tests for the stable index maps and array kernels of the numpy backend."""

import numpy as np
import pytest

from repro.routing.state import ChannelArrays, IndexMap, PathIndex
from repro.topology.network import PCNetwork


def _abc_network():
    """``a - b - c`` with 10 a side / 30 the other, keyed like the price rows."""
    network = PCNetwork()
    for node in "abc":
        network.add_node(node)
    network.add_channel("a", "b", 10.0, 30.0)
    network.add_channel("b", "c", 10.0, 30.0)
    return network


class TestIndexMap:
    def test_rows_are_stable_and_dense(self):
        index = IndexMap()
        assert index.add("a") == 0
        assert index.add("b") == 1
        assert index.add("a") == 0  # idempotent
        assert len(index) == 2
        assert index.row("b") == 1
        assert index.key(1) == "b"
        assert list(index) == ["a", "b"]

    def test_unknown_key(self):
        index = IndexMap()
        assert index.get("missing") is None
        with pytest.raises(KeyError):
            index.row("missing")


class TestChannelArrays:
    def test_growth_preserves_state(self):
        channels = ChannelArrays()
        first = channels.add(("a", "b"), 10.0)
        channels.capacity_price[first] = 3.5
        for i in range(200):  # force several growth cycles
            channels.add((f"n{i}", f"m{i}"), float(i))
        assert channels.capacity[first] == 10.0
        assert channels.capacity_price[first] == 3.5
        assert channels.capacity[channels.index.row(("n150", "m150"))] == 150.0

    def test_side(self):
        channels = ChannelArrays()
        channels.add(("a", "b"), 1.0)
        assert channels.side(("a", "b"), "a") == 0
        assert channels.side(("a", "b"), "b") == 1
        with pytest.raises(KeyError):
            channels.side(("a", "b"), "z")

    def test_update_prices_matches_scalar_formula(self):
        channels = ChannelArrays()
        row = channels.add(("a", "b"), 100.0)
        channels.required[0, row] = 80.0
        channels.required[1, row] = 60.0
        channels.arrived[0, row] = 50.0
        channels.arrived[1, row] = 10.0
        channels.update_prices(kappa=0.1, eta=0.1)
        # capacity price: max(0, 0 + 0.1 * (140 - 100) / 100)
        assert channels.capacity_price[row] == pytest.approx(0.04)
        # imbalance: delta = 0.1 * 40 / 100
        assert channels.imbalance[0, row] == pytest.approx(0.04)
        assert channels.imbalance[1, row] == 0.0
        assert channels.arrived[0, row] == 0.0  # observations reset

    def test_update_bumps_version(self):
        channels = ChannelArrays()
        channels.add(("a", "b"), 1.0)
        before = channels.version
        channels.update_prices(kappa=0.1, eta=0.1)
        assert channels.version == before + 1


class TestPathIndex:
    def _fixture(self):
        channels = ChannelArrays()
        ab = channels.add(("a", "b"), 10.0)
        bc = channels.add(("b", "c"), 10.0)
        paths = PathIndex(_abc_network(), channels)
        # a->b->c: both hops travel first-endpoint -> second-endpoint
        row = paths.add_path(("a", "b", "c"), [ab, bc], [1.0, 1.0])
        back = paths.add_path(("c", "b"), [bc], [-1.0])
        return channels, paths, row, back, ab, bc

    def test_rows_stable_and_idempotent(self):
        channels, paths, row, back, ab, bc = self._fixture()
        assert row == 0 and back == 1
        assert paths.add_path(("a", "b", "c"), [ab, bc], [1.0, 1.0]) == row
        assert paths.get(("c", "b")) == back
        assert paths.get(("never", "seen")) is None

    def test_single_node_path_rejected(self):
        channels = ChannelArrays()
        paths = PathIndex(_abc_network(), channels)
        with pytest.raises(ValueError):
            paths.add_path(("a",), [], [])
        assert len(paths) == 0

    def test_path_prices_and_direction(self):
        channels, paths, row, back, ab, bc = self._fixture()
        channels.capacity_price[ab] = 1.0
        channels.imbalance[0, bc] = 0.5  # mu_{b->c}
        channels.version += 1
        prices = paths.path_prices(t_fee=0.0)
        # forward: (2*1 + 0) + (0 + 0.5) = 2.5; reverse c->b: -0.5
        assert prices[row] == pytest.approx(2.5)
        assert prices[back] == pytest.approx(-0.5)

    def test_price_cache_tracks_t_fee(self):
        channels, paths, row, back, ab, bc = self._fixture()
        channels.capacity_price[ab] = 1.0
        channels.version += 1
        assert paths.path_prices(t_fee=0.0)[row] == pytest.approx(2.0)
        assert paths.path_prices(t_fee=0.5)[row] == pytest.approx(3.0)

    def test_price_cache_tracks_version(self):
        channels, paths, row, back, ab, bc = self._fixture()
        first = paths.path_prices(t_fee=0.0)
        assert paths.path_prices(t_fee=0.0) is first  # cached
        channels.capacity_price[ab] = 2.0
        channels.version += 1
        assert paths.path_prices(t_fee=0.0)[row] != first[row]

    def test_max_imbalance_gaps(self):
        channels, paths, row, back, ab, bc = self._fixture()
        channels.imbalance[0, ab] = 0.9
        channels.imbalance[1, ab] = 0.1
        channels.version += 1
        gaps = paths.max_imbalance_gaps()
        assert gaps[row] == pytest.approx(0.8)
        assert gaps[back] == pytest.approx(0.0)

    def test_gather_hops_subset(self):
        channels, paths, row, back, ab, bc = self._fixture()
        hop_channel, hop_sign, lengths = paths.gather_hops(np.array([back, row]))
        assert lengths.tolist() == [1, 2]
        assert hop_channel.tolist() == [bc, ab, bc]
        assert hop_sign.tolist() == [-1.0, 1.0, 1.0]

    def test_aggregate_required_funds_overwrites_touched_only(self):
        channels, paths, row, back, ab, bc = self._fixture()
        channels.required[0, ab] = 99.0  # stale value, will be overwritten
        channels.required[1, ab] = 7.0  # reverse direction: untouched
        paths.aggregate_required_funds(np.array([row]), np.array([2.0]))
        assert channels.required[0, ab] == pytest.approx(2.0)
        assert channels.required[0, bc] == pytest.approx(2.0)
        assert channels.required[1, ab] == pytest.approx(7.0)

    def test_capacities_read_the_balance_store(self):
        channels, paths, row, back, ab, bc = self._fixture()
        assert paths.capacities().tolist() == [10.0, 30.0]
        assert [paths.capacity(row), paths.capacity(back)] == [10.0, 30.0]
        paths.network.channel("b", "c").transfer("c", 25.0)
        assert paths.capacities(np.array([back])).tolist() == [5.0]
        assert paths.capacity(row) == 10.0

    def test_csr_views_grow_with_registration(self):
        channels, paths, row, back, ab, bc = self._fixture()
        hop_channel, hop_sign, ptr = paths.csr()
        assert hop_channel.tolist() == [ab, bc, bc]
        assert hop_sign.tolist() == [1.0, 1.0, -1.0]
        assert ptr.tolist() == [0, 2, 3]
        for i in range(1, 71):
            # a -> b, then i round trips b -> c -> b
            paths.add_path(("a", "b") + ("c", "b") * i, [ab] + [bc, bc] * i, [1.0] + [1.0, -1.0] * i)
        hop_channel, _, ptr = paths.csr()
        assert len(paths) == 72 and ptr[-1] == hop_channel.shape[0]
        assert [len(paths.row_slots(row)) for row in range(len(paths))] == np.diff(ptr).tolist()
        assert paths.capacities().tolist()[:2] == [10.0, 30.0]
