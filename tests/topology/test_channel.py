"""Unit tests for the payment channel primitive."""

import pytest

from repro.topology.channel import (
    ChannelClosedError,
    ChannelError,
    InsufficientFundsError,
    PaymentChannel,
    UnknownLockError,
)
from repro.topology.network import PCNetwork


@pytest.fixture
def channel() -> PaymentChannel:
    return PaymentChannel("a", "b", 100.0, 50.0)


class TestConstruction:
    def test_initial_balances(self, channel):
        assert channel.balance("a") == 100.0
        assert channel.balance("b") == 50.0
        assert channel.capacity == 150.0

    def test_initial_balance_recorded(self, channel):
        assert channel.initial_balance("a") == 100.0
        assert channel.initial_balance("b") == 50.0

    def test_endpoints(self, channel):
        assert channel.endpoints == ("a", "b")
        assert channel.other("a") == "b"
        assert channel.other("b") == "a"

    def test_rejects_same_endpoint(self):
        with pytest.raises(ValueError):
            PaymentChannel("a", "a", 10.0, 10.0)

    def test_rejects_negative_balances(self):
        with pytest.raises(ValueError):
            PaymentChannel("a", "b", -1.0, 10.0)

    def test_unknown_member_raises(self, channel):
        with pytest.raises(KeyError):
            channel.balance("z")

    def test_channel_ids_are_unique(self):
        first = PaymentChannel("a", "b", 1.0, 1.0)
        second = PaymentChannel("a", "b", 1.0, 1.0)
        assert first.channel_id != second.channel_id


class TestLockSettleRelease:
    def test_lock_reduces_spendable_balance(self, channel):
        channel.lock("a", 30.0)
        assert channel.balance("a") == pytest.approx(70.0)
        assert channel.locked_total() == pytest.approx(30.0)
        assert channel.capacity == pytest.approx(150.0)

    def test_settle_moves_funds_to_receiver(self, channel):
        lock_id = channel.lock("a", 30.0)
        channel.settle(lock_id)
        assert channel.balance("a") == pytest.approx(70.0)
        assert channel.balance("b") == pytest.approx(80.0)
        assert channel.locked_total() == 0.0

    def test_release_returns_funds_to_sender(self, channel):
        lock_id = channel.lock("a", 30.0)
        channel.release(lock_id)
        assert channel.balance("a") == pytest.approx(100.0)
        assert channel.balance("b") == pytest.approx(50.0)

    def test_capacity_conserved_through_operations(self, channel):
        initial = channel.capacity
        lock_one = channel.lock("a", 20.0)
        lock_two = channel.lock("b", 10.0)
        channel.settle(lock_one)
        channel.release(lock_two)
        channel.transfer("b", 5.0)
        assert channel.capacity == pytest.approx(initial)

    def test_lock_more_than_balance_raises(self, channel):
        with pytest.raises(InsufficientFundsError):
            channel.lock("b", 51.0)

    def test_lock_negative_raises(self, channel):
        with pytest.raises(ValueError):
            channel.lock("a", -1.0)

    def test_unknown_lock_raises(self, channel):
        with pytest.raises(UnknownLockError):
            channel.settle(999)

    def test_double_settle_raises(self, channel):
        lock_id = channel.lock("a", 10.0)
        channel.settle(lock_id)
        with pytest.raises(UnknownLockError):
            channel.settle(lock_id)

    def test_multiple_concurrent_locks(self, channel):
        ids = [channel.lock("a", 10.0) for _ in range(5)]
        assert channel.locked_total("a") == pytest.approx(50.0)
        assert channel.balance("a") == pytest.approx(50.0)
        for lock_id in ids:
            channel.settle(lock_id)
        assert channel.balance("b") == pytest.approx(100.0)

    def test_lock_tags_and_timestamps(self, channel):
        channel.lock("a", 5.0, now=1.5, tag="tu-1")
        lock = next(iter(channel.locks()))
        assert lock.tag == "tu-1"
        assert lock.created_at == 1.5

    def test_can_send(self, channel):
        assert channel.can_send("a", 100.0)
        assert not channel.can_send("a", 100.1)
        assert not channel.can_send("a", -1.0)


class TestTransferAndRebalance:
    def test_transfer_moves_funds(self, channel):
        channel.transfer("a", 25.0)
        assert channel.balance("a") == pytest.approx(75.0)
        assert channel.balance("b") == pytest.approx(75.0)

    def test_imbalance_metric(self, channel):
        assert channel.imbalance() == pytest.approx(50.0 / 150.0)
        channel.transfer("a", 25.0)
        assert channel.imbalance() == pytest.approx(0.0)

    def test_rebalance_splits_funds(self, channel):
        channel.rebalance(0.5)
        assert channel.balance("a") == pytest.approx(75.0)
        assert channel.balance("b") == pytest.approx(75.0)

    def test_rebalance_invalid_ratio(self, channel):
        with pytest.raises(ValueError):
            channel.rebalance(1.5)

    def test_forwarding_fee(self):
        channel = PaymentChannel("a", "b", 10.0, 10.0, base_fee=1.0, fee_rate=0.01)
        assert channel.forwarding_fee(100.0) == pytest.approx(2.0)


class TestCloseSnapshotStats:
    def test_close_releases_locks_and_settles(self, channel):
        channel.lock("a", 40.0)
        settlement = channel.close()
        assert settlement["a"] == pytest.approx(100.0)
        assert settlement["b"] == pytest.approx(50.0)
        assert channel.closed

    def test_operations_after_close_raise(self, channel):
        channel.close()
        with pytest.raises(ChannelClosedError):
            channel.lock("a", 1.0)
        with pytest.raises(ChannelClosedError):
            channel.close()

    def test_snapshot_restore_roundtrip(self, channel):
        channel.transfer("a", 30.0)
        snapshot = channel.snapshot()
        channel.transfer("a", 20.0)
        channel.restore(snapshot)
        assert channel.balance("a") == pytest.approx(70.0)
        assert channel.balance("b") == pytest.approx(80.0)

    def test_snapshot_with_locks_raises(self, channel):
        channel.lock("a", 5.0)
        with pytest.raises(ChannelError):
            channel.snapshot()

    def test_restore_wrong_endpoints_raises(self, channel):
        with pytest.raises(ValueError):
            channel.restore({"a": 1.0, "z": 2.0})

    def test_lock_settle_release_balances(self):
        network = PCNetwork()
        network.add_node("a")
        network.add_node("b")
        channel = network.add_channel("a", "b", 100.0, 50.0)
        first = channel.lock("a", 10.0)
        second = channel.lock("a", 10.0)
        assert channel.locked_total() == 20.0
        assert network.balance_store.open_locks == 2
        channel.settle(first)
        channel.release(second)
        assert channel.balance("a") == 90.0
        assert channel.balance("b") == 60.0
        assert channel.locked_total() == 0
        assert network.balance_store.open_locks == 0
