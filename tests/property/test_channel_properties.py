"""Property-based tests of the payment-channel invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.channel import InsufficientFundsError, PaymentChannel

# Operation encoding: (kind, fraction) where kind chooses lock/settle/release/transfer
# and fraction scales the amount against the current spendable balance.
_operations = st.lists(
    st.tuples(st.sampled_from(["lock_a", "lock_b", "settle", "release", "transfer_a", "transfer_b"]),
              st.floats(min_value=0.0, max_value=1.0)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(
    balance_a=st.floats(min_value=0.0, max_value=1000.0),
    balance_b=st.floats(min_value=0.0, max_value=1000.0),
    operations=_operations,
)
def test_capacity_is_conserved_and_balances_stay_non_negative(balance_a, balance_b, operations):
    """No sequence of channel operations creates or destroys funds."""
    channel = PaymentChannel("a", "b", balance_a, balance_b)
    initial_capacity = channel.capacity
    outstanding = []
    for kind, fraction in operations:
        if kind in ("lock_a", "lock_b", "transfer_a", "transfer_b"):
            sender = "a" if kind.endswith("a") else "b"
            amount = channel.balance(sender) * fraction
            try:
                if kind.startswith("lock"):
                    outstanding.append(channel.lock(sender, amount))
                else:
                    channel.transfer(sender, amount)
            except InsufficientFundsError:
                pass
        elif kind == "settle" and outstanding:
            channel.settle(outstanding.pop())
        elif kind == "release" and outstanding:
            channel.release(outstanding.pop())
        assert channel.balance("a") >= -1e-9
        assert channel.balance("b") >= -1e-9
        assert channel.locked_total() >= -1e-9
        assert channel.capacity == pytest.approx(initial_capacity, rel=1e-9, abs=1e-6)

    # Draining all locks returns the channel to a lock-free state with the
    # same total capacity.
    for lock_id in list(outstanding):
        channel.release(lock_id)
    assert channel.locked_total() == pytest.approx(0.0, abs=1e-9)
    assert channel.capacity == pytest.approx(initial_capacity, rel=1e-9, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(
    balance_a=st.floats(min_value=1.0, max_value=500.0),
    balance_b=st.floats(min_value=1.0, max_value=500.0),
    ratio=st.floats(min_value=0.0, max_value=1.0),
)
def test_rebalance_preserves_total_and_respects_ratio(rebalance, balance_a, balance_b, ratio):
    channel = PaymentChannel("a", "b", balance_a, balance_b)
    total = channel.balance("a") + channel.balance("b")
    rebalance(channel, ratio)
    assert channel.balance("a") + channel.balance("b") == pytest.approx(total)
    assert channel.balance("a") == pytest.approx(total * ratio)


@settings(max_examples=100, deadline=None)
@given(
    balance=st.floats(min_value=0.0, max_value=100.0),
    amount=st.floats(min_value=0.0, max_value=200.0),
)
def test_lock_never_overdraws(balance, amount):
    channel = PaymentChannel("a", "b", balance, 10.0)
    if amount <= balance + 1e-9:
        channel.lock("a", amount)
        assert channel.balance("a") >= -1e-9
    else:
        with pytest.raises(InsufficientFundsError):
            channel.lock("a", amount)
