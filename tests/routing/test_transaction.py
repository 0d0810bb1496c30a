"""Tests for payments, transaction units and value splitting."""

import pytest

from repro.routing.transaction import (
    PAPER_MAX_TU,
    PAPER_MIN_TU,
    FailureReason,
    Payment,
    PaymentStatus,
    split_value,
)


class TestSplitValue:
    def test_small_value_single_unit(self):
        assert split_value(2.5, 1.0, 4.0) == [2.5]

    def test_value_below_min_tu_is_single_unit(self):
        assert split_value(0.5, 1.0, 4.0) == [0.5]

    def test_units_sum_to_value(self):
        units = split_value(37.3, 1.0, 4.0)
        assert sum(units) == pytest.approx(37.3)

    def test_units_respect_max(self):
        assert all(u <= 4.0 + 1e-9 for u in split_value(100.0, 1.0, 4.0))

    def test_units_respect_min(self):
        units = split_value(41.5, 1.0, 4.0)
        assert all(u >= 1.0 - 1e-9 for u in units)

    def test_undersized_remainder_folded(self):
        units = split_value(8.5, 1.0, 4.0)
        assert sum(units) == pytest.approx(8.5)
        assert all(u >= 1.0 for u in units)

    def test_exact_multiple(self):
        assert split_value(12.0, 1.0, 4.0) == [4.0, 4.0, 4.0]

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            split_value(0.0)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            split_value(10.0, 4.0, 1.0)
        with pytest.raises(ValueError):
            split_value(10.0, 0.0, 1.0)

    def test_paper_defaults(self):
        units = split_value(10.0)
        assert all(PAPER_MIN_TU <= u <= PAPER_MAX_TU for u in units)


class TestPaymentLifecycle:
    def test_create(self):
        payment = Payment.create("a", "b", 10.0, created_at=1.0, timeout=3.0)
        assert payment.status == PaymentStatus.PENDING
        assert payment.deadline == pytest.approx(4.0)

    def test_create_requires_a_timeout(self):
        # The deadline is the scheme's (RoutingScheme.timeout); no second default.
        with pytest.raises(TypeError, match="timeout"):
            Payment.create("a", "b", 10.0)

    def test_create_rejects_self_payment(self):
        with pytest.raises(ValueError):
            Payment.create("a", "a", 10.0, timeout=3.0)

    def test_create_rejects_non_positive_value(self):
        with pytest.raises(ValueError):
            Payment.create("a", "b", 0.0, timeout=3.0)

    def test_unique_ids(self):
        first = Payment.create("a", "b", 1.0, timeout=3.0)
        second = Payment.create("a", "b", 1.0, timeout=3.0)
        assert first.payment_id != second.payment_id

    def test_split_creates_units(self):
        payment = Payment.create("a", "b", 10.0, timeout=3.0)
        units = payment.split(1.0, 4.0)
        assert sum(unit.value for unit in units) == pytest.approx(10.0)
        assert payment.status == PaymentStatus.IN_FLIGHT
        assert all(unit.sender == "a" and unit.recipient == "b" for unit in units)

    def test_double_split_rejected(self):
        payment = Payment.create("a", "b", 10.0, timeout=3.0)
        payment.split()
        with pytest.raises(ValueError):
            payment.split()

    def test_completion_requires_all_units(self):
        payment = Payment.create("a", "b", 10.0, timeout=3.0)
        units = payment.split(1.0, 4.0)
        for unit in units[:-1]:
            payment.record_unit_delivery(unit, now=1.0)
            assert not payment.is_complete
        payment.record_unit_delivery(units[-1], now=2.0)
        assert payment.is_complete
        assert payment.completed_at == pytest.approx(2.0)
        assert payment.latency == pytest.approx(2.0)

    def test_delivery_of_foreign_unit_rejected(self):
        first = Payment.create("a", "b", 10.0, timeout=3.0)
        second = Payment.create("a", "b", 10.0, timeout=3.0)
        unit = second.split()[0]
        with pytest.raises(ValueError):
            first.record_unit_delivery(unit, now=0.0)

    def test_hops_accumulate_from_paths(self):
        payment = Payment.create("a", "b", 6.0, timeout=3.0)
        units = payment.split(1.0, 4.0)
        for unit in units:
            unit.path = ("a", "x", "b")
            payment.record_unit_delivery(unit, now=1.0)
        assert payment.hops_used == 2 * len(units)

    def test_fail_does_not_override_completion(self):
        payment = Payment.create("a", "b", 2.0, timeout=3.0)
        unit = payment.split()[0]
        payment.record_unit_delivery(unit, now=0.5)
        payment.fail()
        assert payment.is_complete
        assert not payment.is_failed

    def test_fail_marks_failed(self):
        payment = Payment.create("a", "b", 2.0, timeout=3.0)
        payment.fail()
        assert payment.is_failed
        assert payment.latency is None

    def test_outstanding_units(self):
        payment = Payment.create("a", "b", 8.0, timeout=3.0)
        units = payment.split(1.0, 4.0)
        payment.record_unit_delivery(units[0], now=0.1)
        assert units[0] not in payment.outstanding_units
        assert len(payment.outstanding_units) == len(units) - 1


class TestTransactionUnit:
    def test_expiry(self):
        payment = Payment.create("a", "b", 2.0, created_at=0.0, timeout=1.0)
        unit = payment.split()[0]
        assert not unit.expired(0.5)
        assert unit.expired(1.5)

    def test_delivered_unit_never_expires(self):
        payment = Payment.create("a", "b", 2.0, created_at=0.0, timeout=1.0)
        unit = payment.split()[0]
        payment.record_unit_delivery(unit, now=0.5)
        assert not unit.expired(10.0)


class TestFailureReason:
    def test_fail_records_first_cause(self):
        payment = Payment.create("a", "b", 2.0, timeout=3.0)
        payment.fail(FailureReason.NO_PATH)
        payment.fail(FailureReason.TIMEOUT)
        assert payment.is_failed
        assert payment.failure_reason == "no-path"

    def test_fail_without_reason_leaves_reason_unset(self):
        payment = Payment.create("a", "b", 2.0, timeout=3.0)
        payment.fail()
        assert payment.is_failed
        assert payment.failure_reason is None
        # A later attributed fail may still fill in the cause.
        payment.fail(FailureReason.LOCK_CONTENTION)
        assert payment.failure_reason == "lock-contention"

    def test_fail_accepts_raw_code_strings(self):
        payment = Payment.create("a", "b", 2.0, timeout=3.0)
        payment.fail("queue-full")
        assert payment.failure_reason == "queue-full"

    def test_fail_rejects_unknown_codes(self):
        payment = Payment.create("a", "b", 2.0, timeout=3.0)
        with pytest.raises(ValueError):
            payment.fail("meteor-strike")

    def test_completed_payment_gets_no_reason(self):
        payment = Payment.create("a", "b", 2.0, timeout=3.0)
        unit = payment.split()[0]
        payment.record_unit_delivery(unit, now=0.5)
        payment.fail(FailureReason.TIMEOUT)
        assert payment.is_complete
        assert payment.failure_reason is None

    def test_reason_values_are_plain_strings(self):
        for reason in FailureReason:
            assert isinstance(reason.value, str)
            assert FailureReason(reason.value) is reason
