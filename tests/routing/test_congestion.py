"""Tests for the congestion controller (queues, marking, windows)."""

import pytest

from repro.routing.congestion import (
    MIN_WINDOW,
    CongestionController,
    PathWindow,
    QueuedUnit,
)
from repro.routing.transaction import Payment


PATH_A = ("s", "x", "t")
PATH_B = ("s", "y", "t")


def _queued_unit(created_at: float = 0.0, timeout: float = 3.0) -> QueuedUnit:
    payment = Payment.create("s", "t", 2.0, created_at=created_at, timeout=timeout)
    unit = payment.split()[0]
    return QueuedUnit(unit=unit, enqueued_at=created_at)


class TestPathWindow:
    def test_can_send_until_window_full(self):
        window = PathWindow(size=2.0)
        assert window.can_send()
        window.on_launch()
        window.on_launch()
        assert not window.can_send()

    def test_completion_grows_window(self):
        window = PathWindow(size=4.0, in_flight=1)
        window.on_complete(pair_window_total=8.0, gamma=0.4)
        assert window.size == pytest.approx(4.05)
        assert window.in_flight == 0

    def test_abort_shrinks_window_with_floor(self):
        window = PathWindow(size=5.0, in_flight=1)
        window.on_abort(beta=10.0)
        assert window.size == MIN_WINDOW
        assert window.in_flight == 0


class TestWindows:
    def test_unused_paths_can_send(self):
        controller = CongestionController()
        assert controller.can_send(PATH_A)
        assert controller.can_send(PATH_B)

    def test_launch_and_complete_cycle(self):
        controller = CongestionController(initial_window=1.0, gamma=1.0)
        controller.on_launch(PATH_A)
        assert not controller.can_send(PATH_A)
        # Equation (28): gamma over the pair's window total, which counts the
        # never-used PATH_B at its initial size.
        controller.on_complete(PATH_A, [PATH_A, PATH_B])
        assert controller.can_send(PATH_A)
        assert controller.window(PATH_A).size == pytest.approx(1.0 + 1.0 / 2.0)
        assert controller.window(PATH_B).size == pytest.approx(1.0)
        # With no registered paths the denominator falls back to MIN_WINDOW.
        controller.on_complete(PATH_B, [])
        assert controller.window(PATH_B).size == pytest.approx(1.0 + 1.0 / MIN_WINDOW)

    def test_abort_shrinks(self):
        controller = CongestionController(initial_window=20.0, beta=5.0)
        controller.on_abort(PATH_A)
        assert controller.window(PATH_A).size == pytest.approx(15.0)

    def test_window_created_on_demand(self):
        controller = CongestionController()
        assert controller.window(PATH_A).size == controller.initial_window

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CongestionController(queue_limit=0.0)
        with pytest.raises(ValueError):
            CongestionController(delay_threshold=0.0)


class TestQueueAccounting:
    def test_enqueue_dequeue_tracking(self):
        controller = CongestionController(queue_limit=100.0)
        assert controller.can_enqueue("hub", 60.0)
        controller.on_enqueue("hub", 60.0)
        assert controller.queued_value("hub") == 60.0
        assert not controller.can_enqueue("hub", 50.0)
        controller.on_dequeue("hub", 30.0)
        assert controller.queued_value("hub") == 30.0

    def test_dequeue_never_negative(self):
        controller = CongestionController()
        controller.on_dequeue("hub", 10.0)
        assert controller.queued_value("hub") == 0.0


class TestMarking:
    def test_should_mark_after_threshold(self):
        controller = CongestionController(delay_threshold=0.4)
        queued = _queued_unit(created_at=0.0)
        assert not controller.should_mark(queued, now=0.3)
        assert controller.should_mark(queued, now=0.5)

    def test_mark_overdue_marks_once(self):
        controller = CongestionController(delay_threshold=0.1)
        queued = [_queued_unit(created_at=0.0), _queued_unit(created_at=0.0)]
        first = controller.mark_overdue(queued, now=1.0)
        assert len(first) == 2
        assert all(q.unit.marked for q in queued)
        second = controller.mark_overdue(queued, now=2.0)
        assert second == []

    def test_waiting_time(self):
        queued = _queued_unit(created_at=1.0)
        assert queued.waiting_time(3.0) == pytest.approx(2.0)
        assert queued.waiting_time(0.5) == 0.0

    def test_mark_overdue_agrees_with_should_mark(self):
        """The vectorized prefilter must never drop a unit should_mark accepts.

        Guards the superset invariant between mark_overdue's array pass and
        the authoritative scalar predicate: any future change to should_mark
        that the prefilter does not cover fails here.
        """
        controller = CongestionController(delay_threshold=0.4)
        now = 5.0
        queued = [
            _queued_unit(created_at=t, timeout=100.0)
            for t in (0.0, 4.59, 4.6, 4.61, 4.999, 5.0, 6.5)
        ]
        expected = {id(q.unit) for q in queued if controller.should_mark(q, now)}
        marked = controller.mark_overdue(queued, now)
        assert {id(unit) for unit in marked} == expected
        assert all(q.unit.marked == (id(q.unit) in expected) for q in queued)
