"""Tests for the per-path congestion windows (equations 27-28)."""

import pytest

from repro.routing.congestion import MIN_WINDOW, CongestionController, PathWindow


PATH_A = ("s", "x", "t")
PATH_B = ("s", "y", "t")


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
