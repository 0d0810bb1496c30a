"""Tests for the discrete-event simulation engine."""

import pytest

from repro.simulator.engine import SimulationEngine
from repro.simulator.events import Event, EventKind


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        for time in (3.0, 1.0, 2.0):
            engine.schedule_at(time, handler=lambda _e, event: fired.append(event.time))
        engine.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_simultaneous_events_fire_in_scheduling_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(1.0, payload="first", handler=lambda _e, ev: fired.append(ev.payload))
        engine.schedule_at(1.0, payload="second", handler=lambda _e, ev: fired.append(ev.payload))
        engine.run()
        assert fired == ["first", "second"]

    def test_scheduling_in_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule_at(1.0, handler=lambda _e, _ev: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule_at(0.5)

    def test_schedule_periodic(self):
        engine = SimulationEngine()
        ticks = []
        count = engine.schedule_periodic(
            start=0.5, interval=0.5, end=2.0, handler=lambda e, _ev: ticks.append(e.now)
        )
        engine.run()
        assert count == 4
        assert ticks == [0.5, 1.0, 1.5, 2.0]

    def test_invalid_periodic_interval(self):
        with pytest.raises(ValueError):
            SimulationEngine().schedule_periodic(0.0, 0.0, 1.0)


class TestRun:
    def test_run_until_limits_time(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(1.0, handler=lambda _e, ev: fired.append(ev.time))
        engine.schedule_at(5.0, handler=lambda _e, ev: fired.append(ev.time))
        engine.run(until=2.0)
        assert fired == [1.0]
        assert engine.now == pytest.approx(2.0)
        assert engine.pending_count() == 1

    def test_max_events(self):
        engine = SimulationEngine()
        for time in range(5):
            engine.schedule_at(float(time + 1), handler=lambda _e, _ev: None)
        engine.run(max_events=3)
        assert engine.processed_events == 3

    def test_unhandled_events_returned(self):
        engine = SimulationEngine()
        engine.schedule_at(1.0, kind=EventKind.PAYMENT_ARRIVAL, payload="request")
        unhandled = engine.run(collect_events=True)
        assert len(unhandled) == 1
        assert unhandled[0].payload == "request"

    def test_handlers_can_schedule_more_events(self):
        engine = SimulationEngine()
        fired = []

        def chain(e: SimulationEngine, event: Event) -> None:
            fired.append(event.time)
            if event.time < 3.0:
                e.schedule_at(event.time + 1.0, handler=chain)

        engine.schedule_at(1.0, handler=chain)
        engine.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_unhandled_events_not_retained_by_default(self):
        # Regression: the runner ignores run()'s return value, so collecting
        # handler-less events by default would retain them for the whole run.
        engine = SimulationEngine()
        engine.schedule_at(1.0, kind=EventKind.PAYMENT_ARRIVAL, payload="request")
        assert engine.run() == []
        assert engine.processed_events == 1

    def test_stop(self):
        engine = SimulationEngine()
        engine.schedule_at(1.0, handler=lambda e, _ev: e.stop())
        engine.schedule_at(2.0, handler=lambda _e, _ev: None)
        engine.run()
        assert engine.pending_count() == 1

