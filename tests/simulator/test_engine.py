"""Tests for the discrete-event simulation engine."""

import pytest

from repro.simulator.engine import SimulationEngine
from repro.simulator.events import Event


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

    def test_schedule_at_returns_the_scheduled_event(self):
        engine = SimulationEngine()
        event = engine.schedule_at(2.0, payload="tick")
        assert (event.time, event.payload) == (2.0, "tick")
        assert engine.pending_count() == 1

    def test_event_within_tolerance_of_now_is_accepted(self):
        engine = SimulationEngine()
        engine.run(until=2.0)
        engine.schedule_at(2.0 - 1e-13)
        engine.run()
        assert engine.processed_events == 1
        assert engine.now == 2.0  # the clock never moves backwards

    def test_periodic_train_tolerates_float_drift(self):
        # 0.1 + 0.1 + 0.1 overshoots 0.3 by a rounding error; the tick still fires.
        engine = SimulationEngine()
        assert engine.schedule_periodic(start=0.0, interval=0.1, end=0.3) == 4

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

    def test_handler_less_event_is_consumed(self):
        # Nothing retains an event without a handler once it fires.
        engine = SimulationEngine()
        engine.schedule_at(1.0, payload="request")
        assert engine.run() is None
        assert engine.processed_events == 1
        assert engine.pending_count() == 0


    def test_run_resumes_after_until(self):
        engine = SimulationEngine()
        fired = []
        for time in (1.0, 3.0, 5.0):
            engine.schedule_at(time, handler=lambda _e, ev: fired.append(ev.time))
        engine.run(until=2.0)
        engine.run(until=4.0)
        assert fired == [1.0, 3.0]
        engine.run()
        assert fired == [1.0, 3.0, 5.0]
        assert engine.now == 5.0

    def test_run_until_on_an_empty_queue_advances_the_clock(self):
        engine = SimulationEngine()
        engine.run(until=7.5)
        assert engine.now == 7.5
        assert engine.processed_events == 0

    def test_processed_events_counts_every_fired_event(self):
        engine = SimulationEngine()
        engine.schedule_periodic(start=0.0, interval=1.0, end=4.0)
        engine.schedule_at(2.5, handler=lambda _e, _ev: None)
        engine.run(until=3.0)
        assert (engine.processed_events, engine.pending_count()) == (5, 1)
        engine.run()
        assert (engine.processed_events, engine.pending_count()) == (6, 0)
