"""Tests for the epoch clock and synchronization accounting."""

import pytest

from repro.core.epochs import EpochClock


class TestEpochClock:
    def test_epoch_of(self):
        clock = EpochClock(duration=1.0)
        assert clock.epoch_of(0.0) == 0
        assert clock.epoch_of(0.99) == 0
        assert clock.epoch_of(1.0) == 1
        assert clock.epoch_of(5.5) == 5

    def test_crossed_boundary_and_advance(self):
        clock = EpochClock(duration=2.0)
        assert not clock.crossed_boundary(1.5)
        assert clock.crossed_boundary(2.5)
        crossed = clock.advance(4.5)
        assert crossed == 2
        assert clock.current_epoch == 2
        assert clock.advance(1.0) == 0  # never goes backwards

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            EpochClock(duration=0.0)

    def test_record_sync_accounting(self):
        clock = EpochClock(duration=1.0)
        clock.advance(1.0)
        record = clock.record_sync({("h1", "h2"): 3, ("h2", "h1"): 3}, hop_delay=0.01)
        assert record.epoch == 1
        assert record.messages == 2
        assert record.total_hops == 6
        assert record.max_delay == pytest.approx(0.03)
        assert clock.total_sync_messages() == 2
        assert clock.total_sync_hops() == 6

    def test_record_sync_empty(self):
        clock = EpochClock(duration=1.0)
        record = clock.record_sync({}, hop_delay=0.01)
        assert record.messages == 0
        assert record.max_delay == 0.0

    def test_sync_records_accumulate(self):
        clock = EpochClock(duration=1.0)
        clock.record_sync({("a", "b"): 1}, hop_delay=0.01)
        clock.record_sync({("a", "b"): 2}, hop_delay=0.01)
        assert len(clock.sync_records) == 2
        assert clock.total_sync_hops() == 3

    def test_epoch_of_a_fractional_duration(self):
        clock = EpochClock(duration=0.25)
        assert [clock.epoch_of(t) for t in (0.0, 0.24, 0.25, 0.6, 1.0)] == [0, 0, 1, 2, 4]

    def test_negative_duration_invalid(self):
        with pytest.raises(ValueError):
            EpochClock(duration=-1.0)

    def test_no_boundary_crossed_after_advancing(self):
        clock = EpochClock(duration=1.0)
        clock.advance(3.2)
        assert not clock.crossed_boundary(3.9)
        assert clock.crossed_boundary(4.0)

    def test_record_sync_stamps_the_current_epoch(self):
        clock = EpochClock(duration=1.0)
        clock.advance(2.5)
        first = clock.record_sync({("a", "b"): 1}, hop_delay=0.01)
        clock.advance(5.0)
        second = clock.record_sync({("a", "b"): 1}, hop_delay=0.01)
        assert (first.epoch, second.epoch) == (2, 5)

    def test_sync_records_returns_a_copy(self):
        clock = EpochClock(duration=1.0)
        clock.record_sync({("a", "b"): 1}, hop_delay=0.01)
        clock.sync_records.clear()
        assert len(clock.sync_records) == 1
        assert clock.total_sync_messages() == 1

    def test_max_delay_is_the_farthest_pair(self):
        clock = EpochClock(duration=1.0)
        record = clock.record_sync({("a", "b"): 2, ("b", "c"): 5, ("a", "c"): 1}, hop_delay=0.1)
        assert record.hub_pairs == record.messages == 3
        assert record.max_delay == pytest.approx(0.5)
