"""Tests for the summary statistics of sweep results."""

import pytest

from repro.analysis.stats import improvement_percent, mean_improvement, summarize_series


class TestStats:
    def test_improvement_percent(self):
        assert improvement_percent(0.6, 0.4) == pytest.approx(50.0)
        assert improvement_percent(0.4, 0.0) == float("inf")
        assert improvement_percent(0.0, 0.0) == 0.0

    def test_mean_improvement(self):
        ours = [0.8, 0.9]
        baselines = {"a": [0.4, 0.45], "b": [0.8, 0.9]}
        value = mean_improvement(ours, baselines)
        assert value == pytest.approx((100.0 + 100.0 + 0.0 + 0.0) / 4)

    def test_mean_improvement_clips_infinite(self):
        assert mean_improvement([0.5], {"a": [0.0]}) == pytest.approx(100.0)

    def test_mean_improvement_rejects_a_short_baseline(self):
        # A baseline missing a sweep point must not shrink the average silently.
        with pytest.raises(ValueError, match="'b'"):
            mean_improvement([0.8, 0.9], {"a": [0.4, 0.45], "b": [0.8]})

    def test_mean_improvement_rejects_a_long_baseline(self):
        # zip() would drop the extra point; the mismatch must raise instead.
        with pytest.raises(ValueError, match="'a' has 3 point"):
            mean_improvement([0.8, 0.9], {"a": [0.4, 0.45, 0.5]})

    def test_mean_improvement_empty(self):
        assert mean_improvement([], {}) == 0.0

    def test_summarize_series(self):
        stats = summarize_series([1.0, 2.0, 3.0])
        assert stats["mean"] == pytest.approx(2.0)
        assert stats["median"] == pytest.approx(2.0)
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0

    def test_summarize_empty(self):
        assert summarize_series([])["mean"] == 0.0
