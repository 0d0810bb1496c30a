"""Summary statistics used by the experiment reports and headline claims."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np


def improvement_percent(ours: float, theirs: float) -> float:
    """Relative improvement of ``ours`` over ``theirs`` in percent.

    Returns +inf when the baseline is zero and ours is positive, and 0.0 when
    both are zero.
    """
    if theirs == 0:
        return float("inf") if ours > 0 else 0.0
    return (ours - theirs) / theirs * 100.0


def mean_improvement(ours: Sequence[float], baselines: Dict[str, Sequence[float]]) -> float:
    """Average percent improvement of a scheme over several baselines.

    Mirrors the paper's headline statements ("X% higher than the other four
    schemes on average"): for every baseline and every sweep point, compute
    the percent improvement, then average over all of them.  Infinite
    improvements (baseline stuck at zero) are clipped to 100%.

    Raises:
        ValueError: A baseline series does not have one value per point of
            ``ours`` (say, a sweep point missing from its rows).
    """
    improvements: List[float] = []
    for name, baseline_series in baselines.items():
        if len(baseline_series) != len(ours):
            raise ValueError(
                f"baseline {name!r} has {len(baseline_series)} point(s), "
                f"ours has {len(ours)}"
            )
        for our_value, their_value in zip(ours, baseline_series):
            value = improvement_percent(our_value, their_value)
            improvements.append(min(value, 100.0) if value == float("inf") else value)
    if not improvements:
        return 0.0
    return float(np.mean(improvements))


def summarize_series(values: Sequence[float]) -> Dict[str, float]:
    """Mean / median / min / max / std of a metric series."""
    if not values:
        return {"mean": 0.0, "median": 0.0, "min": 0.0, "max": 0.0, "std": 0.0}
    arr = np.asarray(values, dtype=float)
    return {
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "std": float(arr.std()),
    }
