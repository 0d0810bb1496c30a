"""``examples/deadlock_demo.py`` prints the figure-1 contrast it describes.

The demo steepens the imbalance price (``eta`` 0.5) on its own router
subclass.  At the router's ``eta`` both halves print the unpriced numbers, so
these pins fail if the override is lost.
"""

import runpy
from pathlib import Path

import pytest

DEMO = Path(__file__).resolve().parents[2] / "examples" / "deadlock_demo.py"


@pytest.fixture(scope="module")
def demo():
    return runpy.run_path(str(DEMO))


def test_without_imbalance_pricing_the_relay_drains(demo):
    assert demo["run"](False) == {
        "completed payments per third": {
            "early (rounds 0-19)": 30, "middle (rounds 20-39)": 0, "late (rounds 40-59)": 0,
        },
        "total value delivered": 50.0,
        "relay funds C->B left": 0.0,
    }


def test_with_imbalance_pricing_the_relay_keeps_funds(demo):
    assert demo["run"](True) == {
        "completed payments per third": {
            "early (rounds 0-19)": 21, "middle (rounds 20-39)": 0, "late (rounds 40-59)": 0,
        },
        "total value delivered": 35.0,
        "relay funds C->B left": 3.0,
    }

