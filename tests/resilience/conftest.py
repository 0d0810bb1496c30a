"""Shared machinery for the resilience chaos suite.

The toy grid runner exercises the generic :class:`JsonlGridRunner`
supervision machinery without paying for a payment-channel simulation per
shard: each task squares its index.  The fault plan decides which shards
misbehave, so every recovery path is reachable in milliseconds.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.scenarios import jsonl
from repro.scenarios.jsonl import RESULT_SCHEMA_VERSION, JsonlGridRunner


def toy_execute(task: Tuple[str, int]):
    key, value = task
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "run_key": key,
        "value": value * value,
    }


class ToyRunner(JsonlGridRunner):
    """A minimal grid runner over instantly-computable tasks."""

    def __init__(self, results_dir: str, keys: List[str], **kwargs) -> None:
        super().__init__(results_dir, **kwargs)
        self._keys = list(keys)

    @property
    def results_name(self) -> str:
        return "toy"

    def expected_keys(self) -> List[str]:
        return list(self._keys)

    def pending_tasks(self) -> List[Tuple[str, int]]:
        done = self.completed_keys()
        return [
            (key, index) for index, key in enumerate(self._keys) if key not in done
        ]

    def executor(self):
        return toy_execute


@pytest.fixture
def no_backoff(monkeypatch):
    """Re-dispatch failed shards at once instead of after the 0.5 s backoff."""
    monkeypatch.setattr(jsonl, "BACKOFF_BASE", 0.0)


@pytest.fixture
def toy_runner_cls():
    """The toy runner class (fixtures cannot export classes directly)."""
    return ToyRunner
