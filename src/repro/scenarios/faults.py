"""Deterministic fault injection for the sweep resilience layer.

The resilient grid runner (:mod:`repro.scenarios.jsonl`) survives shard
exceptions, hung workers, killed workers and corrupted rows.  Proving that
in tests requires *causing* those failures deterministically, which is what
a :class:`FaultPlan` does: a small, serializable description of which shard
attempts fail and how.

A plan is a list of :class:`FaultDirective` entries.  Each directive names

* a **shard** -- the index of the task in the runner's pending list (grid
  order), or ``None`` for seeded probabilistic selection via
  ``probability`` (the selection hash derives from the plan seed and the
  shard index, so the same plan always poisons the same shards),
* an **action** -- ``raise`` (an in-worker exception), ``hang`` (sleep for
  ``seconds``, exercising the shard timeout), ``kill`` (``SIGKILL`` the
  worker process, exercising death detection) or ``corrupt`` (return a
  non-row payload, exercising output validation),
* a **site** -- ``task`` (before the executor runs) or ``result`` (after),
* the **attempts** it fires on (default: only the first, so a retried
  shard succeeds and the recovery path is exercised end to end).

Plans ride along outside the reproducibility contract: the runner's
``fault_plan`` argument and the ``REPRO_FAULT_PLAN`` environment variable
never reach a spec, so a chaos run and a clean run share run keys and a
plain rerun resumes the faulted sweep to byte-identical result rows.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

__all__ = [
    "ENV_VAR",
    "FAULT_ACTIONS",
    "FAULT_SITES",
    "CORRUPT_PAYLOAD",
    "FaultDirective",
    "FaultInjected",
    "FaultPlan",
    "run_with_directive",
]

#: Environment variable holding a JSON fault plan; read at sweep start so
#: CI can chaos-test the stock CLI without new plumbing.
ENV_VAR = "REPRO_FAULT_PLAN"

FAULT_ACTIONS = ("raise", "hang", "kill", "corrupt")
FAULT_SITES = ("task", "result")

#: What a ``corrupt`` directive returns instead of the row: a non-dict the
#: runner's output validation must reject.
CORRUPT_PAYLOAD = "<<fault-injected corrupt row>>"


class FaultInjected(RuntimeError):
    """The exception a ``raise`` directive throws inside the worker."""


@dataclass(frozen=True)
class FaultDirective:
    """One injected fault: which shard attempt fails, how, and where.

    Attributes:
        action: One of :data:`FAULT_ACTIONS`.
        shard: Pending-task index the directive targets, or ``None`` to
            select shards probabilistically (see ``probability``).
        site: ``task`` fires before the executor runs, ``result`` after.
        attempts: Attempt numbers (0-based) the directive fires on.  The
            default ``(0,)`` poisons only the first try, so bounded retry
            recovers; include every retry index to poison persistently.
        seconds: Sleep duration of the ``hang`` action.
        probability: With ``shard=None``, the chance a given shard is
            selected -- resolved through a stable hash of the plan seed and
            the shard index, never a live RNG, so selection is
            deterministic and identical across reruns of the same plan.
    """

    action: str
    shard: Optional[int] = None
    site: str = "task"
    attempts: Tuple[int, ...] = (0,)
    seconds: float = 3600.0
    probability: float = 0.0

    def __post_init__(self) -> None:
        """Validate the directive's enums and selection fields."""
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {FAULT_ACTIONS}"
            )
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of {FAULT_SITES}"
            )
        if self.shard is None and not 0.0 < self.probability <= 1.0:
            raise ValueError(
                "a directive without an explicit shard needs probability in (0, 1]"
            )
        object.__setattr__(self, "attempts", tuple(int(a) for a in self.attempts))

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (inverse of :meth:`from_dict`)."""
        data: Dict[str, object] = {"action": self.action, "site": self.site}
        if self.shard is not None:
            data["shard"] = self.shard
        if self.probability:
            data["probability"] = self.probability
        data["attempts"] = list(self.attempts)
        if self.action == "hang":
            data["seconds"] = self.seconds
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultDirective":
        """Rebuild a directive from :meth:`to_dict` output."""
        known = {"action", "shard", "site", "attempts", "seconds", "probability"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown fault directive field(s) {unknown}")
        payload = dict(data)
        if "attempts" in payload:
            payload["attempts"] = tuple(payload["attempts"])
        return cls(**payload)  # type: ignore[arg-type]


def _selection_hash(seed: int, shard: int, action: str) -> float:
    """A stable uniform-[0,1) draw for probabilistic shard selection."""
    material = repr((int(seed), int(shard), action)).encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class FaultPlan:
    """A seeded set of fault directives, resolvable per (shard, attempt)."""

    def __init__(self, directives: Sequence[FaultDirective] = (), seed: int = 0) -> None:
        self.directives = list(directives)
        self.seed = int(seed)

    def directive_for(self, shard: int, attempt: int) -> Optional[FaultDirective]:
        """The first directive firing on this shard attempt, or ``None``."""
        for directive in self.directives:
            if attempt not in directive.attempts:
                continue
            if directive.shard is not None:
                if directive.shard == shard:
                    return directive
                continue
            if _selection_hash(self.seed, shard, directive.action) < directive.probability:
                return directive
        return None

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (inverse of :meth:`from_dict`)."""
        return {
            "seed": self.seed,
            "directives": [directive.to_dict() for directive in self.directives],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (or hand-written JSON)."""
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be a JSON object, got {type(data).__name__}")
        directives = data.get("directives", [])
        if not isinstance(directives, list):
            raise ValueError("fault plan 'directives' must be a list")
        return cls(
            directives=[FaultDirective.from_dict(entry) for entry in directives],
            seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
        )

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan described by ``REPRO_FAULT_PLAN``, or ``None`` when unset."""
        raw = os.environ.get(ENV_VAR)
        if not raw:
            return None
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ValueError(f"{ENV_VAR}: invalid JSON fault plan ({error})") from None
        return cls.from_dict(data)


# ---------------------------------------------------------------------- #
# execution
# ---------------------------------------------------------------------- #
def _fire(directive: FaultDirective) -> None:
    """Perform the directive's side effect (raise / sleep / die)."""
    if directive.action == "raise":
        raise FaultInjected(
            f"injected failure (shard {directive.shard}, site {directive.site})"
        )
    if directive.action == "hang":
        time.sleep(directive.seconds)
    elif directive.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)


def run_with_directive(
    execute: Callable[[object], object],
    task: object,
    directive: Optional[FaultDirective],
) -> object:
    """Execute one task under an optional fault directive.

    ``task``-site directives fire before the executor (``corrupt`` skips it
    entirely); ``result``-site directives fire after.  Shared by the worker
    entry point and the serial in-process path so both execute faults
    identically.
    """
    if directive is not None and directive.site == "task":
        _fire(directive)
        if directive.action == "corrupt":
            return CORRUPT_PAYLOAD
    row = execute(task)
    if directive is not None and directive.site == "result":
        _fire(directive)
        if directive.action == "corrupt":
            return CORRUPT_PAYLOAD
    return row
