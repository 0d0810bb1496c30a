"""A small structured logger for the runner and the CLI.

Two render modes share one call site:

* ``human`` (default) -- ``info`` messages print verbatim to stdout (so
  tables and grep-able progress lines look exactly like plain ``print``),
  ``warning``/``error`` go to stderr with a level prefix, and ``debug``
  only prints under ``--verbose``;
* ``jsonl`` -- every record is one JSON object on stdout
  (``{"level", "logger", "msg", ...fields}``), machine-readable for CI
  artifact collection.

Structured ``fields`` ride along in both modes: JSONL embeds them, human
mode ignores them (callers format the human string themselves).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Optional

__all__ = ["ObsLogger", "configure", "get_logger"]

DEBUG, INFO, WARNING, ERROR = 10, 20, 30, 40

_LEVEL_NAMES = {DEBUG: "debug", INFO: "info", WARNING: "warning", ERROR: "error"}

_state: Dict[str, object] = {"mode": "human", "level": INFO, "stream": None}


def configure(
    mode: Optional[str] = None,
    level: Optional[int] = None,
    verbose: Optional[bool] = None,
    quiet: Optional[bool] = None,
    stream: Optional[object] = None,
) -> None:
    """Set the process-wide log mode/threshold.

    ``verbose``/``quiet`` are conveniences for the CLI flags: verbose lowers
    the threshold to DEBUG, quiet raises it to WARNING (verbose wins when
    both are passed).  ``stream`` overrides the info/debug destination.
    """
    if mode is not None:
        if mode not in ("human", "jsonl"):
            raise ValueError(f"unknown log mode {mode!r}; expected 'human' or 'jsonl'")
        _state["mode"] = mode
    if level is not None:
        _state["level"] = level
    if quiet:
        _state["level"] = WARNING
    if verbose:
        _state["level"] = DEBUG
    _state["stream"] = stream


class ObsLogger:
    """Named logger writing through the module-wide configuration."""

    def __init__(self, name: str) -> None:
        self.name = name

    # ------------------------------------------------------------------ #
    def _emit(self, level: int, msg: str, fields: Dict[str, object]) -> None:
        if level < int(_state["level"]):  # type: ignore[call-overload]
            return
        if _state["mode"] == "jsonl":
            record: Dict[str, object] = {
                "level": _LEVEL_NAMES.get(level, str(level)),
                "logger": self.name,
                "msg": msg,
            }
            record.update(fields)
            stream = _state["stream"] or sys.stdout
            print(json.dumps(record, sort_keys=True, default=str), file=stream)
            return
        if level >= WARNING:
            print(f"{_LEVEL_NAMES.get(level, str(level))}: {msg}", file=sys.stderr)
        else:
            print(msg, file=_state["stream"] or sys.stdout)

    # ------------------------------------------------------------------ #
    def debug(self, msg: str, **fields: object) -> None:
        self._emit(DEBUG, msg, fields)

    def info(self, msg: str, **fields: object) -> None:
        self._emit(INFO, msg, fields)

    def warning(self, msg: str, **fields: object) -> None:
        self._emit(WARNING, msg, fields)

    def error(self, msg: str, **fields: object) -> None:
        self._emit(ERROR, msg, fields)


_loggers: Dict[str, ObsLogger] = {}


def get_logger(name: str) -> ObsLogger:
    """The (cached) logger of the given name."""
    logger = _loggers.get(name)
    if logger is None:
        logger = _loggers[name] = ObsLogger(name)
    return logger
