"""Structured logging: key=value or JSON lines, per-subsystem levels.

Deliberately not the stdlib ``logging`` module: the simulator needs a
logger whose timestamps can follow the *simulated* clock, whose output
is deterministic enough to diff between runs, and whose disabled path
is a single integer comparison.

Levels are configured from the environment or the CLI:

* ``REPRO_LOG_LEVEL=debug`` — the default level for every subsystem;
* ``REPRO_LOG=sim=debug,scan=warning`` — per-subsystem overrides.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Callable, Dict, Optional, TextIO

LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40, "off": 99}
LEVEL_NAMES = {value: name for name, value in LEVELS.items()}


def _parse_level(name: str) -> int:
    try:
        return LEVELS[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown log level {name!r}; choose from {', '.join(LEVELS)}"
        ) from None


class LogManager:
    """Owns the sink, the format, and every subsystem's threshold."""

    def __init__(
        self,
        default_level: str = "warning",
        fmt: str = "kv",
        stream: Optional[TextIO] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if fmt not in ("kv", "json"):
            raise ValueError(f"unknown log format {fmt!r} (use 'kv' or 'json')")
        self.default_level = _parse_level(default_level)
        self.fmt = fmt
        self.stream = stream
        self.clock = clock
        self._levels: Dict[str, int] = {}
        self._loggers: Dict[str, StructuredLogger] = {}

    @classmethod
    def from_env(cls, default_level: Optional[str] = None, **kwargs) -> "LogManager":
        """An unknown level raises a ValueError naming its variable."""
        manager = cls(default_level=default_level or "warning", **kwargs)
        variable = "REPRO_LOG_LEVEL"
        try:
            if not default_level:
                manager.set_level(os.environ.get(variable, "warning"))
            variable = "REPRO_LOG"
            for item in os.environ.get(variable, "").split(","):
                subsystem, _, name = item.partition("=")
                if name:
                    manager.set_level(name, subsystem.strip())
        except ValueError as error:
            raise ValueError(f"{variable}: {error}") from None
        return manager

    def set_level(self, level: str, subsystem: Optional[str] = None) -> None:
        threshold = _parse_level(level)
        if subsystem is None:
            self.default_level = threshold
        else:
            self._levels[subsystem] = threshold

    def level_of(self, subsystem: str) -> int:
        return self._levels.get(subsystem, self.default_level)

    def logger(self, subsystem: str) -> "StructuredLogger":
        existing = self._loggers.get(subsystem)
        if existing is None:
            existing = self._loggers[subsystem] = StructuredLogger(subsystem, self)
        return existing

    # -- emission -------------------------------------------------------------------

    def emit(self, subsystem: str, level: int, event: str, fields: Dict[str, object]) -> None:
        stream = self.stream if self.stream is not None else sys.stderr
        timestamp = self.clock() if self.clock is not None else None
        if self.fmt == "json":
            record = {"level": LEVEL_NAMES.get(level, str(level)),
                      "subsystem": subsystem, "event": event}
            if timestamp is not None:
                record["sim_time"] = round(timestamp, 6)
            record.update(fields)
            stream.write(json.dumps(record, sort_keys=True, default=str) + "\n")
            return
        parts = [LEVEL_NAMES.get(level, str(level)).upper(), subsystem, event]
        if timestamp is not None:
            parts.insert(0, f"t={timestamp:.3f}")
        for key in sorted(fields):
            value = fields[key]
            text = str(value)
            if " " in text or "=" in text:
                text = json.dumps(text)
            parts.append(f"{key}={text}")
        stream.write(" ".join(parts) + "\n")


class StructuredLogger:
    """A named logger; all state lives in the manager."""

    __slots__ = ("subsystem", "manager")

    def __init__(self, subsystem: str, manager: LogManager):
        self.subsystem = subsystem
        self.manager = manager

    def is_enabled(self, level: str) -> bool:
        return _parse_level(level) >= self.manager.level_of(self.subsystem)

    def _log(self, level: int, event: str, fields: Dict[str, object]) -> None:
        if level >= self.manager.level_of(self.subsystem):
            self.manager.emit(self.subsystem, level, event, fields)

    def debug(self, event: str, **fields: object) -> None:
        self._log(10, event, fields)

    def info(self, event: str, **fields: object) -> None:
        self._log(20, event, fields)

    def warning(self, event: str, **fields: object) -> None:
        self._log(30, event, fields)

    def error(self, event: str, **fields: object) -> None:
        self._log(40, event, fields)


class NullLogger:
    """Logger handed out when observability is off: every call no-ops."""

    __slots__ = ()

    def is_enabled(self, level: str) -> bool:
        return False

    def debug(self, event: str, **fields: object) -> None:
        return None

    info = warning = error = debug


class NullLogManager:
    """Manager that only ever hands out :class:`NullLogger`."""

    _NULL = NullLogger()

    def logger(self, subsystem: str) -> NullLogger:
        return self._NULL

    def set_level(self, level: str, subsystem: Optional[str] = None) -> None:
        return None
