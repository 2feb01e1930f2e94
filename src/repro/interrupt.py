"""SIGINT/SIGTERM as a typed exception, for every long-running command:
the CLI exits ``128 + signum`` on it after writing its telemetry
outputs, and the fleet runner journals its in-flight shards first."""

from __future__ import annotations

import signal
from contextlib import contextmanager


class RunInterrupted(KeyboardInterrupt):
    """A run stopped by SIGINT/SIGTERM (or a simulated interrupt).

    Subclasses :class:`KeyboardInterrupt` so code that special-cases
    user interrupts keeps working; carries the signal number so the
    CLI can honour the ``128 + signum`` exit-code convention.
    """

    def __init__(self, signum: int = signal.SIGINT):
        self.signum = int(signum)
        super().__init__(f"interrupted by signal {self.signum}")

    @property
    def exit_code(self) -> int:
        return 128 + self.signum


@contextmanager
def interrupt_guard():
    """Convert SIGINT/SIGTERM into :class:`RunInterrupted` while active.

    Installs handlers that raise in the main thread (so a blocking
    ``wait()`` or worker loop unwinds through the caller's cleanup) and
    restores the previous handlers on exit.  A no-op outside the main
    thread — ``signal.signal`` raises ``ValueError`` there — and callers
    there still see plain :class:`KeyboardInterrupt` from Ctrl-C.
    """
    def _raise(signum, frame):  # noqa: ARG001 - signal handler signature
        raise RunInterrupted(signum)

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _raise)
        except (ValueError, OSError):  # off the main thread
            pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
