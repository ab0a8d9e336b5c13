"""Clock abstraction so protocol components are testable without sleeping.

Production-style code paths take a :class:`Clock`; tests and benchmarks
inject a :class:`SimulatedClock` that advances only when told to, so HTLC
timeouts, rate limits and lock lifetimes are reached without sleeping.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod


class Clock(ABC):
    """Monotonic clock interface used throughout the library."""

    @abstractmethod
    def now(self) -> float:
        """Return the current time in (fractional) seconds."""

    @abstractmethod
    def sleep(self, seconds: float) -> None:
        """Advance time by ``seconds``."""


class SystemClock(Clock):
    """Wall-clock backed implementation."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class SimulatedClock(Clock):
    """Virtual clock that advances only when told to.

    ``sleep`` advances virtual time instantly, so a simulation of a
    multi-second protocol run completes in microseconds while still
    producing meaningful latency measurements.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot sleep a negative duration: {seconds}")
        self._now += seconds

    def advance(self, seconds: float) -> None:
        """Alias for :meth:`sleep`, reads better at call sites in tests."""
        self.sleep(seconds)
