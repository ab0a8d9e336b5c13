"""Tests for the clock abstraction and id helpers in ``repro.utils``."""

from __future__ import annotations

import pytest

from repro.utils.clock import SimulatedClock, SystemClock
from repro.utils.ids import deterministic_id, random_id


class TestClocks:
    def test_simulated_clock_advances_only_on_sleep(self):
        clock = SimulatedClock(start=10.0)
        assert clock.now() == 10.0
        clock.sleep(2.5)
        assert clock.now() == 12.5
        clock.advance(0.5)
        assert clock.now() == 13.0

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().sleep(-1)

    def test_system_clock_monotonic(self):
        clock = SystemClock()
        a = clock.now()
        b = clock.now()
        assert b >= a


class TestIds:
    def test_random_ids_unique(self):
        assert random_id() != random_id()
        assert random_id("p-").startswith("p-")

    def test_deterministic_ids_stable(self):
        assert deterministic_id("a", b"b") == deterministic_id("a", b"b")
        assert deterministic_id("a", "b") != deterministic_id("ab")
