"""The store's retry policy: immediate retries, counted in telemetry.

Unit coverage for :class:`repro.store.resilience.RetryPolicy`, the
loop behind the runner's store guard: ``OSError`` is retried up to
the attempt budget and then re-raised, anything else propagates at
once, and every attempt lands in ``resilience.<scope>.*`` telemetry.
"""

from __future__ import annotations

import pytest

from repro.store.resilience import RetryPolicy
from repro.telemetry.core import collect


class Flaky:
    """A callable failing ``failures`` times before succeeding."""

    def __init__(self, failures, exc=None):
        self.failures = failures
        self.exc = exc if exc is not None else OSError("transient")
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return "ok"


class TestRetryPolicy:
    def test_success_needs_one_attempt(self):
        call = Flaky(0)
        policy = RetryPolicy("t", max_attempts=3)
        assert policy.run("op", call) == "ok"
        assert call.calls == 1

    def test_transient_failure_is_retried(self):
        call = Flaky(2)
        policy = RetryPolicy("t", max_attempts=3)
        assert policy.run("op", call) == "ok"
        assert call.calls == 3

    def test_budget_exhaustion_reraises_the_last_error(self):
        boom = OSError("persistent")
        policy = RetryPolicy("t", max_attempts=2)
        with pytest.raises(OSError, match="persistent"):
            policy.run("op", Flaky(10, boom))

    def test_non_retryable_exceptions_propagate_immediately(self):
        call = Flaky(1, KeyError("not transport"))
        policy = RetryPolicy("t", max_attempts=3)
        with pytest.raises(KeyError):
            policy.run("op", call)
        assert call.calls == 1

    def test_attempts_and_retries_land_in_telemetry(self):
        with collect() as telemetry:
            policy = RetryPolicy("unit", max_attempts=3)
            policy.run("op", Flaky(2))
        counters = telemetry.snapshot()["counters"]
        assert counters["resilience.unit.attempts"] == 3
        assert counters["resilience.unit.retries"] == 2
        assert "resilience.unit.giveups" not in counters

    def test_giveup_lands_in_telemetry(self):
        with collect() as telemetry:
            policy = RetryPolicy("unit", max_attempts=2)
            with pytest.raises(OSError):
                policy.run("op", Flaky(10))
        assert telemetry.snapshot()["counters"]["resilience.unit.giveups"] == 1

    def test_on_error_sees_every_caught_exception(self):
        seen = []
        policy = RetryPolicy("t", max_attempts=3)
        policy.run("op", Flaky(2), on_error=seen.append)
        assert len(seen) == 2
        assert all(isinstance(exc, OSError) for exc in seen)

    def test_rejects_empty_attempt_budget(self):
        with pytest.raises(ValueError):
            RetryPolicy("t", max_attempts=0)
