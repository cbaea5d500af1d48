"""The store's retry policy: a bounded, telemetry-counted retry loop.

:class:`RetryPolicy` is the one place an ``OSError`` from the store is
retried; the runner's store guard delegates to it, and reprolint
REP404 bans hand-rolled ``for _ in range(n)`` retry loops everywhere
else under :mod:`repro.store`.  Retries are immediate (no backoff):
the guard's ladder is "try twice, then count the error", and every
attempt lands in telemetry as ``resilience.<scope>.<metric>``.
"""

from __future__ import annotations

from repro.telemetry.core import current as _telemetry

__all__ = ["RetryPolicy"]


class RetryPolicy:
    """Retry ``OSError`` up to ``max_attempts`` times, then re-raise.

    Telemetry (``resilience.<scope>.*``): ``attempts``, ``retries``,
    ``giveups``.
    """

    def __init__(self, scope="store", *, max_attempts=2):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.scope = scope
        self.max_attempts = int(max_attempts)

    def run(self, op, call, on_error=None):
        """Drive ``call`` under this policy; re-raise the final failure.

        ``op`` is a human-readable operation label.  ``on_error`` is
        called with each caught exception before the retry decision,
        so callers like the store guard can keep their own error
        ledgers.
        """
        telemetry = _telemetry()
        last = None
        for attempt in range(self.max_attempts):
            telemetry.count("resilience.%s.attempts" % self.scope)
            try:
                return call()
            except OSError as exc:
                last = exc
                if on_error is not None:
                    on_error(exc)
            if attempt + 1 < self.max_attempts:
                telemetry.count("resilience.%s.retries" % self.scope)
        telemetry.count("resilience.%s.giveups" % self.scope)
        raise last
