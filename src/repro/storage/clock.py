"""The simulated-clock abstraction shared by both execution modes.

The engine charges foreground time (CPU cost per record operation, read
latency on fetch misses, log forces on commit) to *one* clock object
instead of bumping a float attribute inline.  Two implementations make
the same engine code run in two worlds:

* :class:`ScalarClock` — standalone mode: ``advance()`` moves ``now``
  immediately, reproducing the original synchronous behaviour exactly
  (``clock += latency``).
* :class:`DeferredClock` — scheduler mode: ``now`` belongs to the
  discrete-event :class:`~repro.hostq.scheduler.HostScheduler`, so
  ``advance()`` only *accrues* the charge; the
  :class:`~repro.hostq.txnexec.TxnExecutor` drains it via
  :meth:`take_pending` and converts it into event delays before resuming
  the storage program.  ``sync_to()`` follows the scheduler's time.

Engine code charges time only through this object, and
``StorageEngine.clock`` is a read-only view of it, so a raw
``engine.clock += latency`` raises instead of bypassing the owner:
simulated time has exactly one owner per engine, which is what keeps
standalone runs and scheduled runs byte-identical for the same command
sequence.
"""

from __future__ import annotations

__all__ = ["Clock", "ScalarClock", "DeferredClock"]


class Clock:
    """Interface of a simulated microsecond clock."""

    @property
    def now(self) -> float:
        """Current simulated time (µs)."""
        raise NotImplementedError

    def advance(self, latency_us: float) -> None:
        """Charge foreground latency to the clock."""
        raise NotImplementedError

    def sync_to(self, time_us: float) -> None:
        """Move ``now`` forward to an externally observed time."""
        raise NotImplementedError

    def take_pending(self) -> float:
        """Drain charges not yet reflected in ``now`` (0.0 if none)."""
        return 0.0


class ScalarClock(Clock):
    """Standalone mode: every charge moves ``now`` immediately."""

    def __init__(self, now: float = 0.0) -> None:
        self._now = now

    @property
    def now(self) -> float:
        return self._now

    def advance(self, latency_us: float) -> None:
        """Charge the latency by moving ``now`` right away."""
        self._now += latency_us

    def sync_to(self, time_us: float) -> None:
        """Follow externally observed time forward (never backward)."""
        self._now = max(self._now, time_us)


class DeferredClock(Clock):
    """Scheduler mode: ``now`` follows the event loop, charges accrue.

    A storage program running under the host scheduler must not move
    time itself — the event heap owns it.  CPU costs and force charges
    land in :attr:`pending_us`; the executor drains them with
    :meth:`take_pending` and schedules the program's next step that far
    in the future, which is where the charge becomes real.
    """

    def __init__(self, now: float = 0.0) -> None:
        self._now = now
        self.pending_us = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance(self, latency_us: float) -> None:
        """Accrue the charge; ``now`` moves only via :meth:`sync_to`."""
        self.pending_us += latency_us

    def sync_to(self, time_us: float) -> None:
        """Follow the event loop's time forward (never backward)."""
        self._now = max(self._now, time_us)

    def take_pending(self) -> float:
        """Drain accrued charges for conversion into an event delay."""
        pending = self.pending_us
        self.pending_us = 0.0
        return pending
