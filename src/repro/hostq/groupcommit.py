"""Event-driven WAL group commit for the host scheduler.

Commits do not touch the flash array (log writes go to a dedicated
sequential device, see :mod:`repro.storage.wal`); what they share is the
log *force*.  :class:`GroupCommitGate` models leader-based group commit
the way Shore-MT and InnoDB implement it:

* the first commit to arrive while no force is running becomes the
  leader and starts a force (completing ``force_latency_us`` later);
* commits arriving while a force is in flight join the next batch;
* when the force completes, every commit captured in its batch
  completes together, and — if joiners queued up meanwhile — the next
  force starts immediately with up to ``max_group`` of them.

Under light load every commit pays the full force latency (no batching
to exploit); under heavy load forces pipeline back-to-back and each one
retires up to ``max_group`` commits — the classic throughput-saving
behaviour, reproduced from event timing rather than a fixed amortization
factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .request import Request

__all__ = ["GroupCommitGate", "GroupCommitStats"]


@dataclass
class GroupCommitStats:
    """Counters of one gate's lifetime."""

    commits: int = 0
    forces: int = 0
    max_batch: int = 0

    @property
    def commits_per_force(self) -> float:
        """Mean batch size (1.0 = no batching happened)."""
        return self.commits / self.forces if self.forces else 0.0


class GroupCommitGate:
    """Leader-based commit batching driven by scheduler events."""

    def __init__(
        self, force_latency_us: float = 50.0, max_group: int = 8, log=None
    ) -> None:
        if max_group < 1:
            raise ValueError(f"max_group must be >= 1, got {max_group}")
        #: Bound :class:`~repro.storage.wal.LogManager`, if any.  The
        #: gate then takes its force latency from the log and charges
        #: every force through ``log.note_force(batch)``, so engine-side
        #: WAL counters (forces, commits_grouped) stay authoritative —
        #: one group-commit accounting, two scheduling disciplines.
        self.log = log
        if log is not None:
            force_latency_us = log.force_latency_us
        self.force_latency_us = force_latency_us
        self.max_group = max_group
        self._queued: list[Request] = []
        self._batch: list[Request] | None = None
        self.stats = GroupCommitStats()

    @property
    def force_in_flight(self) -> bool:
        """Whether a log force is currently running."""
        return self._batch is not None

    @property
    def outstanding(self) -> int:
        """Commits inside the gate (queued or in the running force)."""
        return len(self._queued) + (len(self._batch) if self._batch else 0)

    def submit(self, request: Request, now: float) -> float | None:
        """Add one commit; returns the force-completion time to schedule.

        ``None`` means a force is already in flight and the commit
        joined the queue — the caller schedules nothing; the running
        force's completion (:meth:`force_done`) will start the next one.
        """
        self._queued.append(request)
        self.stats.commits += 1
        if self._batch is None:
            return self._start_force(now)
        return None

    def _start_force(self, now: float) -> float:
        take = min(self.max_group, len(self._queued))
        self._batch = self._queued[:take]
        del self._queued[:take]
        self.stats.forces += 1
        self.stats.max_batch = max(self.stats.max_batch, take)
        if self.log is not None:
            self.log.note_force(take)
        return now + self.force_latency_us

    def force_done(self, now: float) -> tuple[list[Request], float | None]:
        """Retire the running force's batch at time ``now``.

        Returns the batch's commit requests (the scheduler stamps their
        completion) and, when joiners are queued, the completion time of
        the immediately-started next force.
        """
        if self._batch is None:
            raise RuntimeError("force_done with no force in flight")
        done = self._batch
        self._batch = None
        next_done = self._start_force(now) if self._queued else None
        return done, next_done
