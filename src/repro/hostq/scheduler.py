"""The deterministic discrete-event host scheduler.

One event loop drives everything: client arrivals, device completions,
log-force completions and channel polls are heap events ordered by
``(time, sequence)`` — the monotonic sequence breaks ties, so two runs
with the same seed replay the exact same event order (byte-identical
reports, the acceptance bar for ``repro loadtest``).

After every event the scheduler runs the dispatch loop: it repeatedly
asks the :class:`~repro.hostq.queueing.SubmissionQueue` for a request
whose target die is free *right now* (occupancy re-queried after each
dispatch, since executing a command advances that die's clock) and
executes it on the device, scheduling its completion at ``now +
observed latency``.  When pending requests remain but every relevant
die is busy, a poll event is scheduled at the earliest channel-free
time, so the loop always makes progress without ever busy-waiting.

Commits bypass the device queue entirely — the WAL is a separate
sequential device — and flow through the
:class:`~repro.hostq.groupcommit.GroupCommitGate`.

The scheduler is device-agnostic: it programs strictly against the
:class:`~repro.ftl.device.FlashDevice` protocol's ``occupancy()`` /
``channel_of()`` dispatch hooks plus an injected *executor* (a callable
turning a request into an observed device latency), so NoFTL, BlockSSD
and ShardedDevice all run underneath it unchanged.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass

from .groupcommit import GroupCommitGate
from .queueing import SubmissionQueue
from .request import OpKind, Request

__all__ = ["HostScheduler", "SchedulerStats"]


@dataclass
class SchedulerStats:
    """Event-loop counters of one scheduler run."""

    events: int = 0
    polls: int = 0
    dispatch_rounds: int = 0


class HostScheduler:
    """Event loop + dispatch policy over one FlashDevice.

    It keeps counters (:attr:`stats`, the queue's and the gate's), never
    the requests themselves: a caller that wants finished requests
    collects them in :attr:`on_complete`.
    """

    def __init__(
        self,
        device,
        queue: SubmissionQueue,
        executor: Callable[[Request, float], float],
        gate: GroupCommitGate | None = None,
        on_complete: Callable[[Request, float], None] | None = None,
    ) -> None:
        self.device = device
        self.queue = queue
        self.executor = executor
        self.gate = gate
        #: Called after every request completes (or is rejected); the
        #: load harness hooks closed-loop re-arrivals and sampling here.
        self.on_complete = on_complete
        self.now = 0.0
        self.stats = SchedulerStats()
        self._events: list[tuple[float, int, Callable[[float], None]]] = []
        self._event_seq = 0
        self._next_poll: float | None = None

    # ------------------------------------------------------------------
    # Event machinery
    # ------------------------------------------------------------------

    def schedule(self, time: float, action: Callable[[float], None]) -> None:
        """Enqueue ``action(now)`` to fire at simulated time ``time``."""
        self._event_seq += 1
        heapq.heappush(self._events, (time, self._event_seq, action))

    def run(self) -> float:
        """Drain the event heap; returns the final simulated time."""
        while self._events:
            time, __, action = heapq.heappop(self._events)
            self.now = max(self.now, time)
            self.stats.events += 1
            action(self.now)
            self._dispatch(self.now)
        return self.now

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, request: Request, now: float) -> None:
        """One request enters the host: queue it or hand it to the gate."""
        request.arrival_us = now
        if request.kind is OpKind.COMMIT:
            request.dispatched_us = now
            if self.gate is None:
                # No WAL modelled: commits complete instantly.
                self._complete(request, now, via_queue=False)
                return
            force_done_at = self.gate.submit(request, now)
            if force_done_at is not None:
                self.schedule(force_done_at, self._force_done)
            return
        if self.queue.admit(request) == "rejected":
            self._complete(request, now, via_queue=False)

    def _force_done(self, now: float) -> None:
        """A log force finished: retire its batch, chain the next one."""
        assert self.gate is not None
        done, next_done_at = self.gate.force_done(now)
        for request in done:
            self._complete(request, now, via_queue=False)
        if next_done_at is not None:
            self.schedule(next_done_at, self._force_done)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _channel_hint(self, request: Request) -> int | None:
        return self.device.channel_of(request.lpn, request.kind.value)

    def _dispatch(self, now: float) -> None:
        self.stats.dispatch_rounds += 1
        while True:
            occupancy = self.device.occupancy()
            request = self.queue.pick(now, occupancy, self._channel_hint)
            if request is None:
                break
            request.dispatched_us = now
            latency = self.executor(request, now)
            self.schedule(now + latency, self._completion_action(request))
        if self.queue.has_pending():
            # ``occupancy`` is the snapshot the failed pick just used —
            # no command ran since, so it is still current.
            wake = self.queue.next_channel_event(now, occupancy)
            if wake is not None and (self._next_poll is None or wake < self._next_poll):
                self._next_poll = wake
                self.schedule(wake, self._poll)
        # If pending requests exist with every channel idle, they are
        # blocked on per-LPN conflicts; the conflicting completion event
        # will retrigger dispatch, so no poll is needed.

    def _poll(self, now: float) -> None:
        self.stats.polls += 1
        if self._next_poll is not None and self._next_poll <= now:
            self._next_poll = None
        # Dispatch runs after every event; the poll's only job was to
        # exist at the channel-free time.

    def _completion_action(self, request: Request) -> Callable[[float], None]:
        def action(now: float) -> None:
            self._complete(request, now, via_queue=True)

        return action

    def _complete(self, request: Request, now: float, via_queue: bool) -> None:
        """The one place a request's completion (or rejection) is stamped."""
        request.completed_us = now
        if via_queue:
            self.queue.complete(request)
        if self.on_complete is not None:
            self.on_complete(request, now)
