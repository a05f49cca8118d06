"""The NCQ-style submission queue with admission control.

The queue bounds the number of requests the host keeps in flight —
``queue_depth`` is the NCQ depth: pending (submitted, not yet
dispatched) plus outstanding (dispatched, not yet completed) requests
together never exceed it.  Arrivals beyond the bound hit the admission
policy:

* ``"block"`` — backpressure: the request parks in a wait list with its
  *original* arrival time, so its eventual end-to-end latency includes
  the time it spent blocked (closed-loop clients simply stall);
* ``"reject"`` — the request is refused outright and counted; open-loop
  load beyond the device's capacity surfaces as a rejection rate
  instead of an unbounded queue.

Dispatch is occupancy-aware: :meth:`SubmissionQueue.pick` scans the
pending requests in FIFO order and returns the first one whose target
channel (die) is free *now*, skipping requests whose channel is busy —
head-of-line bypass, which is what lets independent dies overlap.  Two
guards keep it correct:

* per-LPN ordering — a request whose logical page already has an
  in-flight request never dispatches (no reordering of same-page I/O);
* unknown channels — a request the device cannot place (``channel_of``
  returned ``None``) dispatches whenever any channel is free.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .request import Request

__all__ = ["ADMISSION_POLICIES", "QueueStats", "SubmissionQueue"]

#: Valid admission policies.
ADMISSION_POLICIES = ("block", "reject")


@dataclass
class QueueStats:
    """Counters of one submission queue's lifetime."""

    rejected: int = 0
    max_depth_used: int = 0
    #: Dispatches that bypassed an older pending request stuck behind a
    #: busy die (the NCQ win).
    holb_bypasses: int = 0


class SubmissionQueue:
    """Bounded host-side queue feeding the device scheduler."""

    def __init__(self, depth: int, policy: str = "block") -> None:
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth}")
        if policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {policy!r}; choose from {ADMISSION_POLICIES}"
            )
        self.depth = depth
        self.policy = policy
        self._pending: deque[Request] = deque()
        self._waiting: deque[Request] = deque()
        self._inflight_lpns: set[int] = set()
        self.in_flight = 0
        self.stats = QueueStats()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    @property
    def depth_used(self) -> int:
        """Requests currently counted against the queue depth."""
        return len(self._pending) + self.in_flight

    def has_pending(self) -> bool:
        """Whether any admitted request still awaits dispatch."""
        return bool(self._pending)

    def admit(self, request: Request) -> str:
        """Submit one request; returns ``"admitted"|"blocked"|"rejected"``.

        Blocked requests keep their arrival timestamp and enter the
        queue automatically as completions free depth (see
        :meth:`complete`).
        """
        if self.depth_used < self.depth:
            self._pending.append(request)
            self.stats.max_depth_used = max(self.stats.max_depth_used, self.depth_used)
            return "admitted"
        if self.policy == "reject":
            request.rejected = True
            self.stats.rejected += 1
            return "rejected"
        self._waiting.append(request)
        return "blocked"

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def pick(self, now: float, occupancy, channel_hint) -> Request | None:
        """The first dispatchable pending request, or ``None``.

        ``occupancy`` is the device's per-channel busy-until tuple;
        ``channel_hint(request)`` maps a request to its target channel
        index (or ``None`` for unpredictable).  FIFO order with
        head-of-line bypass: a request behind a busy die does not stall
        the requests behind it that target free dies.
        """
        any_free: bool | None = None  # computed lazily: most hints are concrete
        for index, request in enumerate(self._pending):
            if request.lpn >= 0 and request.lpn in self._inflight_lpns:
                continue
            channel = channel_hint(request)
            if channel is None:
                if any_free is None:
                    any_free = any(busy <= now for busy in occupancy)
                if not any_free:
                    continue
            elif occupancy[channel] > now:
                continue
            del self._pending[index]
            if index > 0:
                self.stats.holb_bypasses += 1
            if request.lpn >= 0:
                self._inflight_lpns.add(request.lpn)
            self.in_flight += 1
            return request
        return None

    def next_channel_event(self, now: float, occupancy) -> float | None:
        """Earliest future time a busy channel frees up (poll target)."""
        future = [busy for busy in occupancy if busy > now]
        return min(future) if future else None

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def complete(self, request: Request) -> None:
        """Account one completed request; drains the blocked wait list
        into the pending queue."""
        self.in_flight -= 1
        if request.lpn >= 0:
            self._inflight_lpns.discard(request.lpn)
        while self._waiting and self.depth_used < self.depth:
            self._pending.append(self._waiting.popleft())
        self.stats.max_depth_used = max(self.stats.max_depth_used, self.depth_used)
