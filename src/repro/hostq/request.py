"""Request objects flowing through the host queueing layer.

A :class:`Request` is one client operation with its full timing history:
when it arrived at the host (entered the submission queue), when the
scheduler dispatched it to the device, and when it completed.  The
paper's Figures 7-10 measure *end-to-end* latency under concurrent load;
that is :attr:`Request.latency_us` — completion minus arrival — which
includes queueing and admission-control delay, not just device time.

A request's kind is the stack-wide :class:`~repro.storage.program.OpKind`
(re-exported here): the same enum a storage program's commands carry,
so the executor forwards ``command.kind`` untranslated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..storage.program import OpKind

__all__ = ["OpKind", "Request"]


@dataclass(slots=True)
class Request:
    """One client operation and its lifecycle timestamps (simulated µs).

    Slotted: a request carries exactly the fields declared here, so an
    executor attaches its payload through ``command`` / ``ctx``, never
    through ad-hoc attributes.
    """

    seq: int
    client: int
    kind: OpKind
    lpn: int = -1
    length: int = 0
    arrival_us: float = 0.0
    dispatched_us: float | None = None
    completed_us: float | None = None
    #: Set when admission control turned the request away (reject policy).
    rejected: bool = False
    #: The storage-program command a transaction executor runs for this
    #: request (``None`` for raw device-level requests).
    command: Any = None
    #: The executor's context of the transaction that issued it.
    ctx: Any = None

    @property
    def latency_us(self) -> float:
        """End-to-end latency: completion minus arrival."""
        if self.completed_us is None:
            raise ValueError(f"request {self.seq} has not completed")
        return self.completed_us - self.arrival_us

    @property
    def queue_wait_us(self) -> float:
        """Time spent waiting in the host queue before dispatch."""
        if self.dispatched_us is None:
            raise ValueError(f"request {self.seq} was never dispatched")
        return self.dispatched_us - self.arrival_us
