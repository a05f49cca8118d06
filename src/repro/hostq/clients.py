"""Arrival processes: closed-loop clients and open-loop Poisson streams.

Two standard load models (the distinction matters — see the open- vs
closed-loop literature the queueing community leans on):

* **closed loop** — N clients, each with at most one request in the
  system; after a completion the client thinks for an exponentially
  distributed time and submits its next operation.  Offered load is
  self-limiting: a saturated device slows the clients down.
* **open loop** — operations arrive as a Poisson process at a fixed
  rate regardless of completions, assigned to client sessions
  round-robin.  Offered load is unconditional: a saturated device grows
  the queue until admission control pushes back, which is where tail
  latency and rejection rates come from.

All randomness flows through per-object ``random.Random`` instances
seeded from the run seed, never the global RNG (the determinism
invariant iplint enforces).
"""

from __future__ import annotations

import random

from ..workloads.sessions import ClientSession, SessionProfile

__all__ = ["ClosedLoopClient", "OpenLoopArrivals", "build_sessions"]


def build_sessions(
    profile: SessionProfile,
    clients: int,
    logical_pages: int,
    seed: int,
) -> list[ClientSession]:
    """One deterministic session per client, independently seeded."""
    return [
        ClientSession(profile, logical_pages, seed=seed, client=index)
        for index in range(clients)
    ]


class ClosedLoopClient:
    """One closed-loop client: submit, wait, think, repeat."""

    def __init__(
        self,
        index: int,
        session: ClientSession,
        think_time_us: float = 0.0,
        seed: int = 7,
    ) -> None:
        self.index = index
        self.session = session
        self.think_time_us = think_time_us
        self._rng = random.Random(seed * 7_368_787 + index + 1)

    def think(self) -> float:
        """Exponential think-time draw (0 when thinking is disabled)."""
        if self.think_time_us <= 0.0:
            return 0.0
        return self._rng.expovariate(1.0 / self.think_time_us)


class OpenLoopArrivals:
    """Poisson arrival chain feeding round-robin client sessions."""

    def __init__(
        self,
        sessions: list[ClientSession],
        rate_rps: float,
        seed: int = 7,
    ) -> None:
        if rate_rps <= 0.0:
            raise ValueError(f"arrival rate must be positive, got {rate_rps}")
        if not sessions:
            raise ValueError("open-loop arrivals need at least one session")
        self.sessions = sessions
        self.rate_rps = rate_rps
        self._rng = random.Random(seed * 2_654_435 + 1)
        self._cursor = 0

    def interarrival_us(self) -> float:
        """Exponential gap to the next arrival, in simulated µs."""
        return self._rng.expovariate(self.rate_rps) * 1e6

    def next_op(self) -> tuple[int, tuple[str, int, int]]:
        """``(client, operation)`` of the next arrival (round-robin)."""
        client = self._cursor
        self._cursor = (self._cursor + 1) % len(self.sessions)
        return client, self.sessions[client].next_op()
