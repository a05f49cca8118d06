"""Client session adapters: per-client operation streams for load tests.

The OLTP generators in this package drive a :class:`StorageEngine`
synchronously; the host-queueing experiments (:mod:`repro.hostq`) need
something different — N *concurrent* clients, each emitting a stream of
device-level operations shaped like a workload (read/update mix, hot-set
skew, delta sizes, commit cadence) that the scheduler can interleave.

A :class:`ClientSession` is that stream: a deterministic generator of
``(kind, lpn, length)`` tuples, parameterized by a
:class:`SessionProfile` whose presets in :data:`PROFILES` mirror the
repository's benchmark workloads.  Kinds are plain strings (``"read"``,
``"write"``, ``"delta"``, ``"commit"``): exactly the values of
:class:`~repro.storage.program.OpKind`, so a consumer reads one with
``OpKind(kind)`` and no table sits in between.

Determinism: every session draws from its own ``random.Random`` seeded
from ``(seed, client)``, so runs are reproducible regardless of how the
scheduler interleaves clients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .rand import Zipf

__all__ = ["SessionProfile", "ClientSession", "PROFILES"]


@dataclass(frozen=True)
class SessionProfile:
    """Shape of one client's operation stream.

    ``read_fraction`` of non-commit operations are reads; among the
    updates, ``delta_fraction`` are attempted as delta appends of
    ``delta_bytes`` (the rest are full-page rewrites).  Accesses hit a
    hot set of ``hot_fraction`` of the pages with probability
    ``hot_access_fraction`` (Zipf-skewed inside the hot set).  Every
    ``ops_per_txn`` device operations the client emits a ``commit``
    (0 disables commits — a raw I/O stream).
    """

    name: str
    read_fraction: float
    delta_fraction: float
    delta_bytes: int
    hot_fraction: float = 0.2
    hot_access_fraction: float = 0.8
    ops_per_txn: int = 0
    #: Erased tail (bytes) full-page writes leave for future appends;
    #: the executor's delta cursor walks this area.
    delta_area_bytes: int = 512
    #: Fraction of transactions that deliberately roll back instead of
    #: committing (transaction-level load tests only; the device-level
    #: request stream has no transaction boundary to roll back to).
    rollback_fraction: float = 0.0


#: Session presets mirroring the benchmark workloads' update profiles:
#: TPC-B's tiny balance increments, TPC-C's mixed sizes, TATP's
#: read-dominated tiny updates, LinkBench's large gross updates.
PROFILES: dict[str, SessionProfile] = {
    "uniform": SessionProfile(
        "uniform", read_fraction=0.50, delta_fraction=0.50, delta_bytes=16,
        hot_fraction=1.0, hot_access_fraction=1.0, ops_per_txn=0,
    ),
    "tpcb": SessionProfile(
        "tpcb", read_fraction=0.45, delta_fraction=0.80, delta_bytes=8,
        hot_fraction=0.10, hot_access_fraction=0.90, ops_per_txn=4,
    ),
    "tpcc": SessionProfile(
        "tpcc", read_fraction=0.55, delta_fraction=0.70, delta_bytes=24,
        hot_fraction=0.20, hot_access_fraction=0.80, ops_per_txn=10,
        rollback_fraction=0.01,
    ),
    "tatp": SessionProfile(
        "tatp", read_fraction=0.80, delta_fraction=0.90, delta_bytes=8,
        hot_fraction=0.10, hot_access_fraction=0.90, ops_per_txn=2,
    ),
    "linkbench": SessionProfile(
        "linkbench", read_fraction=0.50, delta_fraction=0.60, delta_bytes=96,
        hot_fraction=0.25, hot_access_fraction=0.80, ops_per_txn=6,
    ),
}


class ClientSession:
    """One client's endless, deterministic operation stream."""

    def __init__(
        self,
        profile: SessionProfile,
        logical_pages: int,
        seed: int = 7,
        client: int = 0,
    ) -> None:
        if logical_pages < 1:
            raise ValueError("a session needs at least one logical page")
        self.profile = profile
        self.logical_pages = logical_pages
        self.client = client
        self._rng = random.Random(seed * 1_000_003 + client + 1)
        hot_pages = max(1, int(logical_pages * profile.hot_fraction))
        self._hot_pages = min(hot_pages, logical_pages)
        self._hot_zipf = Zipf(self._hot_pages, theta=0.99)
        self._since_commit = 0
        self.generated = 0

    def _pick_lpn(self) -> int:
        if (
            self._hot_pages < self.logical_pages
            and self._rng.random() >= self.profile.hot_access_fraction
        ):
            # Cold miss: uniform over the pages outside the hot set.
            return self._rng.randrange(self._hot_pages, self.logical_pages)
        return self._hot_zipf.sample(self._rng)

    def next_op(self) -> tuple[str, int, int]:
        """The client's next operation: ``(kind, lpn, length)``.

        ``lpn`` is -1 and ``length`` 0 for commits; delta operations
        carry the profile's delta size, reads/writes a length of 0
        (whole page).
        """
        profile = self.profile
        if profile.ops_per_txn and self._since_commit >= profile.ops_per_txn:
            self._since_commit = 0
            self.generated += 1
            return ("commit", -1, 0)
        self._since_commit += 1
        self.generated += 1
        lpn = self._pick_lpn()
        if self._rng.random() < profile.read_fraction:
            return ("read", lpn, 0)
        if self._rng.random() < profile.delta_fraction:
            return ("delta", lpn, profile.delta_bytes)
        return ("write", lpn, 0)
