"""Power-failure scheduling: when to pull the plug, and how torn.

A :class:`CrashScheduler` is bound to a device stack via
``device.bind_crashkit`` (mirroring ``bind_telemetry``) and to the
storage engine via ``engine.crashkit``.  Every instrumented operation
*ticks* the scheduler with a site name; the active :class:`CrashPoint`
decides whether the plug is pulled there.  For flash commands the
caller first applies the torn partial state (via
``FlashPage.program_torn`` / ``FlashBlock.erase_torn``) and then calls
:meth:`CrashScheduler.fail`, which raises
:class:`~repro.errors.PowerFailureError`; pure crash *windows* (an FTL
mapping update, one undo step) use the :meth:`CrashScheduler.site`
convenience that ticks and fails in one call with no partial state.

Site names form a small taxonomy (see DESIGN.md Section 10):

* ``flash.read`` / ``flash.program`` / ``flash.program_oob`` /
  ``flash.erase`` — physical commands; program/erase leave torn state.
* ``noftl.map_update`` / ``noftl.gc_migrate`` — the window after the
  new physical copy exists but before the mapping points at it.
* ``blockssd.rmw`` — inside the black-box device's silent
  read-modify-write absorption of an impossible append.
* ``engine.undo`` / ``recovery.redo`` / ``recovery.undo`` — storage
  layer windows; crashing here exercises restartable undo (CLRs).

Sharded devices wrap the scheduler in per-shard
:class:`ScopedCrashScheduler` views that prefix sites with
``shard<i>/`` while sharing one global operation counter, so a single
op-count trigger spans all controllers deterministically.  The
scheduler's counts are plain attributes (``total_ops``, the ``fired``
log); it publishes to no metrics registry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import PowerFailureError, ReproError


@dataclass(frozen=True)
class CrashPoint:
    """One scheduled power failure.

    Parameters
    ----------
    at_op:
        Fire on the N-th *matching* tick (1-based).  Mutually exclusive
        in spirit with ``probability``; when set it wins.
    probability:
        Without ``at_op``, fire each matching tick with this chance
        (drawn from the scheduler's seeded generator).
    sites:
        Site-name prefixes this point listens to; empty means any site.
        ``("flash.program",)`` matches ``flash.program`` and
        ``flash.program_oob`` as well as any ``shard<i>/``-scoped tick
        whose unscoped name starts with the prefix.
    fraction:
        For torn flash operations: the chance that each individual ISPP
        pulse (one 1 -> 0 bit transition, or one page of an erase)
        completed before power was lost.
    """

    at_op: int | None = None
    probability: float = 0.0
    sites: tuple[str, ...] = ()
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ReproError(
                f"torn-pulse fraction must be in [0, 1], got {self.fraction}"
            )

    def matches(self, site: str) -> bool:
        """Whether this point listens to a (possibly shard-scoped) site."""
        if not self.sites:
            return True
        unscoped = site.split("/", 1)[-1]
        return any(
            site.startswith(prefix) or unscoped.startswith(prefix)
            for prefix in self.sites
        )


@dataclass
class FiredCrash:
    """Record of one injected failure (for reports and assertions)."""

    site: str
    op_index: int
    point: CrashPoint = field(repr=False, default=None)  # type: ignore[assignment]


class CrashScheduler:
    """Deterministic plug-puller shared by a whole device/engine stack.

    Points fire in sequence: once the first point fires, the second one
    becomes active (this is how a double-crash — e.g. a power failure
    during recovery's undo pass — is scheduled).  With no active point
    left, ticks only count.  ``disarm()`` stops all firing, which the
    verification phase of the harness uses so that reads performed while
    diffing state cannot crash.
    """

    def __init__(
        self,
        points: list[CrashPoint] | tuple[CrashPoint, ...] = (),
        seed: int = 7,
    ) -> None:
        self.points = list(points)
        self.rng = random.Random(seed)
        self.total_ops = 0
        self.fired: list[FiredCrash] = []
        self.armed = True
        self._index = 0
        self._matched = 0

    @property
    def active_point(self) -> CrashPoint | None:
        """The point currently waiting to fire, if any."""
        if self._index < len(self.points):
            return self.points[self._index]
        return None

    def scoped(self, prefix: str) -> "ScopedCrashScheduler":
        """A per-shard view that prefixes site names with ``prefix/``."""
        return ScopedCrashScheduler(self, prefix)

    def disarm(self) -> None:
        """Stop firing; ticks keep counting (verification-phase mode)."""
        self.armed = False

    def arm(self) -> None:
        """Re-enable firing after :meth:`disarm`."""
        self.armed = True

    def tick(self, site: str) -> CrashPoint | None:
        """Count one operation; return the point if the plug is pulled here.

        The caller is responsible for applying torn partial state and
        then calling :meth:`fail`.  Callers with no partial state use
        :meth:`site` instead.
        """
        self.total_ops += 1
        if not self.armed:
            return None
        point = self.active_point
        if point is None or not point.matches(site):
            return None
        self._matched += 1
        if point.at_op is not None:
            if self._matched != point.at_op:
                return None
        elif not (point.probability > 0.0 and self.rng.random() < point.probability):
            return None
        return point

    def fail(self, site: str, point: CrashPoint | None = None) -> None:
        """Record the failure, advance to the next point, and raise."""
        self.fired.append(FiredCrash(site, self.total_ops, point or self.active_point))
        self._index += 1
        self._matched = 0
        raise PowerFailureError(site, self.total_ops)

    def site(self, name: str) -> None:
        """Tick a crash *window* (no partial state) and fail if scheduled."""
        point = self.tick(name)
        if point is not None:
            self.fail(name, point)

    def torn_decider(self, point: CrashPoint):
        """Per-pulse coin for torn operations, drawn from the seeded rng."""
        rng = self.rng
        fraction = point.fraction
        return lambda: rng.random() < fraction


class ScopedCrashScheduler:
    """A shard-local view of a shared :class:`CrashScheduler`.

    Mirrors the ``_ShardTelemetry`` pattern: the parent owns the global
    operation counter, the seeded generator and the fired-crash log;
    this wrapper only rewrites site names to ``<prefix>/<site>`` so a
    report can tell which controller was interrupted.
    """

    def __init__(self, parent: CrashScheduler, prefix: str) -> None:
        self._parent = parent
        self._prefix = prefix

    def _name(self, site: str) -> str:
        return f"{self._prefix}/{site}"

    def scoped(self, prefix: str) -> "ScopedCrashScheduler":
        """A further-nested view (``<this prefix>/<prefix>/<site>``)."""
        return ScopedCrashScheduler(self._parent, self._name(prefix))

    def tick(self, site: str) -> CrashPoint | None:
        """Tick the shared counter under this view's scoped site name."""
        return self._parent.tick(self._name(site))

    def fail(self, site: str, point: CrashPoint | None = None) -> None:
        """Record and raise the failure under the scoped site name."""
        self._parent.fail(self._name(site), point)

    def site(self, name: str) -> None:
        """Tick a crash window; fail if the active point fires here."""
        point = self.tick(name)
        if point is not None:
            self._parent.fail(self._name(name), point)

    def torn_decider(self, point: CrashPoint):
        """Per-pulse coin shared with the parent's seeded generator."""
        return self._parent.torn_decider(point)
