"""Buffer pool with LRU replacement and eager / non-eager cleaning.

The pool's flush behaviour is where IPA plugs into the engine: every
write-back of a dirty frame goes through a *flusher* callback (the
:class:`~repro.core.manager.IPAManager`), which decides between an
in-place append (``write_delta``) and a conventional out-of-place page
write.

Two flush triggers model Shore-MT's policies (Section 8.4):

* **Eviction** — a fetch miss with a full pool steals the least
  recently used unpinned frame, flushing it first if dirty.
* **Eager cleaning** — when the dirty fraction crosses a threshold
  (12.5% hard-coded in Shore-MT; 75% in the paper's "non-eager"
  configuration), background cleaners flush the coldest dirty frames
  until the pool is below the threshold again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import BufferError_, BufferPoolExhaustedError
from .clock import ScalarClock
from .page_layout import SlottedPage
from .program import DeviceCommand, OpKind, StorageProgram, run_on_clock


class Frame:
    """One buffer slot: a page plus its residency state.

    No "cannot append" flag lives here: a page gives up on IPA through
    its own ``track_overflowed`` alone.
    """

    __slots__ = ("lpn", "page", "pin_count", "dirty", "slots_used")

    def __init__(self, lpn: int, page: SlottedPage, slots_used: int = 0) -> None:
        self.lpn = lpn
        self.page = page
        self.pin_count = 0
        self.dirty = False
        #: Delta records already programmed on the page's flash home
        #: (the paper's N_E); reset to 0 by every out-of-place write.
        self.slots_used = slots_used


@dataclass
class BufferStats:
    fetches: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    evict_flushes: int = 0
    cleaner_flushes: int = 0
    checkpoint_flushes: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.fetches if self.fetches else 0.0


#: flush callback: (frame, now_us) -> (kind, device_latency_us)
#: kind is "ipa", "oop" or "skip" (clean flush of an unchanged page).
Flusher = Callable[[Frame, float], tuple[str, float]]

#: loader callback: (lpn, now_us) -> (page, slots_used, read_latency_us)
Loader = Callable[[int, float], tuple[SlottedPage, int, float]]

#: advisory flush-plan callback: (frame) -> "ipa" | "oop" | "skip"; lets
#: eviction commands carry the right OpKind without doing device I/O.
FlushPlanner = Callable[[Frame], str]


class BufferPool:
    """Fixed-capacity page cache with LRU replacement."""

    def __init__(
        self,
        capacity: int,
        loader: Loader,
        flusher: Flusher,
        dirty_threshold: float = 0.125,
        telemetry=None,
        flush_planner: FlushPlanner | None = None,
    ) -> None:
        if capacity < 1:
            raise BufferError_("buffer pool needs at least one frame")
        if not 0.0 < dirty_threshold <= 1.0:
            raise BufferError_("dirty_threshold must be in (0, 1]")
        self.capacity = capacity
        self._loader = loader
        self._flusher = flusher
        self.dirty_threshold = dirty_threshold
        #: Telemetry handle (``repro.telemetry.Telemetry``); ``None``
        #: keeps fetch/evict/clean free of any event work.
        self.telemetry = telemetry
        self._flush_planner = flush_planner
        #: lpn -> Frame; dict order is LRU order (front = coldest).
        self._frames: dict[int, Frame] = {}
        self._dirty_count = 0
        self.stats = BufferStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, lpn: int) -> bool:
        return lpn in self._frames

    @property
    def dirty_count(self) -> int:
        return self._dirty_count

    @property
    def dirty_fraction(self) -> float:
        return self._dirty_count / self.capacity

    def frame(self, lpn: int) -> Frame:
        """Direct (non-touching) access to a resident frame."""
        try:
            return self._frames[lpn]
        except KeyError as exc:
            raise BufferError_(f"page {lpn} is not resident") from exc

    def pinned_lpns(self) -> list[int]:
        """LPNs of frames with at least one outstanding pin (LRU order)."""
        return [lpn for lpn, frame in self._frames.items() if frame.pin_count > 0]

    def assert_no_pins(self) -> None:
        """Pin-leak assertion hook: raise if any frame is still pinned.

        Tests and the transaction executor call this at quiesce points —
        every pin taken by a completed operation must have been released.
        """
        pinned = self.pinned_lpns()
        if pinned:
            raise BufferError_(f"pin leak: pages {pinned} still pinned at quiesce")

    # ------------------------------------------------------------------
    # Fetch / pin lifecycle
    # ------------------------------------------------------------------

    def try_pin(self, lpn: int) -> Frame | None:
        """Pin a resident page: the one home of the hit bookkeeping.

        Counts the fetch and the hit, touches the LRU order and takes
        the pin, with no generator allocated.  Returns ``None`` on a
        miss and counts nothing — :meth:`fetch_program`, which starts
        here, then accounts the fetch as a miss.
        """
        frame = self._frames.get(lpn)
        if frame is None:
            return None
        self.stats.fetches += 1
        self.stats.hits += 1
        self._touch(lpn, frame)
        frame.pin_count += 1
        return frame

    def fetch(self, lpn: int, now: float) -> tuple[Frame, float]:
        """Pin a page, loading it on a miss; returns (frame, read latency)."""
        return run_on_clock(self.fetch_program(lpn), ScalarClock(now))

    def fetch_program(self, lpn: int) -> StorageProgram:
        """Resumable fetch: yields the eviction write-back (if any) and
        the miss read as :class:`DeviceCommand`s; returns
        ``(frame, total latency)``.  Hits (:meth:`try_pin`) return
        without yielding; the rest is the miss path."""
        frame = self.try_pin(lpn)
        if frame is not None:
            return frame, 0.0
        self.stats.fetches += 1
        self.stats.misses += 1
        if self.telemetry is not None:
            self.telemetry.on_buffer("miss", lpn)
        latency = yield from self._evict_program()
        command = DeviceCommand(OpKind.READ, lpn)

        def run_read(at: float, command: DeviceCommand = command) -> float:
            page, slots_used, read_latency = self._loader(lpn, at)
            command.result = (page, slots_used)
            return read_latency

        command.run = run_read
        read_latency = yield command
        page, slots_used = command.result
        frame = Frame(lpn, page, slots_used)
        frame.pin_count = 1
        self._frames[lpn] = frame
        return frame, latency + read_latency

    def put_new(self, lpn: int, page: SlottedPage, now: float) -> Frame:
        """Install a freshly formatted page (no device read), pinned and dirty."""
        if lpn in self._frames:
            raise BufferError_(f"page {lpn} already resident")
        self._make_room(now)
        frame = Frame(lpn, page, slots_used=0)
        frame.pin_count = 1
        self._frames[lpn] = frame
        self._mark_dirty(frame)
        return frame

    def unpin(self, lpn: int, dirty: bool = False) -> None:
        """Release one pin; ``dirty`` marks the page as modified."""
        frame = self.frame(lpn)
        if frame.pin_count <= 0:
            raise BufferError_(f"page {lpn} is not pinned")
        frame.pin_count -= 1
        if dirty:
            self._mark_dirty(frame)

    def _touch(self, lpn: int, frame: Frame) -> None:
        """Move a frame to the hot end of the LRU order."""
        del self._frames[lpn]
        self._frames[lpn] = frame

    def _mark_dirty(self, frame: Frame) -> None:
        if not frame.dirty:
            frame.dirty = True
            self._dirty_count += 1

    # ------------------------------------------------------------------
    # Eviction and cleaning
    # ------------------------------------------------------------------

    def _make_room(self, now: float) -> float:
        """Evict the LRU unpinned frame if the pool is full."""
        return run_on_clock(self._evict_program(), ScalarClock(now))

    def _evict_program(self) -> StorageProgram:
        """Resumable eviction: pick the LRU unpinned victim, remove it,
        then yield its write-back (if dirty); returns the flush latency.

        The victim leaves ``_frames`` (and the dirty accounting) *before*
        the write-back command is yielded — invisible synchronously,
        since the command executes at the yield point, but essential
        under a scheduler: a re-fetch of the victim's LPN while its
        write-back is still queued must miss, not resurrect stale state.
        """
        if len(self._frames) < self.capacity:
            return 0.0
        for lpn, frame in self._frames.items():
            if frame.pin_count == 0:
                latency = 0.0
                tele = self.telemetry
                command = None
                if frame.dirty:
                    frame.dirty = False
                    self._dirty_count -= 1
                    command = self._flush_command(frame)
                del self._frames[lpn]
                if command is not None:
                    latency = yield command
                    self.stats.evict_flushes += 1
                    if tele is not None:
                        tele.on_buffer("evict_flush", lpn)
                self.stats.evictions += 1
                if tele is not None:
                    tele.on_buffer("evict", lpn)
                return latency
        raise BufferPoolExhaustedError(self.capacity, len(self._frames))

    def _flush_command(self, frame: Frame) -> DeviceCommand:
        """Build the write-back command for a dirty frame.

        The command kind reflects what the flusher is *expected* to do
        (delta append vs. out-of-place program) so schedulers can route
        it; the flusher itself makes the authoritative call at run time.
        """
        kind = OpKind.WRITE
        if self._flush_planner is not None and self._flush_planner(frame) == "ipa":
            kind = OpKind.DELTA
        return DeviceCommand(
            kind, frame.lpn, run=lambda at: self._flusher(frame, at)[1]
        )

    def _flush_frame(self, frame: Frame, now: float) -> tuple[str, float]:
        kind, latency = self._flusher(frame, now)
        if frame.dirty:
            frame.dirty = False
            self._dirty_count -= 1
        return kind, latency

    def clean(self, now: float) -> int:
        """Run the background cleaner if the dirty threshold is crossed.

        Flushes the coldest dirty unpinned frames (they stay resident,
        now clean) until the pool is back under the threshold.  Returns
        the number of pages flushed.  Cleaner writes are asynchronous:
        they occupy the device but do not stall the caller.
        """
        if self.dirty_fraction <= self.dirty_threshold:
            return 0
        target = max(0, int(self.capacity * self.dirty_threshold) - 1)
        flushed = 0
        for frame in list(self._frames.values()):
            if self._dirty_count <= target:
                break
            if frame.dirty and frame.pin_count == 0:
                self._flush_frame(frame, now)
                self.stats.cleaner_flushes += 1
                if self.telemetry is not None:
                    self.telemetry.on_buffer("cleaner_flush", frame.lpn)
                flushed += 1
        return flushed

    def flush_all(self, now: float) -> int:
        """Checkpoint: write back every dirty frame (they stay resident)."""
        flushed = 0
        for frame in list(self._frames.values()):
            if frame.dirty:
                self._flush_frame(frame, now)
                self.stats.checkpoint_flushes += 1
                if self.telemetry is not None:
                    self.telemetry.on_buffer("checkpoint_flush", frame.lpn)
                flushed += 1
        return flushed

    def drop_all(self) -> None:
        """Discard the entire pool without flushing (crash simulation)."""
        self._frames.clear()
        self._dirty_count = 0

    def resize(self, capacity: int, now: float = 0.0) -> None:
        """Change the pool size, evicting LRU frames if shrinking
        (:class:`BufferPoolExhaustedError` once only pinned frames remain).

        Buffer-fraction experiments size the pool relative to the
        *loaded* database (the paper's "buffer = X% of the initial
        DB-size"), which is only known after the load phase — so the
        driver loads with a roomy pool and resizes before measuring.
        """
        if capacity < 1:
            raise BufferError_("buffer pool needs at least one frame")
        self.capacity = capacity
        while len(self._frames) > capacity:
            self._make_room(now)
