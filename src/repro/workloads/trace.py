"""I/O trace recording and replay.

The paper's IPL-vs-IPA comparison (Section 8.3) replays recorded OLTP
traces through both simulators.  A trace is the buffer-manager-level
event stream of one engine run:

* ``FETCH lpn`` — a buffer miss read the page from storage.
* ``WRITE lpn net gross`` — a dirty page materialization with the
  number of changed tuple-data bytes (net) and changed bytes including
  page metadata (gross).  ``kind`` records what the recording engine
  actually did ("ipa"/"oop"/"skip"), but replay simulators make their
  own decisions from the sizes.

Recorders attach to a :class:`~repro.storage.engine.StorageEngine`
through its observer hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class TraceEvent:
    """One buffer-level I/O event."""

    op: str  # "fetch" | "write"
    lpn: int
    net: int = 0
    gross: int = 0
    kind: str = ""


class TraceRecorder:
    """Collects the fetch/write event stream of an engine run."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def attach(self, engine) -> "TraceRecorder":
        """Hook into an engine's fetch and flush observers."""
        engine.fetch_observer = self.on_fetch
        engine.add_flush_observer(self.on_flush)
        return self

    def on_fetch(self, lpn: int) -> None:
        """Record one buffer-miss read."""
        self.events.append(TraceEvent("fetch", lpn))

    def on_flush(self, lpn: int, kind: str, net: int, gross: int, overflowed: bool) -> None:
        """Record one dirty-page materialization (skips are silent)."""
        if kind == "skip":
            return
        self.events.append(TraceEvent("write", lpn, net, gross, kind))

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def fetches(self) -> int:
        return sum(1 for event in self.events if event.op == "fetch")

    @property
    def writes(self) -> int:
        return sum(1 for event in self.events if event.op == "write")

    def write_sizes(self, gross: bool = False) -> list[int]:
        """Changed-bytes-per-write distribution (net or gross)."""
        return [
            event.gross if gross else event.net
            for event in self.events
            if event.op == "write"
        ]


# ----------------------------------------------------------------------
# Persistence: one event per line, whitespace separated
# ----------------------------------------------------------------------

#: File format version written in the header line.
TRACE_FORMAT = "repro-trace-1"


def save_trace(events: Iterable[TraceEvent], path) -> int:
    """Write a trace file (plain text, one event per line).

    Format: a header line, then ``F <lpn>`` for fetches and
    ``W <lpn> <net> <gross> <kind>`` for writes.  Returns the number of
    events written.  The paper's Section 8.3 methodology — record live
    OLTP traces once, replay them through competing simulators — needs
    traces to outlive the recording process.
    """
    count = 0
    with open(path, "w", encoding="ascii") as handle:
        handle.write(TRACE_FORMAT + "\n")
        for event in events:
            if event.op == "fetch":
                handle.write(f"F {event.lpn}\n")
            else:
                handle.write(
                    f"W {event.lpn} {event.net} {event.gross} {event.kind or '-'}\n"
                )
            count += 1
    return count


def load_trace(path) -> list[TraceEvent]:
    """Read a trace file written by :func:`save_trace`."""
    from ..errors import WorkloadError

    events: list[TraceEvent] = []
    with open(path, "r", encoding="ascii") as handle:
        header = handle.readline().strip()
        if header != TRACE_FORMAT:
            raise WorkloadError(f"not a trace file (header {header!r})")
        for line_number, line in enumerate(handle, start=2):
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "F" and len(parts) == 2:
                events.append(TraceEvent("fetch", int(parts[1])))
            elif parts[0] == "W" and len(parts) == 5:
                kind = "" if parts[4] == "-" else parts[4]
                events.append(
                    TraceEvent("write", int(parts[1]), int(parts[2]),
                               int(parts[3]), kind)
                )
            else:
                raise WorkloadError(f"bad trace line {line_number}: {line!r}")
    return events
