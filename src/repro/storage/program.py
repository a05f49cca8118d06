"""Resumable storage programs: engine operations as command generators.

A *storage program* is a Python generator that yields typed
:class:`DeviceCommand` objects (page read, page program, delta append,
log force) instead of calling the device and bumping a clock inline.
The program never performs device I/O itself — each command carries a
``run(now) -> latency_us`` closure, and whoever drives the generator
decides *when* that closure executes and what the program observes as
the command's latency:

* :func:`run_on_clock` — the synchronous driver, over a
  :class:`~repro.storage.clock.Clock`: each command executes at
  ``clock.now`` and its latency is charged via ``clock.advance()``;
  this is the standalone engine path and reproduces the original
  blocking behaviour exactly.  The buffer pool, whose callers pass
  ``now`` explicitly, drives its programs on a fresh
  ``ScalarClock(now)``: each command then runs at ``now`` plus the
  latency already charged.
* :class:`~repro.hostq.txnexec.TxnExecutor` — the scheduled driver:
  commands become :class:`~repro.hostq.request.Request` objects flowing
  through the submission queue and the group-commit gate, and the
  program resumes when its request completes, observing the *end-to-end*
  wait (queueing included).

The same generator code serves both drivers — the scalar path is
preserved, not forked.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Generator

__all__ = [
    "DeviceCommand",
    "OpKind",
    "StorageProgram",
    "log_force_command",
    "run_on_clock",
]


class OpKind(Enum):
    """The four I/O kinds, one name from client session to device.

    Yielded commands and host-queue requests carry the enum;
    ``OpKind(name)`` reads a client-session op string, and ``kind.value``
    is the ``channel_of`` op and the ``kind_counts`` report key.
    """

    #: Load a page image (buffer-pool miss, client read).
    READ = "read"
    #: Full out-of-place page program (eviction write-back, page rewrite).
    WRITE = "write"
    #: In-place delta append into the page's erased tail.
    DELTA = "delta"
    #: WAL force (commit durability; never touches the flash array).
    COMMIT = "commit"


class DeviceCommand:
    """One unit of I/O a storage program suspends on.

    ``run(now_us)`` performs the operation and returns the device
    latency; closures stash any produced data in :attr:`result` for the
    program to read after it resumes.  The scheduled executor inspects
    :attr:`kind` and :attr:`lpn` to route the command (queue channel
    selection, per-LPN ordering, commit gating) without executing it
    out of order.
    """

    __slots__ = ("kind", "lpn", "run", "result")

    def __init__(
        self,
        kind: OpKind,
        lpn: int = -1,
        run: Callable[[float], float] | None = None,
    ) -> None:
        self.kind = kind
        self.lpn = lpn
        self.run = run
        self.result = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeviceCommand({self.kind.value}, lpn={self.lpn})"


#: A storage program: yields commands, is sent each command's observed
#: latency, and returns its result via StopIteration.
StorageProgram = Generator[DeviceCommand, float, object]


def log_force_command(log) -> DeviceCommand:
    """A COMMIT command charging one commit's force to ``log``.

    Synchronous drivers execute it (``log.force()`` keeps the engine's
    amortized group-commit accounting); the scheduled executor instead
    routes it through the event-driven
    :class:`~repro.hostq.groupcommit.GroupCommitGate`, which charges the
    same ``log`` via :meth:`~repro.storage.wal.LogManager.note_force`.
    """
    return DeviceCommand(OpKind.COMMIT, run=lambda now: log.force())


def run_on_clock(program: StorageProgram, clock) -> object:
    """Drive a program synchronously, charging latencies to ``clock``.

    Commands execute at ``clock.now``; each observed latency advances
    the clock before the program resumes, so code after a yield sees
    post-I/O time (the standalone commit path relies on this).
    """
    try:
        command = program.send(None)
        while True:
            latency = command.run(clock.now)
            clock.advance(latency)
            command = program.send(latency)
    except StopIteration as stop:
        return stop.value
