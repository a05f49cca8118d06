"""Span tracing from outside the program: wrappers around public functions.

The tracer replaces public methods of the program's classes with timing
wrappers for the duration of one traced pass and restores them after.
Every call becomes a span ``(id, parent, op, layer, name, start_ns,
end_ns)``; spans stay in memory (one typed array per field) and are
written out as JSONL when the pass ends.

A layer's *self time* is the summed duration of its spans minus the part
their direct child spans cover, so the layers partition the root span:
time inside an unwrapped callee stays with the nearest wrapped caller.
"""

from __future__ import annotations

import time
from array import array

#: Layers in stack order, top to bottom; ``harness`` is the root span's
#: own self time (the load generator's loop, never program code).
LAYERS = (
    "workloads", "storage.heap", "storage.buffer", "storage.wal",
    "storage.engine", "core", "ftl", "flash", "hostq",
)
ROOT_LAYER = "harness"


def _txn_arg(args):
    return args[1].txn_id


def _request_arg(args):
    return args[1].seq


def span_targets():
    """``(layer, class, method, op_of, is_program)`` for every wrapped call.

    ``op_of`` extracts the operation id from the call's arguments where
    one is carried (a transaction, a request); other spans inherit the
    id current when they start.  ``is_program`` marks generator
    functions, where every resume is a span.
    """
    from repro.core import IPAManager
    from repro.flash import FlashMemory
    from repro.ftl import NoFTL
    from repro.hostq import HostScheduler, SubmissionQueue
    from repro.hostq.loadtest import DeviceExecutor
    from repro.storage import BTreeIndex, LogManager, StorageEngine, Table
    from repro.workloads import TPCB, TPCC, ClientSession

    def plain(layer, cls, names):
        return [(layer, cls, name, None, False) for name in names]

    targets = []
    targets += plain("workloads", ClientSession, ["next_op"])
    targets += plain("workloads", TPCB, ["transaction"])
    targets += plain("workloads", TPCC, ["transaction"])
    targets += plain("storage.heap", Table,
                     ["lookup", "read", "update", "insert", "delete"])
    targets += plain("storage.heap", BTreeIndex, ["search", "insert"])
    targets += [
        # Row generators: the work happens on iteration, not on the call.
        ("storage.heap", Table, "scan", None, True),
        ("storage.heap", BTreeIndex, "range_scan", None, True),
    ]
    targets += plain("storage.buffer", StorageEngine,
                     ["pin", "unpin", "allocate_page"])
    targets += plain("storage.wal", LogManager,
                     ["append", "force", "note_force", "flush_group",
                      "note_checkpoint"])
    targets += plain("storage.engine", StorageEngine,
                     ["begin", "maintenance", "checkpoint", "flush_all"])
    targets += [
        ("storage.engine", StorageEngine, "commit", _txn_arg, False),
        ("storage.engine", StorageEngine, "abort", _txn_arg, False),
        # The resumable twins the transaction executor drives.  Their
        # pin path belongs to the buffer layer, as ``pin`` does.
        ("storage.buffer", StorageEngine, "pin_program", None, True),
        ("storage.engine", StorageEngine, "read_program", None, True),
        ("storage.engine", StorageEngine, "update_program", _txn_arg, True),
        ("storage.engine", StorageEngine, "commit_program", _txn_arg, True),
    ]
    targets += plain("core", IPAManager, ["load", "plan_flush", "flush"])
    targets += plain("ftl", NoFTL,
                     ["read", "write", "write_delta", "can_write_delta",
                      "read_oob", "write_oob", "channel_of", "occupancy"])
    targets += plain("flash", FlashMemory,
                     ["read", "program", "program_oob", "read_oob", "erase"])
    targets += plain("hostq", HostScheduler, ["run"])
    targets += plain("hostq", SubmissionQueue, ["pick"])
    targets += [
        ("hostq", HostScheduler, "submit", _request_arg, False),
        ("hostq", SubmissionQueue, "admit", _request_arg, False),
        ("hostq", SubmissionQueue, "complete", _request_arg, False),
        ("hostq", DeviceExecutor, "execute", _request_arg, False),
    ]
    return targets


class Tracer:
    """Records spans for one traced pass."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = [(ROOT_LAYER, "bench.run")]
        self.parent = array("l")
        self.op = array("l")
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        #: Current operation id, set by whoever knows it (see op_of).
        self._cur = [-1]
        self._installed: list[tuple[type, str, object]] = []

    # -- installing the wrappers ----------------------------------------

    def install(self) -> None:
        for layer, cls, method, op_of, is_program in span_targets():
            original = cls.__dict__[method]
            self.names.append((layer, f"{cls.__name__}.{method}"))
            make = self._wrap_program if is_program else self._wrap
            setattr(cls, method, make(original, len(self.names) - 1, op_of))
            self._installed.append((cls, method, original))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._installed):
            setattr(cls, method, original)
        self._installed.clear()

    def _open(self, name_id: int) -> int:
        now = time.perf_counter_ns()
        index = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self._cur[0])
        self.name_id.append(name_id)
        self.end.append(0)
        stack.append(index)
        self.start.append(now)
        return index

    def _wrap(self, fn, name_id: int, op_of):
        # Everything the hot path touches is a closure local.  The clock
        # is read first and last, so a span's bookkeeping is charged to
        # the span itself and not to its parent's self time.
        parent, op, names = self.parent, self.op, self.name_id
        start, end, stack, cur = self.start, self.end, self._stack, self._cur
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            now = clock()
            if op_of is not None:
                cur[0] = op_of(args)
            index = len(start)
            parent.append(stack[-1] if stack else -1)
            op.append(cur[0])
            names.append(name_id)
            end.append(0)
            stack.append(index)
            start.append(now)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                end[index] = clock()

        span.__wrapped__ = fn
        return span

    def _wrap_program(self, fn, name_id: int, op_of):
        """A generator function whose every resume is one span."""
        end, stack, cur = self.end, self._stack, self._cur
        clock = time.perf_counter_ns
        open_span = self._open

        def program(*args, **kwargs):
            inner = fn(*args, **kwargs)
            op_id = op_of(args) if op_of is not None else None
            value = None
            try:
                while True:
                    if op_id is not None:
                        cur[0] = op_id
                    index = open_span(name_id)
                    try:
                        item = inner.send(value)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        stack.pop()
                        end[index] = clock()
                    value = yield item
            finally:
                inner.close()

        program.__wrapped__ = fn
        return program

    # -- the measured region ----------------------------------------------

    def set_op(self, op_id: int) -> None:
        self._cur[0] = op_id

    def begin(self) -> None:
        """Open the root span; spans recorded before it are discarded."""
        for column in (self.parent, self.op, self.name_id, self.start, self.end):
            del column[:]
        del self._stack[:]
        self._open(0)

    def finish(self) -> None:
        self.end[0] = time.perf_counter_ns()
        del self._stack[:]

    # -- analysis -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def layer_totals(self) -> tuple[dict[str, dict[str, float]], float]:
        """Per-layer ``self_s`` and ``calls``, and the root span's seconds."""
        count = len(self.start)
        parent, start, end = self.parent, self.start, self.end
        self_ns = [end[i] - start[i] for i in range(count)]
        for i in range(1, count):
            self_ns[parent[i]] -= end[i] - start[i]
        layer_of = [layer for layer, _ in self.names]
        totals = {
            layer: {"self_s": 0.0, "calls": 0} for layer in (*LAYERS, ROOT_LAYER)
        }
        name_id = self.name_id
        for i in range(count):
            entry = totals[layer_of[name_id[i]]]
            entry["self_s"] += self_ns[i] / 1e9
            entry["calls"] += 1
        return totals, (end[0] - start[0]) / 1e9

    def write_jsonl(self, path) -> None:
        # Hand-formatted: layer and method names are plain identifiers,
        # and json.dumps per span would dominate a million-span pass.
        tails = [f',"layer":"{layer}","name":"{name}"' for layer, name in self.names]
        parent, op, name_id = self.parent, self.op, self.name_id
        start, end = self.start, self.end
        with open(path, "w") as out:
            out.writelines(
                f'{{"id":{i},"parent":{parent[i]},"op":{op[i]}{tails[name_id[i]]}'
                f',"start_ns":{start[i]},"end_ns":{end[i]}}}\n'
                for i in range(len(start))
            )
