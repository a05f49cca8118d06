"""The count gate: the simulation's counts must not move.

Each replay builds its workload from seeded :class:`random.Random`
instances and fixed sizes, drives one hot path of the stack, and
returns *simulated-count invariants* — program counts, GC erases,
event-loop totals, CRCs of produced bytes, deterministic makespans.
They are identical on every machine and Python version, so they are
pinned here as literals: a hot-path change is safe exactly when every
count still matches.  A deliberate behaviour change updates ``PINNED``
in the same commit, with the reason in its message.

Every replay runs twice from scratch; the second pass must equal the
first, so a replay that lets anything host-dependent into its counts
fails as nondeterministic.  Nothing here reads the clock — wall-clock
questions go to ``bench/`` at the repo root.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.core import NxMScheme, apply_pairs, decode_area, encode_record
from repro.flash.ecc import CODE_SIZE, compute_code
from repro.flash.page import FlashPage
from repro.hostq import (
    HostScheduler,
    LoadTestConfig,
    OpKind,
    Request,
    SubmissionQueue,
    TxnLoadTestConfig,
    run_loadtest,
    run_txn_loadtest,
)
from repro.session import SessionConfig, open_device
from repro.storage.buffer import BufferPool
from repro.storage.page_layout import SlottedPage
from repro.storage.wal import LogKind, LogManager

_PAGE_SIZE = 4096
_OOB_SIZE = 128


# FlashPage programming: image installs, tail appends, AND-merges.
def ispp_program() -> dict:
    rng = random.Random(11)
    tail_start = _PAGE_SIZE - 512
    body = bytes(rng.randrange(0x100) for _ in range(tail_start))
    base = body + b"\xff" * 512  # erased delta tail
    appends = [
        bytes(rng.randrange(0x100) for _ in range(24)) for _ in range(16)
    ]
    # A legal AND-merge image: every byte only clears bits of the final
    # state (new = current & mask).
    mask = bytes(rng.randrange(0x100) for _ in range(_PAGE_SIZE))
    page = FlashPage(_PAGE_SIZE, _OOB_SIZE)
    for __ in range(200):
        page.erase()
        page.program(base)
        offset = tail_start
        for record in appends:
            page.program(record, offset)
            offset += len(record)
        current = page.read()
        page.program(bytes(a & b for a, b in zip(current, mask)))
    return {
        "programs": page.program_count,
        "image_crc": zlib.crc32(page.read()),
    }


# Delta-record encode/decode + segment ECC over an [N x M] area.
def delta_codec() -> dict:
    scheme = NxMScheme(4, 8)
    rng = random.Random(23)
    change_sets = [
        [
            (rng.randrange(_PAGE_SIZE - scheme.area_size), rng.randrange(0x100))
            for _ in range(1 + rng.randrange(scheme.m))
        ]
        for _ in range(600)
    ]
    area_start = scheme.area_offset(_PAGE_SIZE)
    image = bytearray(b"\x00" * (_PAGE_SIZE - scheme.area_size)
                      + b"\xff" * scheme.area_size)
    code_crc = 0
    slot = 0
    for pairs in change_sets:
        if slot == scheme.n:
            image[area_start:] = b"\xff" * scheme.area_size
            slot = 0
        record = encode_record(scheme, pairs, [])
        start = area_start + slot * scheme.record_size
        image[start : start + len(record)] = record
        slot += 1
        code_crc = zlib.crc32(compute_code(record), code_crc)
        decoded, __ = decode_area(scheme, bytes(image), _PAGE_SIZE)
        apply_pairs(image, decoded)
    return {
        "records": len(change_sets),
        "image_crc": zlib.crc32(bytes(image)),
        "code_crc": code_crc,
        "code_size": CODE_SIZE,
    }


# Buffer-pool fetch/evict/clean cycling with a synthetic loader.
def buffer_pool() -> dict:
    def loader(lpn: int, now: float):
        return SlottedPage.format(lpn, _PAGE_SIZE, 0), 0, 25.0

    def flusher(frame, now: float):
        return "oop", 200.0

    pool = BufferPool(64, loader, flusher)
    rng = random.Random(37)
    # 80/20 hot/cold mix over 512 logical pages.
    accesses = [
        rng.randrange(64) if rng.random() < 0.8 else rng.randrange(512)
        for _ in range(4000)
    ]
    for index, lpn in enumerate(accesses):
        pool.fetch(lpn, 0.0)
        pool.unpin(lpn, dirty=index % 3 == 0)
        if index % 64 == 63:
            pool.clean(0.0)
    stats = pool.stats
    return {
        "fetches": stats.fetches,
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "evict_flushes": stats.evict_flushes,
        "cleaner_flushes": stats.cleaner_flushes,
    }


# WAL appends with group-commit forces and log-space checkpoints.
def wal_group_commit() -> dict:
    log = LogManager(capacity_bytes=2_000_000, group_commit=8)
    rng = random.Random(41)
    updates = [
        (rng.randrange(256), rng.randrange(4096), bytes(8), bytes(8))
        for _ in range(5000)
    ]
    checkpoints = 0
    for index, (txn, offset, old, new) in enumerate(updates):
        log.append(txn, LogKind.UPDATE, lpn=txn, payload=((offset, old, new),))
        if index % 4 == 3:
            log.append(txn, LogKind.COMMIT)
            log.force()
        if log.space_consumed_fraction() > 0.5:
            log.note_checkpoint()
            checkpoints += 1
    log.flush_group()
    return {
        "appended": log.appended,
        "forces": log.forces,
        "commits_grouped": log.commits_grouped,
        "bytes_written": log.bytes_written,
        "last_lsn": log.last_lsn,
        "checkpoints": checkpoints,
    }


# NoFTL page writes driving mapping updates and greedy GC.
def noftl_write_gc() -> dict:
    device = open_device(SessionConfig(backend="noftl", logical_pages=256))
    rng = random.Random(53)
    writes = [
        (rng.randrange(64) if rng.random() < 0.8 else rng.randrange(256),
         rng.randrange(0x100))
        for _ in range(3000)
    ]
    page_size = device.page_size
    for index, (lpn, fill) in enumerate(writes):
        device.write(lpn, bytes([fill]) * page_size, 0.0)
        if index % 7 == 0:
            device.read(lpn, 0.0)
    snapshot = device.snapshot()
    return {
        key: snapshot[key]
        for key in ("host_reads", "host_page_writes", "gc_erases",
                    "gc_page_migrations")
    }


class _StubDevice:
    """The minimal occupancy/channel protocol the scheduler programs to."""

    def __init__(self, channels: int) -> None:
        self.busy = [0.0] * channels

    def occupancy(self) -> tuple[float, ...]:
        return tuple(self.busy)

    def channel_of(self, lpn: int, op: str) -> int | None:
        if lpn % 13 == 0:
            return None  # exercise the any-channel dispatch path
        return lpn % len(self.busy)

    def execute(self, request: Request, now: float) -> float:
        channel = request.lpn % len(self.busy)
        latency = 15.0 + request.lpn % 5
        self.busy[channel] = max(self.busy[channel], now) + latency
        return latency


# Discrete-event scheduler + NCQ queue on a stub device.
def hostq_events() -> dict:
    device = _StubDevice(8)
    queue = SubmissionQueue(16)
    scheduler = HostScheduler(device, queue, device.execute)
    rng = random.Random(67)
    for seq in range(2000):
        request = Request(
            seq=seq, client=seq % 8,
            kind=OpKind.WRITE if rng.random() < 0.5 else OpKind.READ,
            lpn=rng.randrange(512), length=16,
        )
        arrival = seq * 2.0

        def submit(now: float, request: Request = request) -> None:
            scheduler.submit(request, now)

        scheduler.schedule(arrival, submit)
    scheduler.run()
    return {
        "events": scheduler.stats.events,
        "polls": scheduler.stats.polls,
        "dispatch_rounds": scheduler.stats.dispatch_rounds,
        "completed": len(scheduler.completed),
        "holb_bypasses": queue.stats.holb_bypasses,
        "max_depth_used": queue.stats.max_depth_used,
    }


# Device-level loadtest (8 clients, qd 8): the golden pin of dispatch order.
def device_loadtest() -> dict:
    result = run_loadtest(LoadTestConfig(
        backend="noftl", clients=8, queue_depth=8, requests=4000,
        logical_pages=512, profile="uniform", seed=7,
    ))
    return {
        "generated": result.generated,
        "completed": result.completed,
        "rejected": result.rejected,
        "delta_fallbacks": result.delta_fallbacks,
        "holb_bypasses": result.queue_stats.holb_bypasses,
        "max_depth_used": result.queue_stats.max_depth_used,
        "commit_forces": result.gate_stats.forces,
        "makespan_us": result.makespan_us,
    }


# Transaction-level loadtest at the CI smoke configuration: the golden
# pin of group-commit accounting.
def txn_loadtest() -> dict:
    result = run_txn_loadtest(TxnLoadTestConfig(
        backend="noftl", clients=4, queue_depth=4, txns=60,
        logical_pages=128, profile="tpcb", scheme=NxMScheme(2, 4), seed=7,
    ))
    return {
        "started": result.started,
        "committed": result.committed,
        "aborted": result.aborted,
        "retried": result.retried,
        "conflict_waits": result.conflict_waits,
        "log_forces": result.log_forces,
        "ipa_flushes": result.ipa_flushes,
        "oop_flushes": result.oop_flushes,
        "makespan_us": result.makespan_us,
    }


REPLAYS = {
    replay.__name__: replay
    for replay in (
        ispp_program, delta_codec, buffer_pool, wal_group_commit,
        noftl_write_gc, hostq_events, device_loadtest, txn_loadtest,
    )
}

PINNED = {
    "ispp_program": {
        "programs": 18,
        "image_crc": 1413941518,
    },
    "delta_codec": {
        "records": 600,
        "image_crc": 152685057,
        "code_crc": 1778617474,
        "code_size": 4,
    },
    "buffer_pool": {
        "fetches": 4000,
        "hits": 2356,
        "misses": 1644,
        "evictions": 1580,
        "evict_flushes": 0,
        "cleaner_flushes": 1092,
    },
    "wal_group_commit": {
        "appended": 6250,
        "forces": 157,
        "commits_grouped": 1094,
        "bytes_written": 275000,
        "last_lsn": 6250,
        "checkpoints": 0,
    },
    "noftl_write_gc": {
        "host_reads": 429,
        "host_page_writes": 3000,
        "gc_erases": 89,
        "gc_page_migrations": 2806,
    },
    "hostq_events": {
        "events": 5583,
        "polls": 1583,
        "dispatch_rounds": 5583,
        "completed": 2000,
        "holb_bypasses": 1618,
        "max_depth_used": 16,
    },
    "device_loadtest": {
        "generated": 4000,
        "completed": 4000,
        "rejected": 0,
        "delta_fallbacks": 0,
        "holb_bypasses": 2846,
        "max_depth_used": 8,
        "commit_forces": 0,
        "makespan_us": 500405.78125,
    },
    "txn_loadtest": {
        "started": 60,
        "committed": 60,
        "aborted": 0,
        "retried": 0,
        "conflict_waits": 15,
        "log_forces": 48,
        "ipa_flushes": 24,
        "oop_flushes": 25,
        "makespan_us": 3574.78515625,
    },
}


def test_every_replay_is_pinned():
    assert REPLAYS.keys() == PINNED.keys()


@pytest.mark.parametrize("name", REPLAYS)
def test_replay_matches_pinned_counts(name):
    assert REPLAYS[name]() == PINNED[name]


@pytest.mark.parametrize("name", REPLAYS)
def test_replay_is_deterministic(name):
    first = REPLAYS[name]()
    second = REPLAYS[name]()
    assert first, "a replay must report at least one count"
    assert second == first, "counts changed between passes: nondeterministic"
