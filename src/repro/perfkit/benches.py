"""The stock benches ``repro bench`` ships with.

One bench per hot path whose simulated behaviour must not move:

* ``ispp_program`` — raw :class:`~repro.flash.page.FlashPage`
  programming: first-program image installs, delta-tail appends, and
  full AND-merge reprograms;
* ``delta_codec`` — delta-record encode/decode plus segment ECC
  computation (the [N x M] codec of paper Section 6);
* ``buffer_pool`` — buffer-pool fetch/evict/clean cycling with a
  synthetic loader (hit fast path + LRU bookkeeping);
* ``wal_group_commit`` — WAL appends with amortized group-commit
  forces and log-space checkpointing;
* ``noftl_write_gc`` — NoFTL page writes over a small over-provisioned
  array, driving mapping updates and greedy GC;
* ``hostq_events`` — the discrete-event scheduler and NCQ queue on a
  stub device (pure event-loop overhead);
* ``device_loadtest`` — the end-to-end device-level load test (8
  clients, queue depth 8): the golden pin of dispatch order;
* ``txn_loadtest`` — the transaction-level load test at the CI smoke
  configuration (buffer pool + WAL + group commit under the scheduler):
  the golden pin of group-commit accounting.

Every bench draws from seeded :class:`random.Random` instances and
fixed sizes, so its ``counts`` are identical on every machine and
Python version.
"""

from __future__ import annotations

import random
import zlib

from ..core import NxMScheme, apply_pairs, decode_area, encode_record
from ..flash.ecc import CODE_SIZE, compute_code
from ..flash.page import FlashPage
from ..hostq import (
    HostScheduler,
    LoadTestConfig,
    OpKind,
    Request,
    SubmissionQueue,
    TxnLoadTestConfig,
    run_loadtest,
    run_txn_loadtest,
)
from ..session import SessionConfig, open_device
from ..storage.buffer import BufferPool
from ..storage.page_layout import SlottedPage
from ..storage.wal import LogKind, LogManager
from .registry import Bench, register

__all__ = ["register_default_benches"]

_PAGE_SIZE = 4096
_OOB_SIZE = 128


# ----------------------------------------------------------------------
# ispp_program
# ----------------------------------------------------------------------

def _ispp_program() -> dict:
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


# ----------------------------------------------------------------------
# delta_codec
# ----------------------------------------------------------------------

def _delta_codec() -> dict:
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


# ----------------------------------------------------------------------
# buffer_pool
# ----------------------------------------------------------------------

def _buffer_pool() -> dict:
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


# ----------------------------------------------------------------------
# wal_group_commit
# ----------------------------------------------------------------------

def _wal_group_commit() -> dict:
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


# ----------------------------------------------------------------------
# noftl_write_gc
# ----------------------------------------------------------------------

def _noftl_write_gc() -> dict:
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


# ----------------------------------------------------------------------
# hostq_events
# ----------------------------------------------------------------------

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


def _hostq_events() -> dict:
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


# ----------------------------------------------------------------------
# device_loadtest / txn_loadtest
# ----------------------------------------------------------------------

def _device_loadtest() -> dict:
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


def _txn_loadtest() -> dict:
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


def register_default_benches() -> None:
    """Register the stock benches (idempotence guarded by the caller)."""
    register(Bench(
        "ispp_program",
        "FlashPage programming: image installs, tail appends, AND-merges",
        _ispp_program,
    ))
    register(Bench(
        "delta_codec",
        "delta-record encode/decode + segment ECC over an [N x M] area",
        _delta_codec,
    ))
    register(Bench(
        "buffer_pool",
        "buffer-pool fetch/evict/clean cycling with a synthetic loader",
        _buffer_pool,
    ))
    register(Bench(
        "wal_group_commit",
        "WAL appends with group-commit forces and log-space checkpoints",
        _wal_group_commit,
    ))
    register(Bench(
        "noftl_write_gc",
        "NoFTL page writes driving mapping updates and greedy GC",
        _noftl_write_gc,
    ))
    register(Bench(
        "hostq_events",
        "discrete-event scheduler + NCQ queue on a stub device",
        _hostq_events,
    ))
    register(Bench(
        "device_loadtest",
        "device-level loadtest (8 clients, qd 8): dispatch order",
        _device_loadtest,
    ))
    register(Bench(
        "txn_loadtest",
        "transaction-level loadtest, CI smoke configuration: group commit",
        _txn_loadtest,
    ))
