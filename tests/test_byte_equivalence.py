"""Byte-equivalence of the optimized hot paths against naive references.

The optimization pass (bulk first-program installs, cached ECC codes,
buffer-pool hit fast path, heap-based GC victim selection, telemetry
short-circuits) carries one guarantee: **the simulation is unchanged** —
every data byte, counter and decision is identical to the naive
reference computation.  This suite pins that guarantee with explicit
oracles, parametrized across SLC/MLC/pSLC modes and torn-write cases.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NxMScheme
from repro.flash.ecc import (
    CODE_SIZE,
    ERASED_CODE,
    compute_code,
    compute_code_reference,
)
from repro.flash.page import FlashPage
from repro.ftl.gc import greedy
from repro.ftl.region import IPAMode
from repro.session import SessionConfig, open_device
from repro.storage import (
    Column,
    EngineConfig,
    Int32,
    Int64,
    LogKind,
    Schema,
    StorageEngine,
    VarChar,
    recover,
)
from repro.storage.buffer import BufferPool
from repro.storage.page_layout import SlottedPage
from repro.storage.clock import ScalarClock
from repro.storage.program import run_on_clock
from repro.storage.wal import apply_record, inverse_of
from repro.telemetry import Telemetry
from repro.session import SessionConfig, open_device

PAGE_SIZE = 512
OOB_SIZE = 64


# ----------------------------------------------------------------------
# Cached ECC vs the naive per-byte reference
# ----------------------------------------------------------------------

@pytest.mark.parametrize("length", [1, 13, 128, 512, 513, 4096])
def test_compute_code_matches_reference(length):
    rng = random.Random(length)
    for trial in range(8):
        data = bytes(rng.randrange(0x100) for _ in range(length))
        assert compute_code(data) == compute_code_reference(data)
        # Second call exercises the memoized path on cacheable sizes.
        assert compute_code(data) == compute_code_reference(data)


def test_erased_code_constant_matches_reference():
    assert ERASED_CODE == b"\xff" * CODE_SIZE
    # An erased (all-0xFF) segment's *computed* code differs from the
    # erased *stored* code — verify() skips on the stored bytes, never
    # on content; pin both facts.
    assert compute_code(b"\xff" * 16) == compute_code_reference(b"\xff" * 16)


# ----------------------------------------------------------------------
# First-program bulk install vs the per-byte ISPP AND
# ----------------------------------------------------------------------

def _reference_program(oracle: bytearray, data: bytes, offset: int) -> None:
    """The naive model: every programmed cell ANDs with its old value."""
    for index, value in enumerate(data):
        old = oracle[offset + index]
        assert value & ~old == value & ~old  # transitions validated below
        oracle[offset + index] = old & value


@pytest.mark.parametrize("seed", [3, 17, 91])
def test_program_fast_path_matches_and_oracle(seed):
    rng = random.Random(seed)
    page = FlashPage(PAGE_SIZE, OOB_SIZE)
    oracle = bytearray(b"\xff" * PAGE_SIZE)

    first = bytes(rng.randrange(0x100) for _ in range(PAGE_SIZE))
    page.program(first)  # bulk fast path: page was fully erased
    _reference_program(oracle, first, 0)
    assert bytes(page.data) == bytes(oracle)

    # Follow-up programs (general path): only-clear images at offsets.
    for __ in range(20):
        offset = rng.randrange(PAGE_SIZE - 32)
        current = bytes(page.data[offset : offset + 32])
        image = bytes(b & rng.randrange(0x100) for b in current)
        page.program(image, offset)
        _reference_program(oracle, image, offset)
        assert bytes(page.data) == bytes(oracle)


def test_torn_program_with_no_landed_charge_keeps_fast_path_legal():
    """decide()=False everywhere: no cell changes, the page stays erased,
    and the next full program must still equal the plain image."""
    page = FlashPage(PAGE_SIZE, OOB_SIZE)
    image = bytes([0x5A]) * PAGE_SIZE
    changed = page.program_torn(image, 0, lambda: False)
    assert not changed
    assert not page.programmed
    assert page.is_erased()
    page.program(image)  # bulk path on a genuinely erased page
    assert bytes(page.data) == image


@pytest.mark.parametrize("seed", [5, 29])
def test_torn_program_then_program_matches_and_oracle(seed):
    """Partially landed pulses flip the programmed flag, so the follow-up
    program takes the general AND path — equal to the reference."""
    rng = random.Random(seed)
    page = FlashPage(PAGE_SIZE, OOB_SIZE)
    image = bytes(rng.randrange(0x100) for _ in range(PAGE_SIZE))
    decide_rng = random.Random(seed + 1)
    changed = page.program_torn(image, 0, lambda: decide_rng.random() < 0.5)
    assert changed
    assert page.programmed
    oracle = bytearray(page.data)  # the torn state is the new baseline
    page.program(image)
    _reference_program(oracle, image, 0)
    assert bytes(page.data) == bytes(oracle)


# ----------------------------------------------------------------------
# Device-level write/append across SLC / MLC / pSLC modes
# ----------------------------------------------------------------------

MODES = [
    pytest.param(SessionConfig(backend="noftl", logical_pages=64), id="emulator-slc"),
    pytest.param(
        SessionConfig(backend="noftl", logical_pages=64, platform="openssd",
                      mode=IPAMode.PSLC),
        id="openssd-pslc",
    ),
    pytest.param(
        SessionConfig(backend="noftl", logical_pages=64, platform="openssd",
                      mode=IPAMode.ODD_MLC),
        id="openssd-odd-mlc",
    ),
    pytest.param(
        SessionConfig(backend="blockssd", logical_pages=64),
        id="blockssd-slc",
    ),
]


@pytest.mark.parametrize("config", MODES)
def test_device_write_append_read_matches_oracle(config):
    device = open_device(config)
    page_size = device.page_size
    tail = 64
    body = page_size - tail
    rng = random.Random(113)
    oracles: dict[int, bytearray] = {}

    def full_write(lpn: int, stamp: int) -> None:
        image = bytes([stamp % 251]) * body + b"\xff" * tail
        device.write(lpn, image, 0.0)
        oracles[lpn] = bytearray(image)

    cursors: dict[int, int] = {}
    for lpn in range(16):
        full_write(lpn, lpn)
        cursors[lpn] = 0
    appends = vetoes = 0
    for step in range(300):
        lpn = rng.randrange(16)
        length = 4
        cursor = cursors[lpn]
        if cursor + length > tail:
            full_write(lpn, step)
            cursors[lpn] = 0
            continue
        offset = body + cursor
        payload = bytes(rng.randrange(0x100) for _ in range(length))
        if device.can_write_delta(lpn, offset, length):
            device.write_delta(lpn, offset, payload, 0.0)
            # Appending into erased cells: the ISPP AND degenerates to
            # the payload itself, on every mode and backend.
            oracles[lpn][offset : offset + length] = payload
            cursors[lpn] = cursor + length
            appends += 1
        else:
            vetoes += 1
            full_write(lpn, step)
            cursors[lpn] = 0
    assert appends > 0  # every mode must exercise the append path
    for lpn, oracle in oracles.items():
        assert device.read(lpn, 0.0).data == bytes(oracle), f"lpn {lpn}"


# ----------------------------------------------------------------------
# Buffer-pool hits: every entry point goes through try_pin
# ----------------------------------------------------------------------

def _make_pool() -> BufferPool:
    def loader(lpn: int, now: float):
        return SlottedPage.format(lpn, PAGE_SIZE, 0), 0, 25.0

    def flusher(frame, now: float):
        return "oop", 200.0

    return BufferPool(8, loader, flusher)


@pytest.mark.parametrize("entry", ["fetch", "fetch_program"])
def test_resident_fetch_matches_try_pin(entry):
    """The hit bookkeeping lives in ``try_pin`` alone; ``fetch`` and
    ``fetch_program`` reach it, they do not restate it.  (Replaces the
    fast-vs-slow oracle that kept two copies of that bookkeeping equal.)
    """
    reference, pool = _make_pool(), _make_pool()
    rng = random.Random(7)
    accesses = [rng.randrange(24) for _ in range(400)]
    for index, lpn in enumerate(accesses):
        dirty = index % 5 == 0
        if reference.try_pin(lpn) is None:  # miss: the one miss path
            run_on_clock(reference.fetch_program(lpn), ScalarClock())
        reference.unpin(lpn, dirty)
        if entry == "fetch":
            frame, latency = pool.fetch(lpn, 0.0)
        else:
            frame, latency = run_on_clock(pool.fetch_program(lpn), ScalarClock())
        assert frame.pin_count == 1
        pool.unpin(lpn, dirty)
        assert vars(pool.stats) == vars(reference.stats)
        assert list(pool._frames) == list(reference._frames)  # LRU order
    assert pool.stats.hits > 0 and pool.stats.misses > 0
    assert pool.dirty_count == reference.dirty_count


# ----------------------------------------------------------------------
# Heap-based greedy victim selection vs the first-wins linear scan
# ----------------------------------------------------------------------

class _StubMapping:
    def __init__(self, valid: dict) -> None:
        self._valid = valid

    def valid_count(self, key) -> int:
        return self._valid[key]


def _reference_greedy(candidates, mapping, erase_counts):
    best = None
    best_rank = None
    for key in candidates:
        rank = (mapping.valid_count(key), erase_counts.get(key, 0))
        if best_rank is None or rank < best_rank:
            best, best_rank = key, rank
    return best


@pytest.mark.parametrize("seed", range(12))
def test_greedy_heap_matches_reference_scan(seed):
    rng = random.Random(seed)
    candidates = [(chip, block) for chip in range(4) for block in range(8)]
    rng.shuffle(candidates)
    # Narrow value ranges force plenty of ties: the tie-break (earliest
    # candidate wins) is exactly what the heap rank must preserve.
    valid = {key: rng.randrange(3) for key in candidates}
    erase_counts = {key: rng.randrange(2) for key in candidates if rng.random() < 0.7}
    mapping = _StubMapping(valid)
    assert greedy(candidates, mapping, erase_counts) == _reference_greedy(
        candidates, mapping, erase_counts
    )
    assert greedy([], mapping, erase_counts) is None


# ----------------------------------------------------------------------
# Telemetry short-circuit: instrumentation must not perturb simulation
# ----------------------------------------------------------------------

def test_telemetry_fast_path_leaves_counters_identical():
    quiet = open_device(SessionConfig(backend="noftl", logical_pages=64))
    loud = open_device(SessionConfig(
        backend="noftl", logical_pages=64, telemetry=Telemetry(),
    ))
    rng = random.Random(31)
    writes = [(rng.randrange(32), rng.randrange(0x100)) for _ in range(600)]
    for device in (quiet, loud):
        page_size = device.page_size
        for lpn, fill in writes:
            device.write(lpn, bytes([fill]) * page_size, 0.0)
        for lpn in range(32):
            device.read(lpn, 0.0)
    assert quiet.snapshot() == loud.snapshot()
    assert quiet.occupancy() == loud.occupancy()


#: Every backend and mode, sized so a few hundred writes keep GC busy:
#: 64 logical pages on 8-page blocks give each region about a dozen
#: blocks, one or two per chip, as on the device_write_gc bench.
_SMALL = dict(logical_pages=64, page_size=512, pages_per_block=8)
BACKENDS = [
    pytest.param(SessionConfig(backend="noftl", **_SMALL), id="emulator-slc"),
    pytest.param(
        SessionConfig(backend="noftl", platform="openssd", mode=IPAMode.PSLC, **_SMALL),
        id="openssd-pslc",
    ),
    pytest.param(
        SessionConfig(backend="noftl", platform="openssd", mode=IPAMode.ODD_MLC, **_SMALL),
        id="openssd-odd-mlc",
    ),
    pytest.param(SessionConfig(backend="blockssd", **_SMALL), id="blockssd-slc"),
    pytest.param(SessionConfig(backend="sharded", shards=2, **_SMALL), id="sharded-2"),
]


def _controllers(device) -> list:
    """The NoFTL controllers that own the flash under any backend."""
    if hasattr(device, "shards"):
        return list(device.shards)
    if hasattr(device, "internal"):
        return [device.internal]
    return [device]


def _home_channel(device, lpn: int) -> int:
    """The channel a logical page's physical home is served on."""
    if len(device.occupancy()) == 1:
        return 0  # serialized (OpenSSD): one device-wide channel
    if not hasattr(device, "shards"):
        return _controllers(device)[0].physical_address(lpn).chip
    shard, local = device.shard_of(lpn)
    offset = sum(len(child.occupancy()) for child in device.shards[:shard])
    return offset + device.shards[shard].physical_address(local).chip


def _owning_region(device, lpn: int):
    if hasattr(device, "shards"):
        shard, local = device.shard_of(lpn)
        return device.shards[shard].region_of(local)
    return _controllers(device)[0].region_of(lpn)


def _play_script(device, seed: int) -> list:
    """Random page writes, 16-byte deltas and reads; returns every result."""
    page_size = device.page_size
    tail = 128
    rng = random.Random(seed)
    cursors = [None] * device.logical_pages
    results = []
    now = 0.0
    for step in range(900):
        lpn = rng.randrange(device.logical_pages)
        roll = rng.random()
        cursor = cursors[lpn]
        if roll < 0.15 and cursor is not None:
            io = device.read(lpn, now)
        elif roll < 0.40 and cursor is not None and cursor + 16 <= tail:
            offset = page_size - tail + cursor
            if device.can_write_delta(lpn, offset, 16):
                io = device.write_delta(lpn, offset, bytes([step % 256]) * 16, now)
                cursors[lpn] = cursor + 16
            else:
                io = None
        else:
            image = bytes([step % 251]) * (page_size - tail) + b"\xff" * tail
            io = device.write(lpn, image, now)
            cursors[lpn] = 0
        if io is not None:
            results.append((io.data, io.latency_us))
            now += io.latency_us / 4
    return results


def _device_state(device) -> dict:
    state = {"device": device.snapshot(), "flash": []}
    for controller in _controllers(device):
        flash = controller.flash
        state["flash"].append((
            flash.stats.snapshot(),
            [(chip.busy_until, chip.busy_time_us) for chip in flash.chips],
            [block.erase_count for chip in flash.chips for block in chip.blocks],
        ))
    state["images"] = [
        device.read(lpn, 0.0).data
        for lpn in range(device.logical_pages)
        if device.is_mapped(lpn)
    ]
    return state


@pytest.mark.parametrize("config", BACKENDS)
def test_telemetry_on_and_off_simulate_identically(config):
    """Telemetry (with an event subscriber, so every address-building
    path runs) changes no counter, clock, erase count or byte."""
    quiet = open_device(config)
    telemetry = Telemetry()
    events = []
    telemetry.events.subscribe_all(events.append)
    loud = open_device(dataclasses.replace(config, telemetry=telemetry))
    assert _play_script(quiet, 41) == _play_script(loud, 41)
    assert _device_state(quiet) == _device_state(loud)
    assert sum(c.stats.gc_erases for c in _controllers(loud)) > 0
    assert events, "the subscriber saw no event"


@pytest.mark.parametrize("config", BACKENDS)
def test_channel_hints_name_the_serving_chip_after_gc(config):
    """Read hints name the chip of every mapped page's home after heavy
    GC; a write hint names the chip the write lands on whenever the
    region needs no GC first."""
    device = open_device(config)
    rng = random.Random(59)
    checked = 0
    for step in range(700):
        lpn = rng.randrange(device.logical_pages)
        hint = device.channel_of(lpn, "write")
        settled = not _owning_region(device, lpn).needs_gc()
        device.write(lpn, bytes([step % 251]) * device.page_size, 0.0)
        if settled:
            assert hint == _home_channel(device, lpn), f"write step {step}"
            checked += 1
    assert checked > 0
    assert sum(c.stats.gc_erases for c in _controllers(device)) > 0
    for lpn in range(device.logical_pages):
        if device.is_mapped(lpn):
            assert device.channel_of(lpn, "read") == _home_channel(device, lpn), lpn


# ----------------------------------------------------------------------
# Do = redo = undo: Table operations vs apply_record / inverse_of
# ----------------------------------------------------------------------

_ROW_SCHEMA = Schema([
    Column("k", Int32()), Column("a", Int32()), Column("b", Int64()),
    Column("c", Int32()), Column("s", VarChar(120)),
])


def _row_engine(buffer_pages: int = 16) -> tuple[StorageEngine, object]:
    device = open_device(SessionConfig(logical_pages=128, chips=2, page_size=1024))
    engine = StorageEngine(
        device,
        EngineConfig(buffer_pages=buffer_pages, scheme=NxMScheme(2, 4), retain_log=True),
    )
    return engine, engine.create_table("rows", _ROW_SCHEMA, key=["k"])


def _logical(image: bytes, dead_from: int, dead_to: int) -> bytes:
    """A page image minus what undo legitimately leaves behind: the
    PageLSN, the slot count and free pointer (neither is ever rolled
    back) and heap space ``[dead_from, dead_to)`` the undone operation
    took at the free pointer (abandoned, never reused)."""
    image = bytearray(image)
    image[6:18] = bytes(12)
    image[dead_from:dead_to] = bytes(dead_to - dead_from)
    return bytes(image)


#: case -> (tombstone in slot 3?, operation, logged kind, slot, takes heap space?)
_FORWARD_CASES = {
    "insert-fresh-slot": (
        False, lambda t, txn: t.insert(txn, (9, 1, 2, 3, "new")), LogKind.INSERT, 5, True),
    "insert-reused-tombstone": (
        True, lambda t, txn: t.insert(txn, (9, 1, 2, 3, "new")), LogKind.INSERT, 3, True),
    "update-one-patch": (
        True, lambda t, txn: t.update(txn, t.lookup(1), {"a": 11}), LogKind.UPDATE, 1, False),
    "update-several-patches-one-unchanged": (
        True, lambda t, txn: t.update(txn, t.lookup(1), {"a": 10, "b": 2**40, "c": 8}),
        LogKind.UPDATE, 1, False),
    "replace-shrink": (
        True, lambda t, txn: t.update(txn, t.lookup(1), {"s": "y"}), LogKind.REPLACE, 1, False),
    "replace-same-size": (
        True, lambda t, txn: t.update(txn, t.lookup(1), {"s": "y" * 40}),
        LogKind.REPLACE, 1, False),
    "replace-grow-relocates": (
        True, lambda t, txn: t.update(txn, t.lookup(1), {"s": "y" * 90}),
        LogKind.REPLACE, 1, True),
    "delete": (
        True, lambda t, txn: t.delete(txn, t.lookup(1)), LogKind.DELETE, 1, False),
}


@pytest.mark.parametrize("case", sorted(_FORWARD_CASES))
def test_table_operation_matches_apply_record_and_its_inverse(case):
    tombstone, operation, kind, slot, takes_heap = _FORWARD_CASES[case]
    engine, table = _row_engine()
    txn = engine.begin()
    for k in range(5):
        table.insert(txn, (k, 10, 100, 7, "x" * 40))
    if tombstone:
        table.delete(txn, table.lookup(3))
    engine.commit(txn)
    (lpn,) = table.pages
    live = engine.pin(lpn).page
    live.reset_tracking()
    pre_image = bytes(live.image)
    rows_before = dict(table.scan())

    txn = engine.begin()
    operation(table, txn)
    (record,) = txn.undo
    assert (record.kind, record.slot) == (kind, slot)
    if kind is LogKind.UPDATE:  # the unchanged column contributes no patch
        assert len(record.payload) == (2 if "several" in case else 1)

    # Redo: the logged record applied to a copy of the pre-image.
    replica = SlottedPage(bytearray(pre_image))
    pre_free = replica.free_ptr
    apply_record(replica, record.kind, record.slot, record.payload)
    replica.set_lsn(record.lsn)
    assert bytes(replica.image) == bytes(live.image)
    assert replica.tracked == live.tracked

    # Undo: the inverse applied to that copy restores the pre-image...
    kind, payload = inverse_of(replica, record)
    apply_record(replica, kind, record.slot, payload)
    dead = (pre_free, replica.free_ptr)
    assert (dead[1] > dead[0]) == takes_heap
    assert _logical(replica.image, *dead) == _logical(pre_image, *dead)
    # ...and is what the engine's abort does (its CLR stamps a new LSN).
    engine.abort(txn)
    assert bytes(live.image[:6] + live.image[14:]) == bytes(replica.image[:6] + replica.image[14:])
    assert dict(table.scan()) == rows_before
    engine.unpin(lpn, dirty=False)


_OPS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 120)),
    st.tuples(st.just("fixed"), st.integers(0, 10**6), st.integers(0, 3)),
    st.tuples(st.just("var"), st.integers(0, 10**6), st.integers(0, 120)),
    st.tuples(st.just("delete"), st.integers(0, 10**6)),
)
_TXNS = st.lists(st.tuples(st.booleans(), st.lists(_OPS, min_size=1, max_size=6)),
                 min_size=1, max_size=12)


@pytest.mark.parametrize("buffer_pages", [3, 64])  # with / without evictions
@settings(max_examples=40, deadline=None)
@given(txns=_TXNS)
def test_recovery_reproduces_every_heap_page_image(buffer_pages, txns):
    """Redo is the forward function: after any history of committed and
    aborted transactions, restart reproduces the buffered images byte
    for byte, PageLSN included."""
    engine, table = _row_engine(buffer_pages)
    txn = engine.begin()
    for next_key in range(40):  # several pages before the history starts
        table.insert(txn, (next_key, 0, 0, 0, "s" * 60))
    engine.commit(txn)
    next_key += 1
    for commit, ops in txns:
        txn = engine.begin()
        for op, *args in ops:
            live = sorted(table.index)
            if op == "insert":
                table.insert(txn, (next_key, 0, 0, 0, "s" * args[0]))
                next_key += 1
            elif not live:
                continue
            else:
                rid = table.lookup(*live[args[0] % len(live)])
                if op == "fixed":
                    table.update(txn, rid, {"a": args[1], "b": args[0]})
                elif op == "var":
                    table.update(txn, rid, {"s": "v" * args[1]})
                else:
                    table.delete(txn, rid)
        if commit:
            engine.commit(txn)
        else:
            engine.abort(txn)

    def images():
        found = {}
        for lpn in table.pages:
            found[lpn] = bytes(engine.pin(lpn).page.image)
            engine.unpin(lpn, dirty=False)
        return found

    assert (engine.pool.stats.evictions > 0) == (buffer_pages < len(table.pages))
    before, rows = images(), sorted(table.scan())
    engine.crash()
    recover(engine)
    assert images() == before
    assert sorted(table.scan()) == rows
