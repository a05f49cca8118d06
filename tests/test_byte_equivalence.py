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
import struct
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import NxMScheme
from repro.errors import PageFormatError, PageFullError, RecordNotFoundError, SchemaError
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
    Char,
    Column,
    EngineConfig,
    Int32,
    Int64,
    LogKind,
    LogRecord,
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


# ----------------------------------------------------------------------
# Slotted page and schema vs their naive predecessors
# ----------------------------------------------------------------------
#
# The two classes below are the record path as it was before the page
# held its header fields as attributes and the schema compiled a
# ``struct.Struct``, copied unchanged (only renamed).  Random histories
# drive each pair side by side and compare everything observable.

HEADER_SIZE = 32
MAGIC = 0xD817
SLOT_SIZE = 4

_OFF_MAGIC = 0
_OFF_PAGE_ID = 2
_OFF_LSN = 6
_OFF_SLOT_COUNT = 14
_OFF_FREE_PTR = 16
_OFF_FLAGS = 18
_OFF_DELTA_SIZE = 20
_OFF_CHECKSUM = 24


class _NaivePage:
    """``SlottedPage`` before the struct codecs and cached header: every
    field decoded from the image on each access, every slot scanned per
    insert, every byte diffed one at a time."""

    #: Tracked-offset cap: far beyond any delta budget, it merely bounds
    #: memory on pathological pages (e.g. after compaction).
    TRACK_LIMIT = 4096

    __slots__ = (
        "image",
        "tracked",
        "track_overflowed",
        "_page_size",
        "_delta_size",
    )

    def __init__(self, image: bytearray) -> None:
        if len(image) < HEADER_SIZE:
            raise PageFormatError("image smaller than a page header")
        if int.from_bytes(image[_OFF_MAGIC:_OFF_MAGIC + 2], "big") != MAGIC:
            raise PageFormatError("bad page magic")
        self.image = image
        self.tracked: set[int] = set()
        #: The one give-up state (paper Section 6.2): set when tracking
        #: overflowed, it sends the next flush out of place, and only
        #: that flush's :meth:`reset_tracking` clears it.
        self.track_overflowed = False
        self._page_size = len(image)
        self._delta_size = int.from_bytes(image[_OFF_DELTA_SIZE:_OFF_DELTA_SIZE + 2], "big")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def format(cls, page_id: int, page_size: int, delta_area_size: int = 0) -> "_NaivePage":
        """Create a freshly formatted empty page."""
        if HEADER_SIZE + SLOT_SIZE + delta_area_size >= page_size:
            raise PageFormatError(
                f"page of {page_size}B cannot host a {delta_area_size}B delta area"
            )
        image = bytearray(page_size)
        image[_OFF_MAGIC:_OFF_MAGIC + 2] = MAGIC.to_bytes(2, "big")
        image[_OFF_PAGE_ID:_OFF_PAGE_ID + 4] = page_id.to_bytes(4, "big")
        image[_OFF_FREE_PTR:_OFF_FREE_PTR + 2] = HEADER_SIZE.to_bytes(2, "big")
        image[_OFF_DELTA_SIZE:_OFF_DELTA_SIZE + 2] = delta_area_size.to_bytes(2, "big")
        if delta_area_size:
            image[page_size - delta_area_size :] = b"\xff" * delta_area_size
        page = cls(image)
        page.tracked.clear()  # formatting is not an update
        return page

    # ------------------------------------------------------------------
    # Raw byte access with tracking
    # ------------------------------------------------------------------

    def write_bytes(self, offset: int, data: bytes) -> None:
        """Overwrite page bytes, tracking the offsets that changed."""
        end = offset + len(data)
        if offset < 0 or end > self._page_size:
            raise PageFormatError(f"write [{offset}, {end}) outside page")
        image = self.image
        if not self.track_overflowed:
            tracked = self.tracked
            for i, value in enumerate(data):
                if image[offset + i] != value:
                    tracked.add(offset + i)
                    image[offset + i] = value
            if len(tracked) > self.TRACK_LIMIT:
                self.track_overflowed = True
        else:
            image[offset:end] = data

    def reset_tracking(self) -> None:
        """Forget tracked changes (after a flush materialized them)."""
        self.tracked.clear()
        self.track_overflowed = False

    def classify_tracked(self) -> tuple[list[int], list[int]]:
        """Split tracked offsets into (body, metadata) lists, sorted.

        Metadata is the page header plus the slot table (the paper's
        header/footer); everything between them is tuple data.
        """
        floor = self.slot_table_floor
        body: list[int] = []
        meta: list[int] = []
        for offset in sorted(self.tracked):
            if HEADER_SIZE <= offset < floor:
                body.append(offset)
            else:
                meta.append(offset)
        return body, meta

    # ------------------------------------------------------------------
    # Header fields
    # ------------------------------------------------------------------

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def page_id(self) -> int:
        return int.from_bytes(self.image[_OFF_PAGE_ID:_OFF_PAGE_ID + 4], "big")

    @property
    def lsn(self) -> int:
        return int.from_bytes(self.image[_OFF_LSN:_OFF_LSN + 8], "big")

    def set_lsn(self, lsn: int) -> None:
        """Stamp the PageLSN (tracked: usually 1-2 bytes change)."""
        self.write_bytes(_OFF_LSN, lsn.to_bytes(8, "big"))

    @property
    def slot_count(self) -> int:
        return int.from_bytes(self.image[_OFF_SLOT_COUNT:_OFF_SLOT_COUNT + 2], "big")

    def _set_slot_count(self, count: int) -> None:
        self.write_bytes(_OFF_SLOT_COUNT, count.to_bytes(2, "big"))

    @property
    def free_ptr(self) -> int:
        return int.from_bytes(self.image[_OFF_FREE_PTR:_OFF_FREE_PTR + 2], "big")

    def _set_free_ptr(self, value: int) -> None:
        self.write_bytes(_OFF_FREE_PTR, value.to_bytes(2, "big"))

    def compute_checksum(self) -> int:
        """CRC32 over the page content, excluding the checksum field
        itself and the delta area (whose flash twin evolves separately)."""
        image = self.image
        head = bytes(image[:_OFF_CHECKSUM])
        body = bytes(image[_OFF_CHECKSUM + 4 : self.delta_area_offset])
        return zlib.crc32(body, zlib.crc32(head)) & 0xFFFFFFFF

    def update_checksum(self) -> None:
        """Stamp the checksum (tracked like any metadata change).

        Engines emulating InnoDB's FIL checksum call this on every
        flush; the ~4 changed bytes per flush are what give InnoDB its
        gross-update-size floor (see the LinkBench analysis).
        """
        self.write_bytes(_OFF_CHECKSUM, self.compute_checksum().to_bytes(4, "big"))

    def verify_checksum(self) -> bool:
        """Whether the stored checksum matches the page content."""
        stored = int.from_bytes(self.image[_OFF_CHECKSUM:_OFF_CHECKSUM + 4], "big")
        return stored == self.compute_checksum()

    @property
    def delta_area_size(self) -> int:
        return self._delta_size

    @property
    def delta_area_offset(self) -> int:
        return self._page_size - self._delta_size

    @property
    def slot_table_floor(self) -> int:
        """Lowest byte used by the slot table (its current extent)."""
        return self.delta_area_offset - SLOT_SIZE * self.slot_count

    @property
    def free_space(self) -> int:
        """Bytes available for one more record *and* its slot entry."""
        return max(0, self.slot_table_floor - self.free_ptr - SLOT_SIZE)

    # ------------------------------------------------------------------
    # Slot table
    # ------------------------------------------------------------------

    def _slot_entry_offset(self, slot: int) -> int:
        return self.delta_area_offset - SLOT_SIZE * (slot + 1)

    def _read_slot(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self.slot_count:
            raise RecordNotFoundError(f"slot {slot} out of range")
        base = self._slot_entry_offset(slot)
        offset = int.from_bytes(self.image[base : base + 2], "big")
        length = int.from_bytes(self.image[base + 2 : base + 4], "big")
        return offset, length

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        base = self._slot_entry_offset(slot)
        self.write_bytes(base, offset.to_bytes(2, "big") + length.to_bytes(2, "big"))

    def live_slots(self):
        """Yield the slot numbers of live (non-deleted) records."""
        for slot in range(self.slot_count):
            offset, _ = self._read_slot(slot)
            if offset != 0:
                yield slot

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------

    def slot_for_insert(self, record: bytes) -> int:
        """Slot the next insert of ``record`` will use: the first deleted
        slot, else a new one.  Raises :class:`PageFullError` when neither
        heap space nor a slot is available."""
        if not record:
            raise PageFormatError("empty record")
        slot_count = self.slot_count
        reuse = None
        for slot in range(slot_count):
            offset, _ = self._read_slot(slot)
            if offset == 0:
                reuse = slot
                break
        needed = len(record) + (0 if reuse is not None else SLOT_SIZE)
        if self.slot_table_floor - self.free_ptr < needed:
            raise PageFullError(
                f"record of {len(record)}B does not fit ({self.free_space}B free)"
            )
        return slot_count if reuse is None else reuse

    def insert(self, record: bytes) -> int:
        """Store a record; returns its slot number (deleted slots are
        reused, see :meth:`slot_for_insert`)."""
        slot = self.slot_for_insert(record)
        self.place_record(slot, record)
        return slot

    def place_record(self, slot: int, record: bytes) -> None:
        """Put ``record`` at the heap's free pointer and point ``slot`` at it.

        The one insert placement, forward and redo: deterministic given
        the pre-insert page state, so recovery repeating history lands
        the record at the same heap offset as the original.
        """
        offset = self.free_ptr
        slot_count = self.slot_count
        if self.delta_area_offset - SLOT_SIZE * max(slot_count, slot + 1) - offset < len(record):
            raise PageFullError("record placement does not fit; page state diverged")
        self.write_bytes(offset, record)
        self._set_free_ptr(offset + len(record))
        if slot >= slot_count:
            self._set_slot_count(slot + 1)
        self._write_slot(slot, offset, len(record))

    def read_record(self, slot: int) -> bytes:
        """Bytes of a live record."""
        offset, length = self._read_slot(slot)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot} is deleted")
        return bytes(self.image[offset : offset + length])

    def record_extent(self, slot: int) -> tuple[int, int]:
        """``(page_offset, length)`` of a live record."""
        offset, length = self._read_slot(slot)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot} is deleted")
        return offset, length

    def update_record_bytes(self, slot: int, field_offset: int, data: bytes) -> None:
        """Patch bytes inside a record (fixed-column in-place update)."""
        offset, length = self.record_extent(slot)
        if field_offset + len(data) > length:
            raise PageFormatError("field write beyond record bounds")
        self.write_bytes(offset + field_offset, data)

    def replace_record(self, slot: int, record: bytes) -> None:
        """Replace a record wholesale; may relocate it within the page."""
        offset, length = self.record_extent(slot)
        if len(record) <= length:
            self.write_bytes(offset, record)
            if len(record) != length:
                self._write_slot(slot, offset, len(record))
            return
        if self.slot_table_floor - self.free_ptr < len(record):
            raise PageFullError("no room to relocate the grown record")
        new_offset = self.free_ptr
        self.write_bytes(new_offset, record)
        self._set_free_ptr(new_offset + len(record))
        self._write_slot(slot, new_offset, len(record))

    def delete_record(self, slot: int) -> None:
        """Mark-delete a record (the slot becomes reusable)."""
        self.record_extent(slot)  # raises if already gone
        self._write_slot(slot, 0, 0)

    def slot_entry_patch(self, slot: int, offset: int, length: int) -> tuple[int, bytes, bytes]:
        """``(page_offset, current_bytes, new_bytes)`` that points ``slot``
        at ``(offset, length)`` — a slot-table change as a byte patch."""
        if not 0 <= slot < self.slot_count:
            raise RecordNotFoundError(f"slot {slot} out of range")
        base = self._slot_entry_offset(slot)
        return (
            base,
            bytes(self.image[base : base + SLOT_SIZE]),
            offset.to_bytes(2, "big") + length.to_bytes(2, "big"),
        )

    def compact(self) -> None:
        """Rewrite the record heap densely, reclaiming holes.

        Touches most of the page's bytes, so after compaction the
        change tracker will almost always overflow the delta budget and
        the page will flush out-of-place — which is correct.
        """
        records = []
        for slot in range(self.slot_count):
            offset, length = self._read_slot(slot)
            if offset:
                records.append((slot, bytes(self.image[offset : offset + length])))
        cursor = HEADER_SIZE
        for slot, record in records:
            self.write_bytes(cursor, record)
            self._write_slot(slot, cursor, len(record))
            cursor += len(record)
        self._set_free_ptr(cursor)

    def reset_delta_area(self) -> None:
        """Return the delta area to the erased state.

        Bypasses change tracking: the buffered delta area is a scratch
        mirror of the on-flash slots, not page content — fetch resets
        it after applying the decoded records, and an out-of-place
        write must carry it erased so future appends stay possible.
        """
        if self._delta_size:
            self.image[self.delta_area_offset :] = b"\xff" * self._delta_size


class _NaiveSchema:
    """``Schema`` before the compiled ``Struct``: one column codec per value."""

    def __init__(self, columns: list[Column]) -> None:
        if not columns:
            raise SchemaError("a schema needs at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        self.columns = list(columns)
        self._index = {column.name: i for i, column in enumerate(columns)}
        self._fixed_offsets: list[int | None] = []
        cursor = 0
        for column in columns:
            if column.type.size is None:
                self._fixed_offsets.append(None)
            else:
                self._fixed_offsets.append(cursor)
                cursor += column.type.size
        self.fixed_size = cursor
        self._var_indexes = [
            i for i, column in enumerate(columns) if column.type.size is None
        ]

    def __len__(self) -> int:
        return len(self.columns)

    def column_index(self, name: str) -> int:
        """Position of a column by name."""
        try:
            return self._index[name]
        except KeyError as exc:
            raise SchemaError(f"no column named {name!r}") from exc

    def is_fixed(self, index: int) -> bool:
        """Whether the column at ``index`` has a fixed width."""
        return self._fixed_offsets[index] is not None

    def fixed_offset(self, index: int) -> int:
        """Record offset of a fixed column; raises for variable columns."""
        offset = self._fixed_offsets[index]
        if offset is None:
            raise SchemaError(
                f"column {self.columns[index].name!r} is variable-length"
            )
        return offset

    def pack(self, values) -> bytes:
        """Serialize one record from a value sequence (schema order)."""
        if len(values) != len(self.columns):
            raise SchemaError(
                f"{len(values)} values for {len(self.columns)} columns"
            )
        fixed = bytearray()
        var = bytearray()
        for column, value in zip(self.columns, values):
            packed = column.type.pack(value)
            if column.type.size is None:
                var += packed
            else:
                fixed += packed
        return bytes(fixed) + bytes(var)

    def unpack(self, data: bytes):
        """Deserialize one record into a value tuple."""
        values: list = [None] * len(self.columns)
        for i, column in enumerate(self.columns):
            if column.type.size is not None:
                offset = self._fixed_offsets[i]
                values[i] = column.type.unpack(data[offset : offset + column.type.size])
        cursor = self.fixed_size
        for i in self._var_indexes:
            length = int.from_bytes(data[cursor : cursor + 2], "big")
            values[i] = self.columns[i].type.unpack(data[cursor + 2 : cursor + 2 + length])
            cursor += 2 + length
        return tuple(values)

    def var_field_slice(self, data: bytes, index: int) -> tuple[int, int]:
        """``(payload_offset, payload_length)`` of a variable column."""
        if self.is_fixed(index):
            raise SchemaError("var_field_slice on a fixed column")
        cursor = self.fixed_size
        for i in self._var_indexes:
            length = int.from_bytes(data[cursor : cursor + 2], "big")
            if i == index:
                return cursor + 2, length
            cursor += 2 + length
        raise SchemaError("variable column not found")  # pragma: no cover


class _LowLimitPage(SlottedPage):
    __slots__ = ()
    TRACK_LIMIT = 40


class _LowLimitNaivePage(_NaivePage):
    __slots__ = ()
    TRACK_LIMIT = 40


def _outcome(call):
    """``("ok", value)`` or ``("raised", type, message)`` of ``call()``."""
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001 - the oracle compares any failure
        return "raised", type(exc), str(exc)


def _observe(page) -> dict:
    return {
        "image": bytes(page.image),
        "tracked": set(page.tracked),
        "track_overflowed": page.track_overflowed,
        "slot_count": page.slot_count,
        "free_ptr": page.free_ptr,
        "free_space": page.free_space,
        "lsn": page.lsn,
        "page_id": page.page_id,
        "live_slots": list(page.live_slots()),
        "checksum_ok": page.verify_checksum(),
        "classify_tracked": page.classify_tracked(),
        "slot_for_insert_small": _outcome(lambda: page.slot_for_insert(b"p")),
        "slot_for_insert_large": _outcome(lambda: page.slot_for_insert(b"q" * 150)),
    }


def _page_step(page, op, last):
    """Apply one history step; returns ``(page, outcome, last)``.

    ``last`` is the log record of the latest logged change (forward or
    compensation), which an ``undo`` step inverts with ``inverse_of`` —
    so undoing twice re-applies the change as a raw slot-table patch.
    """
    name, *args = op
    count = page.slot_count

    def logged(kind, slot, payload):
        apply_record(page, kind, slot, payload)
        return LogRecord(0, 0, kind, 0, slot, payload)

    if name == "insert":
        record = bytes([args[1]]) * args[0]
        slot = page.slot_for_insert(record)
        return page, slot, logged(LogKind.INSERT, slot, (record,))
    if name == "delete":
        slot = args[0] % (count + 1)
        return page, slot, logged(LogKind.DELETE, slot, page.record_extent(slot))
    if name == "replace":
        slot = args[0] % (count + 1)
        offset, __ = page.record_extent(slot)
        payload = (page.read_record(slot), bytes([args[2]]) * args[1], offset)
        return page, slot, logged(LogKind.REPLACE, slot, payload)
    if name in ("patch", "update"):
        slot = args[0] % (count + 1)
        offset, length = page.record_extent(slot)
        field = args[1] % length
        data = args[2][: length - field]
        if name == "patch":
            page.update_record_bytes(slot, field, data)
            return page, None, None
        start = offset + field
        old = bytes(page.image[start : start + len(data)])
        return page, None, logged(LogKind.UPDATE, slot, ((start, old, data),))
    if name == "undo":
        if last is None:
            return page, None, None
        kind, payload = inverse_of(page, last)
        return page, (kind, payload), logged(kind, last.slot, payload)
    if name == "header":
        # A raw header patch, as redo replays one: optionally one more
        # (dead) slot, and the free pointer moved up by args[1].
        grow, bump = args
        new_count = count + grow
        new_free = page.free_ptr + bump
        top = page.delta_area_offset - SLOT_SIZE * new_count
        if top < new_free:
            return page, "no room", last
        if grow:
            page.write_bytes(top, bytes(SLOT_SIZE))
        page.write_bytes(_OFF_SLOT_COUNT, struct.pack(">HH", new_count, new_free))
        return page, None, None
    if name == "compact":
        page.compact()
        return page, None, None
    if name == "lsn":
        page.set_lsn(args[0])
    elif name == "checksum":
        page.update_checksum()
    elif name == "reset":
        page.reset_tracking()
    elif name == "reload":
        return type(page)(bytearray(page.image)), None, last
    return page, None, last


_PAGE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(1, 90), st.integers(0, 255)),
        st.tuples(st.just("delete"), st.integers(0, 40)),
        st.tuples(st.just("replace"), st.integers(0, 40), st.integers(1, 90),
                  st.integers(0, 255)),
        st.tuples(st.sampled_from(["patch", "update"]), st.integers(0, 40),
                  st.integers(0, 90), st.binary(min_size=1, max_size=8)),
        # Weighted up: undoing an undo re-kills a slot by a raw patch.
        st.tuples(st.just("undo")),
        st.tuples(st.just("undo")),
        st.tuples(st.just("undo")),
        st.tuples(st.just("header"), st.integers(0, 1), st.integers(0, 8)),
        st.tuples(st.sampled_from(["compact", "checksum", "reset", "reload"])),
        st.tuples(st.just("lsn"), st.integers(0, 2**64 - 1)),
    ),
    max_size=60,
)


@pytest.mark.parametrize(
    "page_cls, naive_cls",
    [(SlottedPage, _NaivePage), (_LowLimitPage, _LowLimitNaivePage)],
    ids=["default-track-limit", "track-limit-40"],
)
@settings(max_examples=150, deadline=None)
@given(ops=_PAGE_OPS)
@example(ops=[("insert", 8, 1), ("insert", 8, 2), ("delete", 0), ("undo",), ("undo",)])
def test_slotted_page_matches_naive_page(page_cls, naive_cls, ops):
    """Every step of a random page history — forward operations, their
    undo patches (and the undo of those), raw header patches, compaction,
    LSN and checksum stamps, tracking resets past ``TRACK_LIMIT`` — leaves
    the page exactly as the naive page: image, tracked offsets, cached
    header fields, the insert slot the free-slot hint picks."""
    page = page_cls.format(7, PAGE_SIZE, 64)
    naive = naive_cls.format(7, PAGE_SIZE, 64)
    assert _observe(page) == _observe(naive)
    last = last_naive = None
    for op in ops:
        try:
            page, result, last = _page_step(page, op, last)
        except Exception as exc:  # noqa: BLE001
            result = (type(exc), str(exc))
        try:
            naive, naive_result, last_naive = _page_step(naive, op, last_naive)
        except Exception as exc:  # noqa: BLE001
            naive_result = (type(exc), str(exc))
        assert result == naive_result, op
        assert _observe(page) == _observe(naive), op


_INT_VALUES = st.one_of(
    st.integers(-(2**64), 2**64),
    st.floats(),
    st.text(alphabet="-0123456789x", max_size=4),
)

#: ``(column type, strategy of its values)``.
_COLUMN = st.one_of(
    st.tuples(st.builds(Int32), st.just(_INT_VALUES)),
    st.tuples(st.builds(Int64), st.just(_INT_VALUES)),
    st.integers(1, 12).flatmap(lambda width: st.tuples(
        st.just(Char(width)),
        st.just(st.one_of(st.text(max_size=width + 3), st.integers(-999, 99999))),
    )),
    st.integers(0, 12).flatmap(lambda limit: st.tuples(
        st.just(VarChar(limit)),
        st.just(st.one_of(st.binary(max_size=limit + 3), st.text(max_size=limit + 3))),
    )),
)


@settings(max_examples=300, deadline=None)
@given(columns=st.lists(_COLUMN, min_size=1, max_size=7), data=st.data())
def test_schema_matches_naive_schema(columns, data):
    """``pack``/``unpack`` over Int32, Int64, Char and VarChar columns —
    out-of-range and non-int numbers, over-long strings, wrong arity —
    return or raise exactly what the per-column codecs did."""
    spec = [Column(f"c{i}", column_type) for i, (column_type, __) in enumerate(columns)]
    schema, naive = Schema(spec), _NaiveSchema(spec)
    assert schema.fixed_size == naive.fixed_size
    values = [data.draw(strategy) for __, strategy in columns]
    arity = data.draw(st.sampled_from([0, 0, 0, 1, -1]))
    values = values + [0] if arity > 0 else values[: len(values) + arity]
    packed = _outcome(lambda: schema.pack(values))
    assert packed == _outcome(lambda: naive.pack(values))
    if packed[0] == "ok":
        record = packed[1]
        assert type(record) is bytes
        assert schema.unpack(record) == naive.unpack(record)
        for index in range(len(spec)):
            assert _outcome(lambda: schema.var_field_slice(record, index)) == _outcome(
                lambda: naive.var_field_slice(record, index)
            )
