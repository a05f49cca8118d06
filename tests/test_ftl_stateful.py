"""Model-based stateful tests of the NoFTL device (DESIGN.md invariant 4).

Random interleavings of writes, delta appends, and trims against a
plain-dict model of the logical address space: whatever the garbage
collector does underneath, every mapped page must read back exactly as
the model says, and erase counts must only ever grow.  The flat
:class:`PageMapping` underneath runs against a reference model of its
own, built on :class:`PhysicalAddress` values.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro.errors import DeltaWriteError, MappingError
from repro.flash import FlashGeometry, FlashMemory, PhysicalAddress
from repro.ftl import BlockKey, IPAMode, PageMapping, single_region_device

PAGE = 256
TAIL = 64  # erased delta tail
LOGICAL = 24


class DeviceMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        geometry = FlashGeometry(
            chips=2, blocks_per_chip=12, pages_per_block=8,
            page_size=PAGE, oob_size=32,
        )
        self.device = single_region_device(
            FlashMemory(geometry), logical_pages=LOGICAL,
            ipa_mode=IPAMode.NATIVE,
        )
        self.model: dict[int, bytearray] = {}
        #: Bytes already appended into each page's tail.
        self.tail_used: dict[int, int] = {}
        self.erases_seen = 0

    @rule(lpn=st.integers(0, LOGICAL - 1), fill=st.integers(0, 255))
    def write(self, lpn, fill):
        image = bytes([fill]) * (PAGE - TAIL) + b"\xff" * TAIL
        self.device.write(lpn, image)
        self.model[lpn] = bytearray(image)
        self.tail_used[lpn] = 0

    @rule(lpn=st.integers(0, LOGICAL - 1), payload=st.binary(min_size=1, max_size=8))
    def append(self, lpn, payload):
        if lpn not in self.model:
            return
        used = self.tail_used[lpn]
        if used + len(payload) > TAIL:
            return
        offset = PAGE - TAIL + used
        try:
            self.device.write_delta(lpn, offset, payload)
        except DeltaWriteError:
            return
        self.model[lpn][offset : offset + len(payload)] = bytes(
            b & 0xFF for b in payload
        )
        self.tail_used[lpn] = used + len(payload)

    @rule(lpn=st.integers(0, LOGICAL - 1))
    def trim(self, lpn):
        if lpn not in self.model:
            return
        self.device.trim(lpn)
        del self.model[lpn]
        del self.tail_used[lpn]

    @invariant()
    def reads_match_model(self):
        if not hasattr(self, "model"):
            return
        for lpn, expected in self.model.items():
            assert self.device.read(lpn).data == bytes(expected), lpn

    @invariant()
    def erase_counts_only_grow(self):
        if not hasattr(self, "device"):
            return
        total = self.device.flash.total_erases()
        assert total >= self.erases_seen
        self.erases_seen = total

    @invariant()
    def mapping_is_injective(self):
        """No two logical pages share a physical page."""
        if not hasattr(self, "model"):
            return
        homes = [self.device.physical_address(lpn) for lpn in self.model]
        assert len(homes) == len(set(homes))


DeviceMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=40, deadline=None,
)
TestDeviceStateful = DeviceMachine.TestCase


# ----------------------------------------------------------------------
# The flat PageMapping against a plain reference model
# ----------------------------------------------------------------------

MAP_GEOMETRY = FlashGeometry(
    chips=2, blocks_per_chip=3, pages_per_block=4, page_size=64, oob_size=8,
)
MAP_LPNS = 16
MAP_BLOCKS = [
    (chip, block)
    for chip in range(MAP_GEOMETRY.chips)
    for block in range(MAP_GEOMETRY.blocks_per_chip)
]


class MappingMachine(RuleBasedStateMachine):
    """``PageMapping`` vs a dict of lpn -> address with per-block valid sets.

    Binds only target pages no logical page lives on, as the allocator
    guarantees; everything else is free to interleave.
    """

    @initialize()
    def setup(self):
        self.mapping = PageMapping(MAP_GEOMETRY)
        self.homes: dict[int, PhysicalAddress] = {}
        self.valid: dict[BlockKey, set[PhysicalAddress]] = {key: set() for key in MAP_BLOCKS}

    def _ppn(self, address: PhysicalAddress) -> int:
        return MAP_GEOMETRY.ppn(address)

    @rule(lpn=st.integers(0, MAP_LPNS - 1), pick=st.integers(0, MAP_GEOMETRY.total_pages))
    def bind(self, lpn, pick):
        live = set(self.homes.values())
        free = [
            address for address in map(MAP_GEOMETRY.address, range(MAP_GEOMETRY.total_pages))
            if address not in live
        ]
        target = free[pick % len(free)]
        old = self.homes.get(lpn)
        returned = self.mapping.bind(lpn, self._ppn(target))
        assert returned == (None if old is None else self._ppn(old))
        if old is not None:
            self.valid[(old.chip, old.block)].discard(old)
        self.homes[lpn] = target
        self.valid[(target.chip, target.block)].add(target)

    @rule(lpn=st.integers(0, MAP_LPNS - 1))
    def unbind(self, lpn):
        old = self.homes.pop(lpn, None)
        returned = self.mapping.unbind(lpn)
        assert returned == (None if old is None else self._ppn(old))
        if old is not None:
            self.valid[(old.chip, old.block)].discard(old)

    @invariant()
    def forward_map_matches(self):
        if not hasattr(self, "mapping"):
            return
        assert len(self.mapping) == len(self.homes)
        for lpn in range(MAP_LPNS):
            if lpn in self.homes:
                assert lpn in self.mapping
                assert MAP_GEOMETRY.address(self.mapping.lookup(lpn)) == self.homes[lpn]
                assert self.mapping.chip_of(lpn) == self.homes[lpn].chip
            else:
                assert lpn not in self.mapping
                assert self.mapping.chip_of(lpn) is None
                with pytest.raises(MappingError):
                    self.mapping.lookup(lpn)

    @invariant()
    def reverse_map_matches(self):
        if not hasattr(self, "mapping"):
            return
        owner = {address: lpn for lpn, address in self.homes.items()}
        for ppn in range(MAP_GEOMETRY.total_pages):
            assert self.mapping.reverse(ppn) == owner.get(MAP_GEOMETRY.address(ppn))

    @invariant()
    def blocks_match(self):
        if not hasattr(self, "mapping"):
            return
        owner = {address: lpn for lpn, address in self.homes.items()}
        for key in MAP_BLOCKS:
            live = sorted(self.valid[key], key=lambda address: address.page)
            assert self.mapping.valid_count(key) == len(live)
            assert self.mapping.valid_pages_in_block(key) == [
                (owner[address], self._ppn(address)) for address in live
            ]
            if live:
                with pytest.raises(MappingError):
                    self.mapping.block_emptied(key)
            else:
                self.mapping.block_emptied(key)


MappingMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=50, deadline=None,
)
TestMappingStateful = MappingMachine.TestCase


def test_valid_count_underflow_raises():
    """The counts always equal the live pages through the public API, so
    the safety check is reached only by corrupting one (white-box)."""
    mapping = PageMapping(MAP_GEOMETRY)
    mapping.bind(0, MAP_GEOMETRY.ppn(PhysicalAddress(1, 2, 3)))
    mapping._valid[1 * MAP_GEOMETRY.blocks_per_chip + 2] = 0
    with pytest.raises(MappingError, match=r"underflow on block \(1, 2\)"):
        mapping.unbind(0)
