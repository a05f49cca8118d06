#!/usr/bin/env python3
"""Correct-and-Refresh: ISPP reprogramming against retention errors.

The physical trick IPA relies on — reprogramming already-written cells
with ISPP — was first used by Cai et al.'s "Correct-and-Refresh"
(paper Section 2.3) to heal *retention errors*: charge leaks away over
time, flipping programmed 0-bits back towards 1.  Because the healed
value only ever *adds* charge, the refresh needs no erase.

This example ages a flash block under an aggressive retention model,
shows ECC catching and correcting the drifted bits, and then refreshes
the pages in place — demonstrating on the simulator exactly the cell
physics that makes ``write_delta`` legal.

Run:  python examples/correct_and_refresh.py
"""

from repro.flash import (
    EccSegment,
    FaultInjector,
    FlashGeometry,
    FlashMemory,
    PhysicalAddress,
    SegmentedEcc,
)


def main():
    geometry = FlashGeometry(
        chips=1, blocks_per_chip=4, pages_per_block=8, page_size=512, oob_size=64,
    )
    injector = FaultInjector(retention_rate=0.0002, seed=5)
    memory = FlashMemory(geometry, fault_injector=injector)
    ecc = SegmentedEcc([EccSegment(0, 512)], oob_size=64)

    # Program a block of pages and store their ECC codes in the OOB.
    payloads = {}
    for index in range(8):
        address = geometry.ppn(PhysicalAddress(0, 0, index))
        payload = bytes((index * 37 + i * 11) % 251 for i in range(512))
        payloads[address] = payload
        memory.program(address, payload)
        memory.program_oob(address, ecc.encode_segment(0, payload))

    # The refresh must run *periodically*: a single-error-correcting
    # code heals one drifted bit per page, so waiting until two bits
    # leak in the same page would be fatal.  Each round below is one
    # retention interval followed by a scrub pass.
    corrected_total = 0
    refreshed = 0
    for interval in range(1, 4):
        flips = memory.age()
        print(f"retention interval {interval}: {flips} bit(s) drifted")
        for index in range(8):
            address = geometry.ppn(PhysicalAddress(0, 0, index))
            image = bytearray(memory.read(address).data)
            oob = memory.read_oob(address)
            corrected = ecc.verify(image, oob, programmed_segments=1)
            corrected_total += corrected
            assert bytes(image) == payloads[address], "ECC must restore the data"
            if corrected:
                # Correct-and-Refresh: reprogram the corrected image in
                # place.  Only 1 -> 0 transitions are needed (charge
                # was lost, the refresh restores it), so no erase
                # happens.
                memory.program(address, bytes(image))
                refreshed += 1

    print(f"\nECC corrected {corrected_total} bit(s) across all scrub passes; "
          f"{refreshed} page refresh(es) in place")
    print(f"block erases performed: "
          f"{memory.chips[0].blocks[0].erase_count} (none needed)")
    print(f"reprogram operations (ISPP appends): {memory.stats.delta_programs}")

    # After the refresh every page reads back clean again.
    for address, payload in payloads.items():
        assert memory.read(address).data == payload
    print("all pages read back clean after the in-place refresh")


if __name__ == "__main__":
    main()
