"""The IPA manager: page materialization policy (paper Section 6.2).

This is the component that replaces the storage manager's write path:

* **Load** — read the raw flash image of a page, decode the programmed
  delta records from its tail, apply them in forward order, and hand
  the storage layer an up-to-date page plus the count of used slots
  (the paper's :math:`N_E`).
* **Flush** — classify the page's tracked byte changes into body and
  metadata, check the [N x M] budget against the remaining slots, and
  either encode delta records and issue one ``write_delta``, or fall
  back to a conventional out-of-place page write (resetting the delta
  area so the new flash home starts with all slots erased).

The manager is deliberately storage-agnostic: it works on any "frame"
object exposing ``lpn``, ``slots_used`` and a ``page`` with the
:class:`~repro.storage.page_layout.SlottedPage` tracking surface, so
tests can drive it with lightweight stand-ins.  A page gives up on
appending in exactly one way, ``page.track_overflowed`` — the paper's
one rule, "overflow falls back to a normal out-of-place write".
"""

from __future__ import annotations

from typing import Callable

from ..errors import DeltaWriteError, IPAError
from ..flash.ecc import CODE_SIZE, EccSegment, SegmentedEcc
from ..ftl.device import FlashDevice
from . import delta
from .scheme import NxMScheme, SCHEME_OFF
from .stats import IPAStats

#: Observer of flush decisions, for workload analysis:
#: (lpn, kind, net_body_bytes, gross_bytes, overflowed)
FlushObserver = Callable[[int, str, int, int, bool], None]

#: OOB commit mark: programmed over an erased (0xFF) mark byte after a
#: delta record's data lands.  Any value with cleared bits works — a
#: torn mark program still clears *some* bit, so "mark != 0xFF" is the
#: commit test and it tolerates partial programming of the mark itself.
_MARK_BYTE = 0xA5


class IPAManager:
    """Decides, per flush, between In-Place Append and out-of-place write."""

    def __init__(
        self,
        device: FlashDevice,
        scheme: NxMScheme = SCHEME_OFF,
        ecc_enabled: bool = False,
        flush_observer: FlushObserver | None = None,
        page_checksum: bool = False,
        telemetry=None,
    ) -> None:
        self.device = device
        self.scheme = scheme
        self.ecc_enabled = ecc_enabled
        self.flush_observer = flush_observer
        #: InnoDB-style FIL checksum: stamp the page checksum on every
        #: flush (a tracked ~4-byte metadata change) and verify on load.
        self.page_checksum = page_checksum
        self.stats = IPAStats()
        #: Telemetry handle (``repro.telemetry.Telemetry``); ``None``
        #: keeps the flush path free of any event work.
        self.telemetry = telemetry
        if scheme.enabled:
            reserved = CODE_SIZE * (1 + scheme.n) if ecc_enabled else 0
            if reserved + scheme.n > device.oob_size:
                raise IPAError(
                    f"scheme {scheme} needs {scheme.n} OOB commit-mark bytes "
                    f"(+{reserved} ECC bytes) but the device OOB holds only "
                    f"{device.oob_size}"
                )
        self._ecc = self._build_ecc() if ecc_enabled else None

    def _build_ecc(self) -> SegmentedEcc:
        page_size = self.device.page_size
        scheme = self.scheme
        if not scheme.enabled:
            segments = [EccSegment(0, page_size)]
        else:
            segments = [EccSegment(0, scheme.area_offset(page_size))]
            for index in range(scheme.n):
                segments.append(
                    EccSegment(scheme.slot_offset(index, page_size), scheme.record_size)
                )
        return SegmentedEcc(segments, self.device.oob_size)

    # ------------------------------------------------------------------
    # Load path
    # ------------------------------------------------------------------

    def load(self, lpn: int, now: float = 0.0) -> tuple[bytearray, int, float]:
        """Fetch a page: read raw image, verify ECC, apply delta records.

        Returns ``(up_to_date_image, slots_used, read_latency_us)``.
        The image's delta area is reset to the erased state: in the
        buffer it is scratch space, not content.

        Only slots covered by an OOB commit mark are decoded: a slot
        whose data landed but whose mark program never completed was
        torn by a power failure, and the write-data-then-mark ordering
        guarantees any marked slot's data is complete.  Erased slots
        *inside* the marked range are absorption gaps (a black-box
        device folded them into the body) and are skipped.

        Pages from non-IPA regions reserve no delta area (selective
        placement); their header says so and decoding is skipped.
        (Limitation: with ECC enabled in a mixed-region configuration,
        such pages are only covered by the body segment.)
        """
        from ..storage.page_layout import delta_area_size_of

        io = self.device.read(lpn, now)
        image = bytearray(io.data)
        has_area = delta_area_size_of(image) == self.scheme.area_size > 0
        oob: bytes | None = None
        marked: int | None = None
        if has_area:
            oob = self.device.read_oob(lpn)
            marked = self._count_marked(oob)
        if self._ecc is not None:
            used = 0
            if has_area:
                __, used = delta.decode_area(
                    self.scheme, image, len(image), max_slots=marked
                )
            if oob is None:
                oob = self.device.read_oob(lpn)
            self.stats.ecc_corrected_bits += self._ecc.verify(image, oob, 1 + used)
        slots_used = 0
        if has_area:
            pairs, slots_used = delta.decode_area(
                self.scheme, image, len(image), max_slots=marked
            )
            delta.apply_pairs(image, pairs)
            area = self.scheme.area_offset(len(image))
            image[area:] = b"\xff" * self.scheme.area_size
        return image, slots_used, io.latency_us

    def _count_marked(self, oob: bytes) -> int:
        """Number of committed slots: leading non-erased commit marks."""
        base = len(oob) - self.scheme.n
        marked = 0
        for index in range(self.scheme.n):
            if oob[base + index] == 0xFF:
                break
            marked += 1
        return marked

    # ------------------------------------------------------------------
    # Flush path
    # ------------------------------------------------------------------

    def _classify(self, frame, stamp_checksum: bool):
        """The one flush decision: ``(kind, mapped, body, meta)``.

        ``kind`` is ``"skip"`` (nothing changed relative to the flash
        image), ``"ipa"`` (eligible and within the [N x M] budget) or
        ``"oop"``.  ``body``/``meta`` are the classified tracked offsets
        of an IPA-eligible page and ``None`` otherwise — so an ``"oop"``
        that carries them is a budget overflow.  ``stamp_checksum`` is
        the only side effect, reserved for :meth:`flush`: the checksum
        stamp is itself a tracked change, so it has to land between the
        skip test and the budget test.
        """
        page = frame.page
        mapped = self.device.is_mapped(frame.lpn)
        if mapped and not page.tracked and not page.track_overflowed:
            return "skip", mapped, None, None
        if stamp_checksum and self.page_checksum and hasattr(page, "update_checksum"):
            page.update_checksum()
        if (
            mapped
            and page.delta_area_size == self.scheme.area_size > 0
            and not page.track_overflowed
        ):
            body, meta = page.classify_tracked()
            fits = self.scheme.fits(len(body), len(meta), frame.slots_used)
            return ("ipa" if fits else "oop"), mapped, body, meta
        return "oop", mapped, None, None

    def plan_flush(self, frame) -> str:
        """Advisory flush classification: ``"skip"``, ``"ipa"`` or ``"oop"``.

        :meth:`flush`'s own decision, without device I/O or frame
        mutation, so a scheduler can label a queued write-back command.
        Advisory only: it runs before checksum stamping and never
        attempts the append, so the device may still force an
        out-of-place fallback at execution time.
        """
        return self._classify(frame, stamp_checksum=False)[0]

    def flush(self, frame, now: float = 0.0) -> tuple[str, float]:
        """Materialize a dirty frame; returns ``(kind, device_latency_us)``.

        ``kind`` is ``"ipa"``, ``"oop"`` or ``"skip"`` (nothing actually
        changed relative to the flash image: no I/O issued).
        """
        kind, mapped, body, meta = self._classify(frame, stamp_checksum=True)
        if kind == "skip":
            self.stats.skipped_flushes += 1
            self._observe(frame.lpn, "skip", 0, 0, False)
            if self.telemetry is not None:
                self.telemetry.on_flush(
                    frame.lpn, "skip", 0, 0, False, False, False,
                    0, frame.slots_used, 0, 0.0,
                )
            return "skip", 0.0
        fallback = False
        if kind == "ipa":
            result = self._flush_ipa(frame, body, meta, now)
            if result is not None:
                return result
            self.stats.device_fallbacks += 1
            fallback = True
        budget_overflow = kind == "oop" and body is not None
        if budget_overflow:
            self.stats.budget_overflows += 1
        return self._flush_oop(
            frame, now, fresh=not mapped,
            fallback=fallback, budget_overflow=budget_overflow,
        )

    def _flush_ipa(self, frame, body: list[int], meta: list[int], now: float):
        page = frame.page
        image = page.image
        body_pairs = [(offset, image[offset]) for offset in body]
        meta_pairs = [(offset, image[offset]) for offset in meta]
        records = delta.split_pairs(self.scheme, body_pairs, meta_pairs)
        offset = self.scheme.slot_offset(frame.slots_used, page.page_size)
        data = b"".join(records)
        try:
            io = self.device.write_delta(frame.lpn, offset, data, now)
        except DeltaWriteError:
            return None
        if self._ecc is not None:
            self._program_delta_ecc(frame, records, data, offset)
        # Commit marks go last: data (and its ECC) first, then the
        # marks, so a marked slot is always complete.  All marks up to
        # the new slot count are re-programmed every time — a black-box
        # device may have silently relocated the page to a fresh erased
        # OOB during an internal read-modify-write, and re-clearing
        # already cleared bits is a legal (no-op) ISPP program
        # otherwise.  The frame's own slot accounting moves only after
        # the marks land: a crash between data and mark must leave the
        # in-memory state agreeing with recovery, which will not see
        # the unmarked slots.
        committed = frame.slots_used + len(records)
        marks = bytes([_MARK_BYTE]) * committed
        self.device.write_oob(
            frame.lpn, marks, self.device.oob_size - self.scheme.n
        )
        frame.slots_used = committed
        net, gross = len(body), len(body) + len(meta)
        page.reset_tracking()
        self.stats.ipa_flushes += 1
        self.stats.delta_records_written += len(records)
        self.stats.delta_bytes_written += len(data)
        self._observe(frame.lpn, "ipa", net, gross, False)
        if self.telemetry is not None:
            self.telemetry.on_flush(
                frame.lpn, "ipa", net, gross, False, False, False,
                len(records), frame.slots_used, len(data), io.latency_us,
            )
        return "ipa", io.latency_us

    def _flush_oop(
        self,
        frame,
        now: float,
        fresh: bool = False,
        fallback: bool = False,
        budget_overflow: bool = False,
    ) -> tuple[str, float]:
        """Conventional out-of-place page write.

        ``fresh`` marks a page's first materialization (an append to a
        new page in the paper's terms); observers report it as kind
        ``"new"`` so update-size statistics can exclude it, as the
        paper's Appendix A does.  ``fallback`` and ``budget_overflow``
        carry the reason an IPA was not possible into telemetry.
        """
        page = frame.page
        body, meta = page.classify_tracked()
        net, gross = len(body), len(body) + len(meta)
        page.reset_delta_area()
        io = self.device.write(frame.lpn, bytes(page.image), now)
        if self._ecc is not None:
            code = self._ecc.encode_segment(0, bytes(page.image))
            self.device.write_oob(frame.lpn, code, self._ecc.oob_offset(0))
        frame.slots_used = 0
        overflowed = page.track_overflowed
        page.reset_tracking()
        self.stats.oop_flushes += 1
        kind = "new" if fresh else "oop"
        self._observe(frame.lpn, kind, net, gross, overflowed)
        if self.telemetry is not None:
            self.telemetry.on_flush(
                frame.lpn, kind, net, gross, overflowed, budget_overflow,
                fallback, 0, 0, 0, io.latency_us,
            )
        return "oop", io.latency_us

    def _program_delta_ecc(self, frame, records: list[bytes], data: bytes, offset: int) -> None:
        """Append one ECC code per freshly written delta record."""
        page_image = bytearray(frame.page.image)
        # Reconstruct the on-flash view of the records for encoding.
        page_image[offset : offset + len(data)] = data
        for index in range(len(records)):
            segment_index = 1 + frame.slots_used + index
            code = self._ecc.encode_segment(segment_index, bytes(page_image))
            self.device.write_oob(
                frame.lpn, code, self._ecc.oob_offset(segment_index)
            )

    def _observe(self, lpn: int, kind: str, net: int, gross: int, overflowed: bool) -> None:
        if self.flush_observer is not None:
            self.flush_observer(lpn, kind, net, gross, overflowed)

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------

    def check_page_compatible(self, delta_area_size: int) -> None:
        """Assert a page's reserved area matches this manager's scheme."""
        if delta_area_size != self.scheme.area_size:
            raise IPAError(
                f"page reserves {delta_area_size}B but scheme {self.scheme} "
                f"needs {self.scheme.area_size}B"
            )


def full_metadata_record_size(scheme: NxMScheme, slot_count: int,
                              header_size: int = 32, slot_size: int = 4) -> int:
    """Delta-record size under the paper's rejected design alternative.

    Section 6.1: "Alternatively, the delta-record may contain the
    complete page metadata."  Such a record carries the M body pairs
    plus a verbatim copy of the header and the slot table, instead of
    byte-granular ``<value, offset>`` pairs.  The paper measured the
    byte-level tracking to shrink the delta area by 49% for a [2x3]
    scheme; the ablation bench reproduces the comparison on our layout.
    """
    from .scheme import PAIR_SIZE

    return 1 + PAIR_SIZE * scheme.m + header_size + slot_size * slot_count
