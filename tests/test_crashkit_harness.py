"""End-to-end crash-matrix tests: crash anywhere, lose nothing committed."""

import pytest

from repro.core import NxMScheme, SCHEME_OFF
from repro.crashkit import CrashMatrixResult, CrashPoint, CrashScheduler, CrashTestHarness
from repro.errors import PowerFailureError
from repro.storage.recovery import RecoveryReport
from repro.session import BACKENDS


def small_harness(backend, scheme=NxMScheme(2, 4), **kwargs):
    kwargs.setdefault("txns", 16)
    kwargs.setdefault("rows", 60)
    return CrashTestHarness(backend=backend, scheme=scheme, **kwargs)


class TestCrashMatrix:
    """The property the whole PR exists for: recovery after a crash at
    any scheduled op-count equals replaying committed transactions only."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scheme", [SCHEME_OFF, NxMScheme(2, 4)],
                             ids=["oop-only", "ipa-2x4"])
    def test_no_committed_data_diverges(self, backend, scheme):
        harness = small_harness(backend, scheme=scheme)
        result = harness.run_matrix(cases=5)
        assert result.total_ops > 0
        assert result.crashes > 0
        for case in result.cases:
            assert case.ok, (
                f"crash at op {case.points[0].at_op} ({case.crash_site}): "
                f"{case.divergences}"
            )

    def test_site_targeted_crash(self):
        harness = small_harness("noftl")
        case = harness.run_case(
            (CrashPoint(at_op=2, sites=("flash.program",)),)
        )
        assert case.crash_site is not None
        assert case.crash_site.startswith("flash.program")
        assert case.ok

    def test_sharded_scoped_sites(self):
        harness = small_harness("sharded", shards=2)
        result = harness.run_matrix(cases=4)
        scoped = [c.crash_site for c in result.cases if c.crash_site]
        assert scoped and all(site.startswith("shard") for site in scoped)
        assert result.ok

    def test_double_crash_hits_recovery_and_still_converges(self):
        harness = small_harness("noftl")
        case = harness.run_case((
            CrashPoint(at_op=10),
            CrashPoint(at_op=1, sites=("recovery.",)),
        ))
        assert case.crash_site is not None
        assert case.recovery_attempts == 2
        assert case.ok

    def test_case_counters(self):
        harness = small_harness("noftl")
        case = harness.run_case((CrashPoint(at_op=5),))
        result = CrashMatrixResult(cases=[case])
        assert result.crashes == 1
        assert result.divergences == 0

    def test_committed_txns_grow_with_later_crashes(self):
        harness = small_harness("noftl")
        early = harness.run_case((CrashPoint(at_op=1),))
        late = harness.run_case((CrashPoint(at_op=harness.probe()),))
        assert early.committed_txns <= late.committed_txns


class TestDetectorSensitivity:
    """The harness only proves anything if its diff actually bites."""

    def test_tampered_committed_row_is_reported(self):
        harness = small_harness("noftl")
        scheduler = CrashScheduler((), seed=harness.seed)
        engine, table = harness._build(scheduler)
        txn_ids = {}
        harness._run_script(engine, table, txn_ids)
        # Corrupt one committed row behind the log's back (txn 0 writes
        # are excluded from recovery analysis, mimicking silent loss).
        rid = table.lookup(0)
        table.update(None, rid, {"v": -999})
        case_like = harness.run_case(())  # sanity: clean run is clean
        assert case_like.ok
        from repro.crashkit.harness import CrashCase

        case = CrashCase(points=())
        scheduler.disarm()
        harness._verify(engine, table, txn_ids, case)
        assert any("diverged" in d for d in case.divergences)

    def test_disabled_recovery_is_caught(self, monkeypatch):
        harness = small_harness("noftl")
        monkeypatch.setattr(
            "repro.crashkit.harness.recover",
            lambda engine: RecoveryReport(),
        )
        total = harness.probe()
        divergences = 0
        for at_op in range(total // 2, total + 1, max(1, total // 8)):
            case = harness.run_case((CrashPoint(at_op=at_op),))
            divergences += len(case.divergences)
        assert divergences > 0


class TestBlockSSDRmwWindow:
    def test_crash_inside_silent_rmw(self):
        from repro.flash import CellType, FlashGeometry, FlashMemory
        from repro.ftl import BlockSSD, IPAMode

        device = BlockSSD(
            FlashMemory(FlashGeometry(
                chips=2, blocks_per_chip=6, pages_per_block=8, page_size=512,
                cell_type=CellType.MLC,
            )),
            capacity_pages=32, ipa_mode=IPAMode.ODD_MLC,
        )
        sched = CrashScheduler([CrashPoint(at_op=1, sites=("blockssd.rmw",))])
        device.bind_crashkit(sched)
        image = bytes(512)
        device.write(0, image)
        # Drive delta commands until the device has to absorb one as an
        # internal read-modify-write (even-page homes cannot append).
        fired = False
        delta = b"\x01\x00\x10"
        for _ in range(8):
            try:
                device.write_delta(0, 480, delta)
            except PowerFailureError:
                fired = True
                break
        assert fired, "no delta command was absorbed via RMW"
        assert sched.fired[0].site == "blockssd.rmw"
