"""Transaction-level load testing: TxnExecutor under the scheduler.

Determinism, backend-independence of the harness, rollback and retry
accounting, the pin-leak quiesce assertion, and the typed buffer-pool
exhaustion error the executor's retry path depends on.
"""

import gc

import pytest

from repro.core.manager import IPAManager
from repro.core.scheme import NxMScheme, SCHEME_OFF
from repro.errors import BufferError_, BufferPoolExhaustedError, ReproError
from repro.hostq import Request, TxnExecutor, TxnLoadTestConfig, run_txn_loadtest
from repro.hostq.txnexec import _TxnCtx
from repro.storage.buffer import BufferPool, Frame
from repro.storage.page_layout import SlottedPage
from repro.session import SessionConfig, open_device


def small_config(**overrides):
    base = dict(
        backend="noftl", clients=4, queue_depth=4, txns=40,
        logical_pages=64, seed=7, profile="tpcb", scheme=NxMScheme(2, 4),
        buffer_fraction=0.5,
    )
    base.update(overrides)
    return TxnLoadTestConfig(**base)


class TestDeterminism:
    @pytest.mark.parametrize("backend", ["noftl", "blockssd", "sharded"])
    def test_same_seed_reports_are_byte_identical(self, backend):
        config = small_config(backend=backend)
        assert run_txn_loadtest(config).report() == run_txn_loadtest(config).report()

    def test_seed_changes_the_run(self):
        one = run_txn_loadtest(small_config(seed=7))
        two = run_txn_loadtest(small_config(seed=8))
        assert one.report() != two.report()

    def test_all_transactions_complete(self):
        result = run_txn_loadtest(small_config())
        assert result.started == 40
        assert result.committed + result.aborted == 40
        assert result.throughput_tps > 0
        assert len(result.samples) == result.committed


class TestOutcomes:
    def test_rollback_fraction_one_aborts_everything(self):
        result = run_txn_loadtest(small_config(rollback=1.0))
        assert result.committed == 0
        assert result.aborted == result.started == 40
        assert result.samples == []

    def test_rollback_fraction_zero_commits_everything(self):
        result = run_txn_loadtest(small_config(rollback=0.0))
        assert result.aborted == 0
        assert result.committed == 40

    def test_scheme_routes_deltas_in_place(self):
        on = run_txn_loadtest(small_config(buffer_fraction=0.1))
        off = run_txn_loadtest(small_config(buffer_fraction=0.1, scheme=SCHEME_OFF))
        assert on.ipa_flushes > 0  # tpcb deltas fit the [2x4] area
        assert off.ipa_flushes == 0
        assert off.oop_flushes > 0

    def test_group_commit_amortizes_forces(self):
        grouped = run_txn_loadtest(small_config(group_commit=8))
        assert grouped.log_forces < grouped.committed
        assert grouped.commits_grouped == grouped.committed - grouped.log_forces

    def test_executor_keeps_no_finished_transaction(self, monkeypatch):
        """After a run, no transaction context (with its undo records and
        page images) or request outlives it while the executor is alive."""
        def live(cls):
            gc.collect()
            return sum(isinstance(obj, cls) for obj in gc.get_objects())

        before = (live(_TxnCtx), live(Request))
        executors = []
        run = TxnExecutor.run

        def keep(executor):
            executors.append(executor)
            return run(executor)

        monkeypatch.setattr(TxnExecutor, "run", keep)
        result = run_txn_loadtest(small_config())
        assert result.committed > 0 and len(executors) == 1
        assert executors[0].scheduler.stats.events > 0  # still referenced
        assert (live(_TxnCtx), live(Request)) == before

    def test_to_dict_round_trips_the_headlines(self):
        result = run_txn_loadtest(small_config())
        data = result.to_dict()
        assert data["committed"] == result.committed
        assert data["scheme"] == "[2x4]"
        assert data["percentiles"]["p99"] == result.percentiles["p99"]


class TestValidation:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ReproError):
            run_txn_loadtest(small_config(profile="nosuch"))

    def test_bad_rollback_rejected(self):
        with pytest.raises(ReproError):
            run_txn_loadtest(small_config(rollback=1.5))

    def test_negative_ops_per_txn_rejected(self):
        # A negative count used to survive as the override and leave the
        # executor waiting forever for a transaction's first operation.
        with pytest.raises(ReproError, match="ops per transaction must be >= 0"):
            small_config(ops_per_txn=-1).validate()

    def test_negative_think_time_rejected(self):
        with pytest.raises(ReproError, match="think time must be >= 0"):
            small_config(think_us=-5.0).validate()

    def test_ops_per_txn_override(self):
        result = run_txn_loadtest(small_config(txns=10, ops_per_txn=9))
        assert result.config.effective_ops_per_txn() == 9
        assert result.committed + result.aborted == 10


class TestBufferPoolGuards:
    def _pool(self, capacity):
        device = open_device(SessionConfig(logical_pages=16))
        for lpn in range(16):
            device.write(
                lpn, bytes(SlottedPage.format(lpn, device.page_size).image), 0.0
            )

        def loader(lpn, now):
            io = device.read(lpn, now)
            return SlottedPage(bytearray(io.data)), 0, io.latency_us

        def flusher(frame, now):
            return 0, device.write(frame.lpn, bytes(frame.page.image), now).latency_us

        return BufferPool(capacity, loader, flusher)

    def test_exhaustion_raises_the_typed_error(self):
        pool = self._pool(capacity=2)
        pool.fetch(0, 0.0)
        pool.fetch(1, 0.0)  # both frames now pinned
        with pytest.raises(BufferPoolExhaustedError) as excinfo:
            pool.fetch(2, 0.0)
        assert excinfo.value.capacity == 2
        assert excinfo.value.pinned == 2
        # The typed error is still a buffer-layer error (retry policy
        # in the executor catches the family, not the leaf).
        assert isinstance(excinfo.value, BufferError_)

    def test_pin_leak_assertion(self):
        pool = self._pool(capacity=4)
        pool.fetch(3, 0.0)
        assert pool.pinned_lpns() == [3]
        with pytest.raises(BufferError_, match="pin leak"):
            pool.assert_no_pins()
        pool.unpin(3, dirty=False)
        pool.assert_no_pins()


class TestPlanFlushAdvisory:
    def test_plan_matches_flush_for_delta_and_overflow(self):
        scheme = NxMScheme(2, 4)
        device = open_device(SessionConfig(logical_pages=8))
        manager = IPAManager(device, scheme)
        page = SlottedPage.format(0, device.page_size, scheme.area_size)
        device.write(0, bytes(page.image), 0.0)

        frame = Frame(0, page)
        page.write_bytes(40, b"abc")  # 3-byte change: fits [2x4]
        assert manager.plan_flush(frame) == "ipa"
        __, latency = manager.flush(frame, 0.0)
        assert manager.stats.ipa_flushes == 1
        assert latency > 0

        page.write_bytes(48, bytes(range(1, 65)))  # way past the delta budget
        assert manager.plan_flush(frame) == "oop"
        manager.flush(frame, 0.0)
        assert manager.stats.oop_flushes == 1
