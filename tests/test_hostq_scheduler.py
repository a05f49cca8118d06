"""HostScheduler: event ordering, die overlap, commit gating, determinism."""

import gc

import pytest

import repro.hostq
import repro.storage.program
from repro.flash import CellType, FlashGeometry, FlashMemory
from repro.ftl import IPAMode, single_region_device
from repro.hostq import (
    GroupCommitGate,
    HostScheduler,
    OpKind,
    Request,
    SubmissionQueue,
)
from repro.workloads import PROFILES, ClientSession

PAGE_SIZE = 256
PAGES = 32


def make_device(chips=4):
    geometry = FlashGeometry(
        chips=chips, blocks_per_chip=16, pages_per_block=8,
        page_size=PAGE_SIZE, oob_size=32, cell_type=CellType.SLC,
    )
    return single_region_device(
        FlashMemory(geometry), logical_pages=PAGES, ipa_mode=IPAMode.NATIVE,
    )


def prefill(device):
    for lpn in range(PAGES):
        device.write(lpn, bytes([lpn % 251]) * PAGE_SIZE, 0.0)
    return max(device.occupancy())


def read_executor(device):
    return lambda request, now: device.read(request.lpn, now).latency_us


def submit_reads(scheduler, lpns, at):
    for seq, lpn in enumerate(lpns, start=1):
        request = Request(seq=seq, client=0, kind=OpKind.READ, lpn=lpn)
        scheduler.schedule(at, lambda now, r=request: scheduler.submit(r, now))


def run_reads(lpns, queue_depth, chips=4):
    """``(scheduler, makespan, completed requests in completion order)``."""
    device = make_device(chips)
    t0 = prefill(device)
    completed = []
    scheduler = HostScheduler(
        device, SubmissionQueue(queue_depth), read_executor(device),
        on_complete=lambda request, now: completed.append(request),
    )
    submit_reads(scheduler, lpns, t0)
    end = scheduler.run()
    return scheduler, end - t0, completed


def test_independent_dies_overlap():
    """Reads hitting different chips run concurrently: the makespan is
    far below the sum of individual latencies."""
    device = make_device()
    prefill(device)
    # Pick four pages on four distinct chips.
    by_chip = {}
    for lpn in range(PAGES):
        by_chip.setdefault(device.channel_of(lpn, "read"), lpn)
    lpns = list(by_chip.values())
    assert len(lpns) == 4
    __, makespan, completed = run_reads(lpns, queue_depth=8)
    latencies = [request.latency_us for request in completed]
    assert makespan < 0.5 * sum(latencies)
    assert makespan == pytest.approx(max(latencies))


def test_queue_depth_one_serializes():
    """With depth 1 nothing overlaps — the makespan is the latency sum,
    even across independent dies."""
    device = make_device()
    prefill(device)
    by_chip = {}
    for lpn in range(PAGES):
        by_chip.setdefault(device.channel_of(lpn, "read"), lpn)
    lpns = list(by_chip.values())
    __, makespan, completed = run_reads(lpns, queue_depth=1)
    service_times = [
        request.completed_us - request.dispatched_us
        for request in completed
    ]
    assert makespan == pytest.approx(sum(service_times))
    # End-to-end latency still includes the blocked-admission wait: the
    # last request's latency spans the whole run.
    assert completed[-1].latency_us == pytest.approx(makespan)


def test_same_page_requests_never_reorder():
    scheduler, __, completed = run_reads([3, 3, 3], queue_depth=8)
    completions = [request.seq for request in completed]
    assert completions == [1, 2, 3]
    assert scheduler.queue.stats.holb_bypasses == 0


def test_commits_flow_through_the_gate():
    device = make_device()
    t0 = prefill(device)
    gate = GroupCommitGate(force_latency_us=40.0, max_group=8)
    scheduler = HostScheduler(
        device, SubmissionQueue(8), read_executor(device), gate=gate
    )
    commits = [
        Request(seq=seq, client=0, kind=OpKind.COMMIT) for seq in (1, 2, 3)
    ]
    for request in commits:
        scheduler.schedule(t0, lambda now, r=request: scheduler.submit(r, now))
    scheduler.run()
    # Leader pays a full force; both joiners batch into the second one.
    assert commits[0].completed_us == pytest.approx(t0 + 40.0)
    assert commits[1].completed_us == pytest.approx(t0 + 80.0)
    assert commits[2].completed_us == pytest.approx(t0 + 80.0)
    assert gate.stats.forces == 2


def test_commit_without_gate_completes_instantly():
    device = make_device()
    t0 = prefill(device)
    scheduler = HostScheduler(device, SubmissionQueue(8), read_executor(device))
    request = Request(seq=1, client=0, kind=OpKind.COMMIT)
    scheduler.schedule(t0, lambda now: scheduler.submit(request, now))
    scheduler.run()
    assert request.latency_us == 0.0


def test_rejected_requests_surface_via_on_complete():
    device = make_device()
    t0 = prefill(device)
    seen = []
    scheduler = HostScheduler(
        device,
        SubmissionQueue(1, policy="reject"),
        read_executor(device),
        on_complete=lambda request, now: seen.append(request),
    )
    submit_reads(scheduler, [0, 1, 2], t0)
    scheduler.run()
    assert len([request for request in seen if request.rejected]) == 2
    assert len([request for request in seen if not request.rejected]) == 1
    assert len(seen) == 3


def test_event_order_is_deterministic():
    """Two identical runs replay the same event sequence: identical
    completion orders and timestamps."""
    def trace():
        __, __, completed = run_reads([5, 9, 1, 9, 5, 2, 7], queue_depth=4)
        return [
            (request.seq, request.dispatched_us, request.completed_us)
            for request in completed
        ]

    assert trace() == trace()


def test_poll_wakes_dispatch_when_all_dies_busy():
    """More requests than dies: the scheduler must wake itself at the
    earliest channel-free time instead of stalling."""
    scheduler, __, completed = run_reads(list(range(16)), queue_depth=16, chips=2)
    assert len(completed) == 16
    assert scheduler.stats.polls > 0


def _live_requests() -> int:
    gc.collect()
    return sum(isinstance(obj, Request) for obj in gc.get_objects())


def test_scheduler_keeps_no_finished_request():
    """Counts, not requests: once ``on_complete`` has seen a request
    (completed or rejected), the scheduler holds no reference to it."""
    before = _live_requests()
    device = make_device()
    t0 = prefill(device)
    seen = []
    scheduler = HostScheduler(
        device, SubmissionQueue(2, policy="reject"), read_executor(device),
        gate=GroupCommitGate(force_latency_us=40.0),
        on_complete=lambda request, now: seen.append(request.rejected),
    )
    submit_reads(scheduler, list(range(12)), t0)
    for seq in (20, 21, 22):
        commit = Request(seq=seq, client=1, kind=OpKind.COMMIT)
        scheduler.schedule(t0, lambda now, r=commit: scheduler.submit(r, now))
    del commit
    scheduler.run()
    assert len(seen) == 15 and any(seen)
    assert _live_requests() == before
    assert scheduler.stats.events > 0  # still referenced here


def test_request_has_no_undeclared_attributes():
    request = Request(seq=1, client=0, kind=OpKind.READ, lpn=3)
    with pytest.raises(AttributeError):
        request.payload = b"x"


# ----------------------------------------------------------------------
# One name per I/O kind: no translation table between the layers
# ----------------------------------------------------------------------

def test_hostq_and_storage_share_one_kind_enum():
    assert repro.hostq.OpKind is repro.storage.program.OpKind
    assert [kind.value for kind in OpKind] == ["read", "write", "delta", "commit"]


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_session_op_strings_are_opkind_values(profile):
    session = ClientSession(PROFILES[profile], 64, seed=3)
    kinds = {OpKind(session.next_op()[0]) for _ in range(400)}
    assert OpKind.READ in kinds and OpKind.DELTA in kinds


def test_channel_of_ops_are_opkind_values():
    device = make_device()
    prefill(device)
    ops: list[str] = []
    channel_of = device.channel_of
    device.channel_of = lambda lpn, op="read": ops.append(op) or channel_of(lpn, op)
    queue = SubmissionQueue(depth=4)
    scheduler = HostScheduler(device, queue, lambda request, now: 10.0)
    for seq, kind in enumerate(OpKind, start=1):
        request = Request(seq=seq, client=0, kind=kind, lpn=seq)
        scheduler.schedule(0.0, lambda now, r=request: scheduler.submit(r, now))
    scheduler.run()
    # Commits go to the gate, never to a channel.
    assert {OpKind(op) for op in ops} == {OpKind.READ, OpKind.WRITE, OpKind.DELTA}

