"""GroupCommitGate: leader election, batching, force chaining."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.hostq import GroupCommitGate, OpKind, Request
from repro.storage.wal import LogManager


def commit(seq):
    return Request(seq=seq, client=0, kind=OpKind.COMMIT)


def test_first_commit_leads_and_pays_the_force():
    gate = GroupCommitGate(force_latency_us=50.0, max_group=4)
    leader = commit(1)
    assert gate.submit(leader, 100.0) == 150.0
    assert gate.force_in_flight
    done, next_at = gate.force_done(150.0)
    assert done == [leader]
    assert next_at is None
    assert gate.stats.forces == 1


def test_joiners_batch_into_the_next_force():
    gate = GroupCommitGate(force_latency_us=50.0, max_group=4)
    leader = commit(1)
    gate.submit(leader, 0.0)
    joiners = [commit(seq) for seq in (2, 3, 4)]
    for joiner in joiners:
        # A force is running: joiners schedule nothing themselves.
        assert gate.submit(joiner, 10.0) is None
    done, next_at = gate.force_done(50.0)
    assert done == [leader]
    # The next force starts immediately and carries all three joiners.
    assert next_at == 100.0
    done, next_at = gate.force_done(100.0)
    assert [request.seq for request in done] == [2, 3, 4]
    assert next_at is None
    assert gate.stats.forces == 2
    assert gate.stats.max_batch == 3
    assert gate.stats.commits_per_force == 2.0


def test_max_group_caps_one_force():
    gate = GroupCommitGate(force_latency_us=10.0, max_group=2)
    gate.submit(commit(1), 0.0)
    for seq in (2, 3, 4, 5):
        gate.submit(commit(seq), 0.0)
    gate.force_done(10.0)                      # retires the leader
    done, next_at = gate.force_done(20.0)      # first capped batch
    assert len(done) == 2
    assert next_at == 30.0
    done, next_at = gate.force_done(30.0)      # remaining two
    assert len(done) == 2
    assert next_at is None
    assert gate.stats.max_batch == 2


def test_force_done_without_force_raises():
    gate = GroupCommitGate()
    with pytest.raises(RuntimeError):
        gate.force_done(0.0)


def test_outstanding_tracks_queue_and_batch():
    gate = GroupCommitGate(max_group=8)
    gate.submit(commit(1), 0.0)
    gate.submit(commit(2), 0.0)
    assert gate.outstanding == 2
    gate.force_done(50.0)
    assert gate.outstanding == 1


def test_bad_max_group_raises():
    with pytest.raises(ValueError):
        GroupCommitGate(max_group=0)


# ---------------------------------------------------------------------------
# Property: the event-driven gate and LogManager's amortized force path
# are two scheduling disciplines over ONE group-commit accounting.
# ---------------------------------------------------------------------------


def _drain(gate, done_at):
    """Run the gate's force chain to completion from the leader's force."""
    while done_at is not None:
        __, done_at = gate.force_done(done_at)


@settings(deadline=None, max_examples=80)
@given(
    commits=st.integers(min_value=1, max_value=64),
    max_group=st.integers(min_value=1, max_value=8),
)
def test_gate_and_amortized_log_share_one_force_accounting(commits, max_group):
    # Discipline A: the event-driven gate, bound to an engine log.  Every
    # physical force the gate performs is charged to the log via
    # note_force(batch), so the log's counters ARE the gate's counters.
    log = LogManager(group_commit=max_group)
    gate = GroupCommitGate(max_group=max_group, log=log)
    leader_done = gate.submit(
        Request(seq=1, client=0, kind=OpKind.COMMIT), 0.0
    )
    for seq in range(2, commits + 1):
        joined = gate.submit(Request(seq=seq, client=0, kind=OpKind.COMMIT), 0.0)
        assert joined is None  # a force is in flight: joiners batch
    _drain(gate, leader_done)

    assert gate.stats.commits == commits
    assert log.forces == gate.stats.forces
    # Surplus commits per force are the grouped ones — same identity the
    # amortized path maintains commit by commit.
    assert log.commits_grouped == commits - gate.stats.forces

    # Discipline B: the synchronous amortized path (force per commit,
    # buffered up to the group size, straggler flushed at the end).
    amortized = LogManager(group_commit=max_group)
    for __ in range(commits):
        amortized.force()
    amortized.flush_group()
    assert amortized.forces == math.ceil(commits / max_group)

    # Both disciplines amortize identically up to the gate's leader
    # (which forces alone by design): never more than one force apart.
    assert abs(gate.stats.forces - amortized.forces) <= 1
