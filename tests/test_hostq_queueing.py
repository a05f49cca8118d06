"""SubmissionQueue semantics: depth bound, admission, dispatch order."""

import pytest

from repro.hostq import OpKind, Request, SubmissionQueue


def req(seq, lpn=0, kind=OpKind.READ):
    return Request(seq=seq, client=0, kind=kind, lpn=lpn)


def hint_table(mapping):
    """A channel_hint callable backed by a plain lpn->channel dict."""
    return lambda request: mapping.get(request.lpn)


class TestAdmission:
    def test_depth_counts_pending_plus_inflight(self):
        queue = SubmissionQueue(2)
        assert queue.admit(req(1, lpn=1)) == "admitted"
        assert queue.admit(req(2, lpn=2)) == "admitted"
        assert queue.depth_used == 2
        # Dispatching does not free depth: the request is in flight.
        picked = queue.pick(0.0, (0.0, 0.0), hint_table({1: 0, 2: 1}))
        assert picked.seq == 1
        assert queue.depth_used == 2
        assert queue.admit(req(3, lpn=3)) == "blocked"

    def test_reject_policy_refuses_and_marks(self):
        queue = SubmissionQueue(1, policy="reject")
        assert queue.admit(req(1)) == "admitted"
        overflow = req(2)
        assert queue.admit(overflow) == "rejected"
        assert overflow.rejected
        assert queue.stats.rejected == 1

    def test_blocked_request_keeps_arrival_time(self):
        queue = SubmissionQueue(1)
        first = req(1, lpn=1)
        first.arrival_us = 10.0
        queue.admit(first)
        waiter = req(2, lpn=2)
        waiter.arrival_us = 20.0
        assert queue.admit(waiter) == "blocked"
        queue.pick(0.0, (0.0,), hint_table({1: 0}))
        queue.complete(first)
        # The completion admitted the waiter: it is the next dispatch.
        assert queue.pick(0.0, (0.0,), hint_table({2: 0})) is waiter
        # The wait behind backpressure stays inside the latency metric.
        assert waiter.arrival_us == 20.0

    def test_bad_parameters_raise(self):
        with pytest.raises(ValueError):
            SubmissionQueue(0)
        with pytest.raises(ValueError):
            SubmissionQueue(1, policy="drop")


class TestDispatch:
    def test_fifo_when_all_channels_free(self):
        queue = SubmissionQueue(4)
        for seq, lpn in ((1, 1), (2, 2), (3, 3)):
            queue.admit(req(seq, lpn=lpn))
        hints = hint_table({1: 0, 2: 1, 3: 0})
        assert queue.pick(0.0, (0.0, 0.0), hints).seq == 1
        assert queue.stats.holb_bypasses == 0

    def test_head_of_line_bypass_on_busy_channel(self):
        queue = SubmissionQueue(4)
        queue.admit(req(1, lpn=1))
        queue.admit(req(2, lpn=2))
        hints = hint_table({1: 0, 2: 1})
        # Channel 0 busy until t=100: request 2 overtakes request 1.
        picked = queue.pick(0.0, (100.0, 0.0), hints)
        assert picked.seq == 2
        assert queue.stats.holb_bypasses == 1
        assert queue.pick(0.0, (100.0, 0.0), hints) is None

    def test_per_lpn_conflict_blocks_reordering(self):
        queue = SubmissionQueue(4)
        queue.admit(req(1, lpn=5))
        queue.admit(req(2, lpn=5))
        hints = hint_table({5: 0})
        first = queue.pick(0.0, (0.0,), hints)
        assert first.seq == 1
        # Same page in flight: the second request must wait.
        assert queue.pick(0.0, (0.0,), hints) is None
        queue.complete(first)
        assert queue.pick(0.0, (0.0,), hints).seq == 2

    def test_unknown_channel_needs_any_free(self):
        queue = SubmissionQueue(4)
        queue.admit(req(1, lpn=9))
        none_hint = hint_table({})
        assert queue.pick(0.0, (50.0, 50.0), none_hint) is None
        assert queue.pick(0.0, (50.0, 0.0), none_hint).seq == 1

    def test_next_channel_event_is_earliest_future_busy(self):
        queue = SubmissionQueue(4)
        assert queue.next_channel_event(10.0, (5.0, 30.0, 20.0)) == 20.0
        assert queue.next_channel_event(50.0, (5.0, 30.0, 20.0)) is None


def test_latency_and_queue_wait_properties():
    request = req(1)
    request.arrival_us = 100.0
    with pytest.raises(ValueError):
        __ = request.latency_us
    request.dispatched_us = 130.0
    request.completed_us = 250.0
    assert request.latency_us == 150.0
    assert request.queue_wait_us == 30.0
