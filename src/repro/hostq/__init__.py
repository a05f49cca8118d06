"""Host-side request scheduling, queueing, and the load-test harness.

The paper's evaluation (Section 8) runs trace-driven storage-engine
benchmarks one operation at a time; real hosts keep many commands in
flight per device.  ``repro.hostq`` adds that missing dimension as its
own subsystem:

* :mod:`~repro.hostq.request` — the request record and operation kinds;
* :mod:`~repro.hostq.queueing` — the NCQ-style bounded submission queue
  with block/reject admission control and head-of-line bypass;
* :mod:`~repro.hostq.groupcommit` — event-driven leader-based WAL group
  commit;
* :mod:`~repro.hostq.clients` — closed-loop clients with think time and
  open-loop Poisson arrivals, all seeded;
* :mod:`~repro.hostq.scheduler` — the deterministic discrete-event loop
  dispatching against the :class:`~repro.ftl.device.FlashDevice`
  occupancy hooks, so independent dies genuinely overlap;
* :mod:`~repro.hostq.loadtest` — ``repro loadtest``: one run skeleton
  for both levels (throughput, end-to-end latency percentiles, the
  queue-depth sweep) and the device level, raw page operations;
* :mod:`~repro.hostq.txnexec` — ``repro loadtest --level txn``: whole
  engine transactions (buffer pool, WAL, group commit) driven as
  resumable storage programs under the same scheduler.

The layer programs strictly against the device *protocol* — it never
imports a concrete backend (iplint's device-layering rule holds here
too), which is what lets one load harness compare NoFTL, BlockSSD and
the sharded controller unchanged.
"""

from .clients import ClosedLoopClient, OpenLoopArrivals, build_sessions
from .groupcommit import GroupCommitGate, GroupCommitStats
from .loadtest import (
    LoadTestConfig,
    LoadTestResult,
    format_sweep,
    run_loadtest,
    run_txn_loadtest,
    sweep_queue_depth,
)
from .queueing import ADMISSION_POLICIES, QueueStats, SubmissionQueue
from .request import OpKind, Request
from .scheduler import HostScheduler, SchedulerStats
from .txnexec import TxnExecutor, TxnLoadTestConfig

__all__ = [
    "ADMISSION_POLICIES",
    "ClosedLoopClient",
    "GroupCommitGate",
    "GroupCommitStats",
    "HostScheduler",
    "LoadTestConfig",
    "LoadTestResult",
    "OpenLoopArrivals",
    "OpKind",
    "QueueStats",
    "Request",
    "SchedulerStats",
    "SubmissionQueue",
    "TxnExecutor",
    "TxnLoadTestConfig",
    "build_sessions",
    "format_sweep",
    "run_loadtest",
    "run_txn_loadtest",
    "sweep_queue_depth",
]
