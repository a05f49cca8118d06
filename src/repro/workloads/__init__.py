"""OLTP workload generators: TPC-B, TPC-C, TATP, LinkBench.

Each workload creates its schema, loads a scaled database, and executes
its transaction mix against a storage engine; the :class:`Driver` runs
measured streams and :class:`TraceRecorder` captures buffer-level I/O
traces for the IPL-vs-IPA replay experiments.
"""

from .base import Driver, RunResult, Workload
from .linkbench import LinkBench, LinkBenchConfig
from .rand import Zipf, nurand
from .sessions import PROFILES, ClientSession, SessionProfile
from .tatp import TATP, TATPConfig
from .tpcb import TPCB, TPCBConfig
from .tpcc import TPCC, TPCCConfig
from .trace import TraceEvent, TraceRecorder, load_trace, save_trace

__all__ = [
    "Driver",
    "RunResult",
    "Workload",
    "ClientSession",
    "SessionProfile",
    "PROFILES",
    "LinkBench",
    "LinkBenchConfig",
    "Zipf",
    "nurand",
    "TATP",
    "TATPConfig",
    "TPCB",
    "TPCBConfig",
    "TPCC",
    "TPCCConfig",
    "TraceEvent",
    "TraceRecorder",
    "load_trace",
    "save_trace",
]
