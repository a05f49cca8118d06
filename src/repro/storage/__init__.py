"""A Shore-MT-shaped storage engine over native flash.

Slotted NSM pages extended with a delta-record area, heap tables, a
buffer pool with eager / non-eager cleaning, ARIES-style write-ahead
logging with rollback and restart recovery, and the engine facade that
wires it all to a :class:`repro.ftl.NoFTL` device through the
:class:`repro.core.IPAManager`.
"""

from .btree import BTreeIndex, int_key
from .buffer import BufferPool, BufferStats, Frame
from .clock import Clock, DeferredClock, ScalarClock
from .engine import EngineConfig, StorageEngine
from .program import (
    DeviceCommand,
    OpKind,
    StorageProgram,
    log_force_command,
    run_on_clock,
)
from .heap import RID, Table
from .page_layout import HEADER_SIZE, SLOT_SIZE, SlottedPage
from .recovery import RecoveryReport, recover
from .secondary import TableIndex
from .schema import Char, Column, ColumnType, Int32, Int64, Schema, VarChar
from .txn import Transaction, TransactionManager, TxnState
from .wal import LogKind, LogManager, LogRecord

__all__ = [
    "BTreeIndex",
    "int_key",
    "BufferPool",
    "BufferStats",
    "Frame",
    "Clock",
    "DeferredClock",
    "DeviceCommand",
    "OpKind",
    "ScalarClock",
    "StorageProgram",
    "log_force_command",
    "run_on_clock",
    "EngineConfig",
    "StorageEngine",
    "RID",
    "Table",
    "HEADER_SIZE",
    "SLOT_SIZE",
    "SlottedPage",
    "RecoveryReport",
    "recover",
    "TableIndex",
    "Char",
    "Column",
    "ColumnType",
    "Int32",
    "Int64",
    "Schema",
    "VarChar",
    "Transaction",
    "TransactionManager",
    "TxnState",
    "LogKind",
    "LogManager",
    "LogRecord",
]
