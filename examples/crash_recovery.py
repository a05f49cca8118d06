#!/usr/bin/env python3
"""Crash recovery with In-Place Appends (paper Section 6.2).

The scenario the paper walks through: under a steal/no-force buffer
policy, dirty pages — even ones holding *uncommitted* changes — can be
materialized as delta appends at any time.  Recovery must still work:

1. committed transactions whose pages only ever reached flash as delta
   appends survive a crash,
2. a loser transaction whose uncommitted delta append *did* reach flash
   is rolled back by restart recovery,
3. the rolled-back state is itself written back via IPA when the
   delta-area budget allows.

Run:  python examples/crash_recovery.py
"""

from repro.core import NxMScheme
from repro.storage import Char, Column, Int32, Int64, Schema, recover
from repro.session import SessionConfig, open_session


def main():
    engine = open_session(SessionConfig(
        logical_pages=128, chips=4, scheme=NxMScheme(2, 4), buffer_pages=32,
        engine=dict(retain_log=True),
    )).engine
    schema = Schema([
        Column("id", Int32()), Column("balance", Int64()), Column("memo", Char(40)),
    ])
    accounts = engine.create_table("accounts", schema, key=["id"])

    txn = engine.begin()
    for i in range(100):
        accounts.insert(txn, (i, 1_000, "init"))
    engine.commit(txn)
    engine.flush_all()

    # -- a committed update, materialized as a delta append ------------
    txn = engine.begin()
    accounts.update(txn, accounts.lookup(7), {"balance": 7_777})
    engine.commit(txn)
    engine.flush_all()
    appends_before = engine.ipa.stats.ipa_flushes
    print(f"committed update of account 7 flushed; "
          f"IPA flushes so far: {appends_before}")

    # -- a loser: uncommitted change stolen to flash --------------------
    loser = engine.begin()
    accounts.update(loser, accounts.lookup(13), {"balance": -1})
    engine.flush_all()  # steal: the uncommitted delta reaches flash
    print("uncommitted update of account 13 stolen to flash "
          f"(IPA flushes: {engine.ipa.stats.ipa_flushes})")

    # -- crash! ----------------------------------------------------------
    print("\n*** crash: buffer pool lost, flash + log survive ***\n")
    engine.crash()

    report = recover(engine)
    print(f"restart recovery: {report.analyzed_records} log records analyzed, "
          f"{report.redone} redone, {report.undone} undone, "
          f"{report.losers} loser transaction(s)")

    balance_7 = accounts.read(accounts.lookup(7))[1]
    balance_13 = accounts.read(accounts.lookup(13))[1]
    print(f"account  7 balance: {balance_7}  (committed change survived)")
    print(f"account 13 balance: {balance_13}  (loser rolled back)")
    assert balance_7 == 7_777
    assert balance_13 == 1_000

    # -- and the rollback itself flushes as an append where possible ----
    engine.flush_all()
    print(f"\nIPA flushes after recovery: {engine.ipa.stats.ipa_flushes} "
          f"(the undo write-back also used the delta area when it fit)")


if __name__ == "__main__":
    main()
