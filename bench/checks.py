"""Output checks, run after the timed region on the window's final state.

A failed check marks the whole run incorrect: a number from a program
that computed the wrong thing is not a measurement.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.storage.recovery import recover

#: Every TPC-B account is loaded with this balance (repro.workloads.tpcb).
TPCB_INITIAL_BALANCE = 10_000


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def _column_sum(table, column: str) -> int:
    index = table.schema.column_index(column)
    return sum(values[index] for _, values in table.scan())


def _tpcb_sums(workload) -> dict[str, int]:
    accounts = workload.total_accounts
    return {
        "account": _column_sum(workload.account, "a_balance")
        - accounts * TPCB_INITIAL_BALANCE,
        "teller": _column_sum(workload.teller, "t_balance"),
        "branch": _column_sum(workload.branch, "b_balance"),
        "history": _column_sum(workload.history, "h_delta"),
    }


def tpcb_consistency(workload, engine) -> list[Check]:
    """Money is conserved across the four tables, before and after a crash."""
    before = _tpcb_sums(workload)
    results = [Check(
        "tpcb balances agree", len(set(before.values())) == 1, str(before),
    )]
    # Lose the buffer pool with dirty pages in it, then restart from
    # flash and the retained log.
    engine.crash()
    report = recover(engine)
    after = _tpcb_sums(workload)
    results.append(Check(
        "tpcb balances survive crash+recover", after == before,
        f"{after} after redo of {report.redone} records",
    ))
    return results


def tpcc_consistency(workload) -> list[Check]:
    """TPC-C consistency conditions 1 and 2 (clause 3.3.2)."""
    ytd_by_warehouse: dict[int, int] = {}
    next_order: dict[tuple[int, int], int] = {}
    for _, (d_id, w_id, d_ytd, d_next_o_id, *_rest) in workload.district.scan():
        ytd_by_warehouse[w_id] = ytd_by_warehouse.get(w_id, 0) + d_ytd
        next_order[(w_id, d_id)] = d_next_o_id
    warehouses = {w_id: w_ytd for _, (w_id, w_ytd, *_rest) in workload.warehouse.scan()}
    newest = dict.fromkeys(next_order, 0)
    for _, (o_id, d_id, w_id, *_rest) in workload.orders.scan():
        newest[(w_id, d_id)] = max(newest[(w_id, d_id)], o_id)
    stale = {key: (next_order[key], newest[key])
             for key in next_order if next_order[key] - 1 != newest[key]}
    return [
        Check("tpcc w_ytd = sum(d_ytd)", warehouses == ytd_by_warehouse,
              f"{warehouses} vs {ytd_by_warehouse}"),
        Check("tpcc d_next_o_id - 1 = max(o_id)", not stale,
              f"{len(next_order)} districts, mismatches {stale}"),
    ]


def device_readback(device, shadow: list[bytearray]) -> list[Check]:
    """Every logical page reads back as the shadow image, byte for byte."""
    wrong = [
        lpn for lpn, image in enumerate(shadow)
        if device.read(lpn).data != image
    ]
    return [Check("device pages match shadow", not wrong,
                  f"{len(shadow)} pages, mismatched lpns {wrong[:8]}")]


def loadtest_accounting(generated: int, completed: int, rejected: int) -> list[Check]:
    """Everything the clients generated completed, and nothing was refused."""
    return [
        Check("all generated work completed", completed == generated,
              f"generated {generated}, completed {completed}"),
        Check("nothing rejected, aborted or retried", rejected == 0, f"{rejected}"),
    ]
