"""Flow-sensitive analyses for iplint (DESIGN.md §13).

A rule that judges one AST node at a time needs nothing from here; the
rules that judge *paths* — crash-window, lock-ordering and
yield-discipline — read :mod:`~repro.lintkit.flow.cfg`: per-function
control-flow graphs with reaching definitions (lock-ordering) and
bounded path scans (crash-window, yield-discipline).  Each module
memoizes one CFG per scope (:meth:`~repro.lintkit.engine.LintModule.cfg`),
so rules that inspect the same function share it.
"""
