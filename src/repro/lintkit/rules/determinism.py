"""determinism: no wall clocks, no ambient randomness in ``src/repro``.

Every run of the simulator must replay bit-identically from its seed:
the device clock is simulated (``now`` parameters), and all randomness
flows through an injected ``random.Random(seed)`` instance (workload
drivers, the fault injector).  This rule bans the two ways ambient
nondeterminism sneaks in:

* wall-clock reads — ``time.time()`` / ``time.monotonic()`` /
  ``time.perf_counter()`` (and ``_ns`` variants), ``datetime.now()``,
  ``datetime.utcnow()``, ``date.today()``;
* module-level RNG — any ``random.<fn>()`` call on the ``random``
  module itself (``random.random()``, ``random.choice()``, ...), which
  draws from the shared, process-global generator;
* generators that no seed replays — ``random.Random()`` and
  ``random.Random(None)`` seed themselves from the OS, and
  ``random.SystemRandom`` draws OS entropy on every call.

Constructing ``random.Random(seed)`` is what the injection pattern
looks like and stays allowed.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import Finding, LintModule, Rule
from .common import attribute_chain

#: Banned ``time.<fn>`` calls (wall or process clocks).
_TIME_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})

#: Banned ``datetime``/``date`` constructors of "now".
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})


def _unseeded(call: ast.Call) -> bool:
    """Whether a ``random.Random(...)`` call passes no seed, or ``None``."""
    seeds = [*call.args, *(kw.value for kw in call.keywords)]
    return not seeds or (
        isinstance(seeds[0], ast.Constant) and seeds[0].value is None
    )


class DeterminismRule(Rule):
    """Ban wall-clock reads and the process-global RNG."""

    id = "determinism"
    description = (
        "no time.time/datetime.now/module-level random.* in src/repro; "
        "inject random.Random(seed) and use the simulated clock"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        """Flag wall-clock and process-global-RNG call sites."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if len(chain) < 2:
                continue
            base, func = chain[-2], chain[-1]
            if base == "time" and func in _TIME_FUNCS:
                yield self.finding(
                    module, node,
                    f"calls wall/process clock `time.{func}()`; use the "
                    "simulated `now` clock so runs replay deterministically",
                )
            elif base in {"datetime", "date"} and func in _DATETIME_FUNCS:
                yield self.finding(
                    module, node,
                    f"calls `{base}.{func}()`; wall-clock timestamps make "
                    "runs unreproducible — thread times through parameters",
                )
            elif base == "random" and (
                func == "SystemRandom" or (func == "Random" and _unseeded(node))
            ):
                yield self.finding(
                    module, node,
                    f"constructs `random.{func}` from OS entropy, which "
                    "no seed replays; pass random.Random an explicit seed",
                )
            elif base == "random" and func != "Random":
                yield self.finding(
                    module, node,
                    f"draws from the process-global RNG via `random.{func}()`; "
                    "all randomness must flow through an injected "
                    "random.Random(seed)",
                )
