"""cProfile attribution for the leaf modules too hot to span.

A span per slotted-page accessor call would cost more than the call, so
these modules are observed in a third pass, under ``cProfile``, apart
from both timing and tracing.  cProfile inflates every Python call but
not the work inside C builtins, so the shares are for ranking modules
and for counting calls, never for timing.
"""

from __future__ import annotations

import cProfile
import os

#: ``repro.<module>`` names reported, as the metric-name prefix.
MODULES = ("storage.page_layout", "storage.schema", "core.delta", "flash.page", "flash.ecc")


def _module_of(filename: str) -> str | None:
    """``storage.page_layout`` for ``.../repro/storage/page_layout.py``."""
    marker = os.sep + "repro" + os.sep
    at = filename.rfind(marker)
    if at < 0 or not filename.endswith(".py"):
        return None
    return filename[at + len(marker):-3].replace(os.sep, ".")


def module_attribution(profiler: cProfile.Profile, ops: int) -> dict[str, float]:
    """``<module>.py_calls_per_op`` and ``<module>.profile_share``.

    A builtin's own time is charged to the module of the Python function
    that called it, so ``int.from_bytes`` inside the slotted page counts
    as slotted-page time.
    """
    calls = dict.fromkeys(MODULES, 0)
    seconds = dict.fromkeys(MODULES, 0.0)
    total = 0.0
    for entry in profiler.getstats():
        total += entry.inlinetime
        code = entry.code
        if isinstance(code, str):
            continue  # a builtin; charged through its callers below
        module = _module_of(code.co_filename)
        if module not in calls:
            continue
        calls[module] += entry.callcount
        seconds[module] += entry.inlinetime
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                seconds[module] += callee.inlinetime
    metrics = {}
    for module in MODULES:
        metrics[f"{module}.py_calls_per_op"] = calls[module] / ops
        metrics[f"{module}.profile_share"] = seconds[module] / total if total else 0.0
    return metrics
