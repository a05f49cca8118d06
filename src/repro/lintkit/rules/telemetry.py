"""counter-naming: registry metric names follow ``{layer}_{noun}``.

The first segment names the owning layer (``device_``, ``blockssd_``,
``ipa_``, ``gc_``, ``flash_``, ``buffer_``, ...), optionally preceded
by a composite-device prefix (``shard<i>_`` or a runtime ``{prefix}``
slot), and the rest is lower_snake.  The rule checks every literal or
f-string name passed to ``.counter()`` / ``.gauge()`` / ``.histogram()``.
(The other telemetry discipline rule, **telemetry-guard**, needs
dominance and lives in :mod:`repro.lintkit.rules.telemetry_guard`.)
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from ..engine import Finding, LintModule, Rule

#: Marker standing in for an f-string ``{...}`` interpolation slot.
_SLOT = "\x00"

#: Layer vocabulary for the leading metric-name segment.
METRIC_LAYERS = frozenset({
    "device", "blockssd", "ipa", "host", "gc", "flash",
    "buffer", "chip", "wear", "flush", "engine", "wal",
    "hostq", "txn",
})

_LAYER_HEAD_RE = re.compile(
    r"^(shard\d+_)?(" + "|".join(sorted(METRIC_LAYERS)) + r")_"
)
_CHARSET_RE = re.compile(r"^[a-z0-9_]*$")


class CounterNamingRule(Rule):
    """Registry metric names must follow ``{layer}_{noun}``."""

    id = "counter-naming"
    description = (
        "metric names are lower_snake and start with their layer "
        "(device_, blockssd_, ipa_, gc_, flash_, buffer_, ...), with an "
        "optional shard<i>_/{prefix} slot in front"
    )

    _METHODS = frozenset({"counter", "gauge", "histogram"})

    def check(self, module: LintModule) -> Iterable[Finding]:
        """Validate literal metric names at registration call sites."""
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._METHODS
                and node.args
            ):
                continue
            pattern = self._literal_pattern(node.args[0])
            if pattern is None:
                continue  # dynamically built name: not statically checkable
            problem = self._violation(pattern)
            if problem is not None:
                shown = pattern.replace(_SLOT, "{…}")
                yield self.finding(
                    module, node,
                    f"metric name `{shown}` {problem}; expected "
                    "[shard<i>_|{prefix}]<layer>_<lower_snake_noun>",
                )

    @staticmethod
    def _literal_pattern(arg: ast.expr) -> str | None:
        """Literal/f-string name with ``{...}`` slots marked, else None."""
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.JoinedStr):
            parts: list[str] = []
            for value in arg.values:
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    parts.append(value.value)
                else:
                    parts.append(_SLOT)
            return "".join(parts)
        return None

    @staticmethod
    def _violation(pattern: str) -> str | None:
        """Describe how ``pattern`` breaks the convention (None = ok)."""
        head = pattern
        if head.startswith(_SLOT):
            head = head[1:]  # runtime prefix slot (e.g. shard<i>_)
        literal_head = head.split(_SLOT, 1)[0]
        for chunk in pattern.split(_SLOT):
            if not _CHARSET_RE.match(chunk):
                return "is not lower_snake ([a-z0-9_])"
        if not _LAYER_HEAD_RE.match(literal_head):
            return "does not start with a known layer segment"
        return None
