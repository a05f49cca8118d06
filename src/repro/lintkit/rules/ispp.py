"""ispp-safety: flash cell buffers are only touched inside ``repro.flash``.

The paper's physical invariant (ISPP may only add charge, i.e. flip
bits 1 -> 0) is enforced by :meth:`repro.flash.page.FlashPage.program`.
Any code that reaches into ``page.data`` / ``page.oob`` directly —
whether to mutate *or* to peek at raw cells — bypasses that gate, so
everywhere but the ``repro.flash`` package (its ``ispp-safety`` waiver
in :data:`~repro.lintkit.engine.PATH_EXEMPTIONS`) every subscript of,
or assignment to, an attribute named ``data``/``oob`` is a finding.  Host-side code
must use the accessors (``read``, ``read_slice``, ``is_erased_range``)
or the ``program``/``write_delta`` primitives.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import Finding, LintModule, Rule

#: Attributes holding raw flash cells on FlashPage.
_BUFFER_ATTRS = frozenset({"data", "oob"})


def _buffer_attribute(node: ast.AST) -> ast.Attribute | None:
    """``node`` when it is an ``<expr>.data`` / ``<expr>.oob`` access."""
    if isinstance(node, ast.Attribute) and node.attr in _BUFFER_ATTRS:
        return node
    return None


class IsppSafetyRule(Rule):
    """No direct flash-buffer access outside ``repro.flash``."""

    id = "ispp-safety"
    description = (
        "flash page buffers (.data/.oob) may only be touched inside "
        "repro.flash; use read accessors and program/write_delta"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        """Flag raw ``.data``/``.oob`` buffer access."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Subscript):
                target = _buffer_attribute(node.value)
                if target is not None:
                    verb = (
                        "mutates"
                        if isinstance(node.ctx, (ast.Store, ast.Del))
                        else "reads"
                    )
                    yield self.finding(
                        module, node,
                        f"{verb} raw flash buffer via `.{target.attr}[...]`; "
                        "use FlashPage.read_slice/is_erased_range or "
                        "program/write_delta",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for assigned in targets:
                    target = _buffer_attribute(assigned)
                    if target is not None:
                        yield self.finding(
                            module, assigned,
                            f"assigns raw flash buffer `.{target.attr}`; "
                            "cell content changes only via ISPP program or erase",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and _buffer_attribute(func.value) is not None
                    and func.attr in {"append", "extend", "insert", "clear", "pop"}
                ):
                    yield self.finding(
                        module, node,
                        f"calls mutator `.{func.attr}()` on a raw flash buffer; "
                        "cell content changes only via ISPP program or erase",
                    )
