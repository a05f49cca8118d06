"""Flow rule: no *transitive* path from storage/hostq to a backend.

The syntactic device-layering rule bans direct imports of the concrete
FTL backends (``NoFTL``, ``BlockSSD``, ``ShardedDevice``) outside
``repro.ftl``/``repro.testbed``.  It cannot see a two-hop breach: a
helper in an allowed package that constructs a backend, called from
``repro.storage`` — the storage module imports only the innocent
helper, yet at runtime it reaches the concrete class all the same.

This rule closes the gap with the project call graph: for every
function or method defined in a watched package it computes the set of
definitions reachable through resolved call edges and flags any chain
that lands in a concrete backend module (or an unresolved external
symbol living there).  ``repro.testbed`` is the sanctioned composition
root — edges into it are not expanded, so ``hostq`` calling
``open_device``, which picks one of the testbed ``*_device`` factories
(and those legitimately build backends), stays clean, exactly as
DESIGN.md's layering section prescribes.

The finding is anchored at the first call of the offending chain (the
only line the watched module controls) and the message spells out the
whole chain, so the fix — route through the testbed factory or a
protocol — is obvious from the diagnostic alone.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ...engine import Finding, LintModule
from ...rules.layering import CONCRETE_MODULES
from ..base import FlowRule
from ..callgraph import CallSite

__all__ = ["TransitiveLayeringRule"]


def _concrete_module(module_name: str) -> bool:
    """Whether a dotted module is (or sits under) a concrete backend."""
    return any(
        module_name == concrete or module_name.startswith(concrete + ".")
        for concrete in CONCRETE_MODULES
    )


def _short(key: str) -> str:
    """Display name of one definition key."""
    if key.startswith("external:"):
        _, module_name, symbol = key.split(":", 2)
        return symbol or module_name
    return key.split(":", 1)[1]


def _chain_text(chain: list[CallSite]) -> str:
    """Human-readable rendering of one call chain."""
    names = [_short(chain[0].caller)]
    names.extend(_short(site.callee) for site in chain)
    return " -> ".join(names)


class TransitiveLayeringRule(FlowRule):
    """Call-graph closure of the device-layering boundary."""

    id = "transitive-layering"
    description = (
        "storage/ and hostq/ must not reach concrete FTL backends "
        "through any call chain (testbed is the sanctioned boundary)"
    )

    #: Packages whose call closures are checked.
    packages = ("repro.storage", "repro.hostq")
    #: Composition roots traversal does not look through.
    sanctioned = ("repro.testbed",)

    def check(self, module: LintModule) -> Iterable[Finding]:
        """Flag reachable concrete-backend definitions per function."""
        if not module.in_package(*self.packages):
            return
        context = self.context_for(module)
        graph = context.call_graph
        reported: set[tuple[int, str]] = set()
        for definition in graph.definitions.values():
            if definition.module != module.module:
                continue
            if isinstance(definition.node, ast.ClassDef):
                continue
            chains = graph.reach(definition.key, skip_modules=self.sanctioned)
            for reached, chain in sorted(chains.items(), key=lambda kv: kv[0]):
                if reached.startswith("external:"):
                    _, target_module, _symbol = reached.split(":", 2)
                else:
                    target_module = reached.partition(":")[0]
                if not _concrete_module(target_module):
                    continue
                first = chain[0]
                key = (id(first.node), reached)
                if key in reported:
                    continue
                reported.add(key)
                yield self.finding(
                    module,
                    first.node,
                    f"call chain reaches concrete backend "
                    f"`{target_module}` ({_chain_text(chain)}); route "
                    "through the testbed factory or a device protocol",
                )
