"""device-layering: the host stack programs against ``FlashDevice`` only.

The device layer's architectural invariant: everything above it (the
IPA manager, the storage engine, workloads, the CLI) depends on the
:class:`repro.ftl.device.FlashDevice` protocol, never on a concrete
controller.  Outside the modules that define or compose backends (the
``device-layering`` entries of
:data:`~repro.lintkit.engine.PATH_EXEMPTIONS`) it is a finding to

* import the concrete controller classes ``NoFTL`` / ``BlockSSD`` /
  ``ShardedDevice``, or import from their home modules
  (``repro.ftl.noftl``, ``repro.ftl.blockdev``, ``repro.ftl.sharded``)
  at all — factories like ``single_region_device`` are re-exported by
  ``repro.ftl``; relative imports are resolved, so
  ``from ..ftl.noftl import ...`` is caught too;
* reach a concrete backend through *any* call chain.  The import check
  alone misses a two-hop breach: a helper that constructs a backend —
  in ``repro.ftl`` itself, or anywhere else — called from a module that
  imports only the innocent helper.  The project call graph (which
  follows re-exports through package ``__init__`` modules) closes the
  gap: for every function or method of the module, any reachable
  definition in a concrete backend module (or an unresolved external
  symbol living there) is a finding.  ``repro.session`` is the
  composition root — edges into it are not expanded, so ``hostq``
  calling ``open_device`` (which legitimately builds backends) stays
  clean.  The walk does
  not stop at ``repro.ftl``: a helper there that builds a backend is
  exactly the loophole this check exists for.

A chain finding is anchored at the first call of the offending chain
(the only line the checked module controls) and the message spells out
the whole chain, so the fix — route through ``open_device`` or a
protocol — is obvious from the diagnostic alone.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..engine import Finding, LintModule, Rule
from ..flow.callgraph import CallSite, resolve_relative

#: Concrete controller class names (protocol-breaking to import).
CONCRETE_CLASSES = frozenset({"NoFTL", "BlockSSD", "ShardedDevice"})

#: Modules that define concrete controllers.
CONCRETE_MODULES = frozenset({
    "repro.ftl.noftl",
    "repro.ftl.blockdev",
    "repro.ftl.sharded",
})

#: Composition roots the call-chain walk does not look through.
SANCTIONED = ("repro.session",)


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


class DeviceLayeringRule(Rule):
    """No concrete backend above the device layer, by import or by call."""

    id = "device-layering"
    description = (
        "program against the FlashDevice protocol (repro.ftl.device): "
        "never import a concrete controller or reach one through a call "
        "chain (repro.session is the composition root)"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        """Flag concrete-backend imports and call chains into backends."""
        yield from self._imports(module)
        yield from self._call_chains(module)

    def _imports(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in CONCRETE_MODULES:
                        yield self.finding(
                            module, node,
                            f"imports concrete backend module `{alias.name}`; "
                            "program against repro.ftl.device.FlashDevice",
                        )
            elif isinstance(node, ast.ImportFrom):
                origin = resolve_relative(module, node)
                if origin in CONCRETE_MODULES:
                    yield self.finding(
                        module, node,
                        f"imports from concrete backend module `{origin}`; "
                        "factories are re-exported by repro.ftl",
                    )
                    continue
                for alias in node.names:
                    if alias.name in CONCRETE_CLASSES:
                        yield self.finding(
                            module, node,
                            f"imports concrete controller `{alias.name}`; "
                            "only repro.ftl and repro.session may name backends",
                        )

    def _call_chains(self, module: LintModule) -> Iterator[Finding]:
        graph = module.context.call_graph
        reported: set[tuple[int, str]] = set()
        for definition in graph.definitions_in(module.module):
            if isinstance(definition.node, ast.ClassDef):
                continue
            chains = graph.reach(definition.key, skip_modules=SANCTIONED)
            for reached, chain in sorted(chains.items(), key=lambda kv: kv[0]):
                if reached.startswith("external:"):
                    _, target_module, _symbol = reached.split(":", 2)
                else:
                    target_module = reached.partition(":")[0]
                if target_module not in CONCRETE_MODULES:
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
                    "through repro.session.open_device or a device protocol",
                )
