"""device-layering: the host stack programs against ``FlashDevice`` only.

Everything above the device layer (the IPA manager, the storage
engine, workloads, the CLI) depends on the
:class:`repro.ftl.device.FlashDevice` protocol, never on a concrete
controller.  The rule is an import whitelist: outside the modules that
define or compose backends (the ``device-layering`` entries of
:data:`~repro.lintkit.engine.PATH_EXEMPTIONS`), a module may take from
``repro.ftl`` only the :data:`ALLOWED` modules — the protocol, the
region configuration (``IPAMode``, ``RegionConfig``) and the stats.

Every ``import`` counts, wherever it sits (module level, function or
class body), with relative imports resolved.  So a backend module
(``from ..ftl.noftl import NoFTL``), a backend class or factory reached
through the package re-export (``from repro.ftl import BlockSSD``,
``single_region_device``) and a helper in any other ``repro.ftl``
submodule are all findings.  Binding the package object itself
(``from . import ftl``, ``import repro.ftl as f``) is allowed — the
package root exposes it as a namespace — but an attribute read through
such a binding is a finding unless it names an allowed module.  Code
that needs a backend goes through ``repro.session.open_device``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..engine import Finding, LintModule, Rule
from .common import attribute_chain

#: The device layer's package.
FTL = "repro.ftl"

#: What code above the device layer may import from it.
ALLOWED = ("repro.ftl.device", "repro.ftl.region", "repro.ftl.stats")


def resolve_relative(name: str, is_package: bool, node: ast.ImportFrom) -> str:
    """Absolute dotted path of an ``ImportFrom`` origin in module ``name``.

    ``level`` counts leading dots: one dot is the current package, each
    further dot climbs one.  A package ``__init__``'s dotted name
    already *is* the package, so its first dot drops nothing.
    """
    if node.level == 0:
        return node.module or ""
    parts = name.split(".")
    drop = node.level - is_package
    base = parts[: len(parts) - drop]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


def _imports(
    module: LintModule, node: ast.Import | ast.ImportFrom
) -> Iterator[tuple[str, str, str]]:
    """``(imported module or name, local name, what that name binds)``
    for each alias of one import statement."""
    if isinstance(node, ast.ImportFrom):
        is_package = module.path.name == "__init__.py"
        origin = resolve_relative(module.module, is_package, node)
        for alias in node.names:
            target = f"{origin}.{alias.name}"
            yield target, alias.asname or alias.name, target
        return
    for alias in node.names:
        # ``import a.b`` binds ``a``; ``import a.b as c`` binds ``a.b``.
        bound = alias.name if alias.asname else alias.name.partition(".")[0]
        yield alias.name, alias.asname or bound, bound


def _forbidden(target: str) -> bool:
    """Whether dotted ``target`` lies in ``repro.ftl`` outside :data:`ALLOWED`."""
    return target.startswith(FTL + ".") and not any(
        target == allowed or target.startswith(allowed + ".")
        for allowed in ALLOWED
    )


class DeviceLayeringRule(Rule):
    """Above the device layer, import only the protocol side of the FTL."""

    id = "device-layering"
    description = (
        "program against the FlashDevice protocol: from repro.ftl import "
        "only repro.ftl.device, .region and .stats, at any depth "
        "(repro.session is the composition root)"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        """Flag imports past the whitelist, then reads through a bound
        package object."""
        packages: dict[str, str] = {}  # local name -> package it binds
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target, name, bound in _imports(module, node):
                if _forbidden(target):
                    yield self.finding(
                        module, node,
                        f"imports `{target}`; above the device layer import "
                        f"only {', '.join(ALLOWED)} and build backends "
                        "through repro.session.open_device",
                    )
                if bound == FTL or FTL.startswith(bound + "."):
                    packages[name] = bound  # repro.ftl or a package above it
        if not packages:
            return
        for node in ast.walk(module.tree):
            parts = attribute_chain(node)
            if len(parts) < 2 or parts[0] not in packages:
                continue
            target = ".".join([packages[parts[0]], *parts[1:]])
            # One finding per chain: at its ``repro.ftl.<name>`` prefix.
            if target.count(".") == FTL.count(".") + 1 and _forbidden(target):
                yield self.finding(
                    module, node,
                    f"reads `{target}` through the package object; above "
                    "the device layer use only its .device, .region and "
                    ".stats modules",
                )
