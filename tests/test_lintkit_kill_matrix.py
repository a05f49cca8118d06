"""Kill matrix: every iplint rule fires on seeded mutations of real code.

Each :class:`Mutation` rewrites one span of a real ``src/repro`` module
so that it breaks one rule's invariant.  The test applies it to the
module's text in memory, lints only that module with only that rule,
and requires a finding of the rule inside the rewritten span.  Every
``old_text`` must occur exactly once in its module, so a refactor that
moves the code fails here instead of leaving a mutation that no longer
applies.

The same mutations, run against the rest of tier-1 with the module
rewritten on disk, are the evidence that keeps a rule: a rule stays
while some mutation of it survives every other test (CHANGES.md holds
the matrix).  The rules whose mutations all died elsewhere are gone,
with their entries: clock-discipline (the engine clock is read-only),
counter-naming (``test_metrics_reports.py`` pins every registered
name) and telemetry-guard (``test_telemetry_overhead.py`` runs every
hook on an idle bus).

:data:`GAP_MUTATIONS` are not matrix evidence but rule gaps found
after it: seeded mutations of real code that an earlier version of the
rule let through.  Each must fire from now on.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import NamedTuple

import pytest

import repro
from repro.lintkit import LintModule, lint_module
from repro.lintkit.rules import RULES, rule_by_id

REPRO_SRC = Path(repro.__file__).resolve().parent


class Mutation(NamedTuple):
    """One seeded rewrite of a real module that must fire ``rule_id``."""

    module: str
    old_text: str
    new_text: str
    rule_id: str


MUTATIONS = [
    # -- ispp-safety: raw cell access outside repro.flash -----------------
    Mutation(
        "repro.ftl.noftl",
        "            oob = self.flash.page_at(ppn).read_oob()\n",
        "            oob = bytes(self.flash.page_at(ppn).oob[:])\n",
        "ispp-safety",
    ),
    Mutation(
        "repro.ftl.noftl",
        "        return self.flash.page_at(ppn).is_erased_range(offset, length)\n",
        "        return ispp.is_erased(\n"
        "            self.flash.page_at(ppn).data[offset : offset + length]\n"
        "        )\n",
        "ispp-safety",
    ),
    Mutation(
        "repro.ftl.noftl",
        "        if not page.is_erased_range(offset, len(data)):\n",
        "        if page.data[offset : offset + len(data)].count(0xFF) != len(data):\n",
        "ispp-safety",
    ),
    Mutation(
        "repro.ftl.noftl",
        "        self.flash.program_oob(self.mapping.lookup(lpn), data, offset)\n",
        "        page = self.flash.page_at(self.mapping.lookup(lpn))\n"
        "        page.oob[offset : offset + len(data)] = data\n",
        "ispp-safety",
    ),
    # -- device-layering: a concrete backend above the device layer -------
    Mutation(
        "repro.storage.engine",
        "from ..ftl.device import FlashDevice\n",
        "from ..ftl.device import FlashDevice\nfrom ..ftl.noftl import NoFTL\n",
        "device-layering",
    ),
    Mutation(
        "repro.core.manager",
        "from ..ftl.device import FlashDevice\n",
        "from ..ftl import BlockSSD, FlashDevice\n",
        "device-layering",
    ),
    Mutation(
        "repro.hostq.txnexec",
        "from ..session import SessionConfig, open_session\n",
        "from ..ftl.sharded import ShardedDevice\n"
        "from ..session import SessionConfig, open_session\n",
        "device-layering",
    ),
    Mutation(
        "repro.testbed",
        "from .errors import ReproError\n"
        "from .storage.engine import StorageEngine\n"
        "from .workloads.base import Driver, Workload\n"
        "\n"
        "__all__ = [\"MIN_BUFFER_PAGES\", \"load_scaled\"]\n",
        "from .errors import ReproError\n"
        "from .ftl import single_region_device\n"
        "from .storage.engine import StorageEngine\n"
        "from .workloads.base import Driver, Workload\n"
        "\n"
        "__all__ = [\"MIN_BUFFER_PAGES\", \"load_scaled\"]\n"
        "\n"
        "\n"
        "def quick_device(flash, logical_pages: int):\n"
        '    """A one-region device over ``flash``, for quick experiments."""\n'
        "    return single_region_device(flash, logical_pages)\n",
        "device-layering",
    ),
    # -- determinism: the process-global RNG ------------------------------
    Mutation(
        "repro.workloads.rand",
        "        return bisect.bisect_left(self._cdf, rng.random())\n",
        "        return bisect.bisect_left(self._cdf, random.random())\n",
        "determinism",
    ),
    Mutation(
        "repro.workloads.rand",
        "    value = rng.randint(low, high - 1)\n",
        "    value = random.randint(low, high - 1)\n",
        "determinism",
    ),
    Mutation(
        "repro.workloads.sessions",
        "        if self._rng.random() < profile.delta_fraction:\n",
        "        if random.random() < profile.delta_fraction:\n",
        "determinism",
    ),
    Mutation(
        "repro.crashkit.scheduler",
        "        return lambda: rng.random() < fraction\n",
        "        return lambda: random.random() < fraction\n",
        "determinism",
    ),
    Mutation(
        "repro.crashkit.harness",
        "                draw = rng.random()\n",
        "                draw = random.random()\n",
        "determinism",
    ),
    # -- exception-discipline: a handler that swallows everything ---------
    Mutation(
        "repro.storage.heap",
        "            except PageFullError:\n"
        "                self._free[lpn] = 0\n",
        "            except Exception:\n"
        "                self._free[lpn] = 0\n",
        "exception-discipline",
    ),
    Mutation(
        "repro.storage.heap",
        "        except Exception:\n"
        "            engine.unpin(rid.lpn, dirty=True)\n"
        "            raise\n"
        "        engine.unpin(rid.lpn, dirty=True)\n"
        "        engine.charge_cpu()\n",
        "        except Exception:\n"
        "            engine.unpin(rid.lpn, dirty=True)\n"
        "            return\n"
        "        engine.unpin(rid.lpn, dirty=True)\n"
        "        engine.charge_cpu()\n",
        "exception-discipline",
    ),
    Mutation(
        "repro.core.manager",
        "        except DeltaWriteError:\n",
        "        except Exception:\n",
        "exception-discipline",
    ),
    Mutation(
        "repro.workloads.tpcc",
        "            except RecordNotFoundError:\n                continue\n",
        "            except Exception:\n                continue\n",
        "exception-discipline",
    ),
    Mutation(
        "repro.cli",
        "    except (ReproError, OSError) as error:\n",
        "    except Exception as error:\n",
        "exception-discipline",
    ),
    # -- yield-discipline: shared state moved after a discarded result ----
    Mutation(
        "repro.storage.buffer",
        "                    latency = yield command\n",
        "                    yield command\n",
        "yield-discipline",
    ),
    Mutation(
        "repro.storage.buffer",
        "            command.result = (page, slots_used)\n"
        "            return read_latency\n"
        "\n"
        "        command.run = run_read\n"
        "        read_latency = yield command\n"
        "        page, slots_used = command.result\n",
        "            command.result = (page, slots_used, read_latency)\n"
        "            return read_latency\n"
        "\n"
        "        command.run = run_read\n"
        "        yield command\n"
        "        page, slots_used, read_latency = command.result\n",
        "yield-discipline",
    ),
    Mutation(
        "repro.hostq.txnexec",
        "        txn = engine.begin()\n"
        "        ctx.txn = txn\n"
        "        for op_index, (kind, lpn, length) in enumerate(ctx.ops):\n"
        "            yield _Acquire(lpn)\n",
        "        txn = None\n"
        "        for op_index, (kind, lpn, length) in enumerate(ctx.ops):\n"
        "            yield _Acquire(lpn)\n"
        "            if txn is None:\n"
        "                txn = engine.begin()\n"
        "                ctx.txn = txn\n",
        "yield-discipline",
    ),
    Mutation(
        "repro.hostq.txnexec",
        "        self.engine.abort(txn)\n"
        "        for lpn in lpns:\n"
        "            yield _Release(lpn)\n",
        "        self.engine.abort(txn)\n"
        "        for lpn in lpns:\n"
        "            yield _Release(lpn)\n"
        "        ctx.retries += 1\n",
        "yield-discipline",
    ),
    # -- lock-ordering: multi-LPN acquisition out of order ----------------
    Mutation(
        "repro.hostq.txnexec",
        "        lpns = sorted(\n",
        "        lpns = list(\n",
        "lock-ordering",
    ),
    Mutation(
        "repro.hostq.txnexec",
        "        for lpn in lpns:\n            yield _Acquire(lpn)\n",
        "        for lpn in reversed(lpns):\n            yield _Acquire(lpn)\n",
        "lock-ordering",
    ),
    Mutation(
        "repro.hostq.txnexec",
        "            {record.lpn for record in txn.undo if record.lpn >= 0} - ctx.held\n"
        "        )\n",
        "            {record.lpn for record in txn.undo if record.lpn >= 0} - ctx.held\n"
        "        )\n"
        "        if ctx.retries:\n"
        "            lpns = lpns[::-1]\n",
        "lock-ordering",
    ),
    Mutation(
        "repro.hostq.txnexec",
        "                yield from engine.update_program(txn, lpn, offset, payload)\n"
        "            yield _Release(lpn)\n",
        "                yield from engine.update_program(txn, lpn, offset, payload)\n",
        "lock-ordering",
    ),
    # -- crash-window: state moved between a data program and its mark ----
    Mutation(
        "repro.core.manager",
        "        self.device.write_oob(\n"
        "            frame.lpn, marks, self.device.oob_size - self.scheme.n\n"
        "        )\n"
        "        frame.slots_used = committed\n",
        "        frame.slots_used = committed\n"
        "        self.device.write_oob(\n"
        "            frame.lpn, marks, self.device.oob_size - self.scheme.n\n"
        "        )\n",
        "crash-window",
    ),
    Mutation(
        "repro.core.manager",
        "        committed = frame.slots_used + len(records)\n"
        "        marks = bytes([_MARK_BYTE]) * committed\n"
        "        self.device.write_oob(\n"
        "            frame.lpn, marks, self.device.oob_size - self.scheme.n\n"
        "        )\n"
        "        frame.slots_used = committed\n"
        "        net, gross = len(body), len(body) + len(meta)\n"
        "        page.reset_tracking()\n"
        "        self.stats.ipa_flushes += 1\n",
        "        committed = frame.slots_used + len(records)\n"
        "        marks = bytes([_MARK_BYTE]) * committed\n"
        "        self.stats.ipa_flushes += 1\n"
        "        self.device.write_oob(\n"
        "            frame.lpn, marks, self.device.oob_size - self.scheme.n\n"
        "        )\n"
        "        frame.slots_used = committed\n"
        "        net, gross = len(body), len(body) + len(meta)\n"
        "        page.reset_tracking()\n",
        "crash-window",
    ),
    Mutation(
        "repro.core.manager",
        "        io = self.device.write(frame.lpn, bytes(page.image), now)\n"
        "        if self._ecc is not None:\n"
        "            code = self._ecc.encode_segment(0, bytes(page.image))\n"
        "            self.device.write_oob(frame.lpn, code, self._ecc.oob_offset(0))\n"
        "        frame.slots_used = 0\n",
        "        io = self.device.write(frame.lpn, bytes(page.image), now)\n"
        "        frame.slots_used = 0\n"
        "        if self._ecc is not None:\n"
        "            code = self._ecc.encode_segment(0, bytes(page.image))\n"
        "            self.device.write_oob(frame.lpn, code, self._ecc.oob_offset(0))\n",
        "crash-window",
    ),
    Mutation(
        "repro.ftl.noftl",
        "            if not ispp.is_erased(oob):\n"
        "                self.flash.program_oob(target, oob)\n"
        "            if self.crashkit is not None:\n"
        "                # Victim migration window: the copy landed but the old\n"
        "                # location is still the mapped one, so a crash loses\n"
        "                # nothing — the migration simply never happened.\n"
        '                self.crashkit.site("noftl.gc_migrate")\n'
        "            self.mapping.bind(lpn, target)\n"
        "            self.stats.gc_page_migrations += 1\n",
        "            self.stats.gc_page_migrations += 1\n"
        "            if not ispp.is_erased(oob):\n"
        "                self.flash.program_oob(target, oob)\n"
        "            if self.crashkit is not None:\n"
        "                # Victim migration window: the copy landed but the old\n"
        "                # location is still the mapped one, so a crash loses\n"
        "                # nothing — the migration simply never happened.\n"
        '                self.crashkit.site("noftl.gc_migrate")\n'
        "            self.mapping.bind(lpn, target)\n",
        "crash-window",
    ),
]

GAP_MUTATIONS = [
    # -- device-layering: a backend factory imported inside a function ----
    Mutation(
        "repro.testbed",
        "MIN_BUFFER_PAGES = 8\n",
        "MIN_BUFFER_PAGES = 8\n"
        "\n"
        "\n"
        "def quick_device(flash, logical_pages: int):\n"
        '    """A one-region device over ``flash``, for quick experiments."""\n'
        "    from .ftl import single_region_device\n"
        "\n"
        "    return single_region_device(flash, logical_pages)\n",
        "device-layering",
    ),
    # -- device-layering: a factory read through the bound package --------
    Mutation(
        "repro.hostq.loadtest",
        "from .scheduler import HostScheduler\n",
        "from .scheduler import HostScheduler\n"
        "\n"
        "import repro.ftl as ftl\n"
        "\n"
        "\n"
        "def quick_device(flash, logical_pages: int):\n"
        "    return ftl.single_region_device(flash, logical_pages)\n",
        "device-layering",
    ),
    # -- determinism: generators that no seed replays ---------------------
    Mutation(
        "repro.hostq.clients",
        "        self._rng = random.Random(seed * 7_368_787 + index + 1)\n",
        "        self._rng = random.Random()\n",
        "determinism",
    ),
    Mutation(
        "repro.hostq.clients",
        "        self._rng = random.Random(seed * 2_654_435 + 1)\n",
        "        self._rng = random.SystemRandom(seed * 2_654_435 + 1)\n",
        "determinism",
    ),
    # -- lock-ordering: the rollback acquires in descending order ---------
    Mutation(
        "repro.hostq.txnexec",
        "            {record.lpn for record in txn.undo if record.lpn >= 0} - ctx.held\n"
        "        )\n",
        "            {record.lpn for record in txn.undo if record.lpn >= 0} - ctx.held,\n"
        "            reverse=True,\n"
        "        )\n",
        "lock-ordering",
    ),
]

ALL_MUTATIONS = MUTATIONS + GAP_MUTATIONS


def _mutation_id(mutation: Mutation) -> str:
    """``rule-id/n``: the mutation's ordinal among its rule's entries."""
    same = [m for m in ALL_MUTATIONS if m.rule_id == mutation.rule_id]
    return f"{mutation.rule_id}/{same.index(mutation) + 1}"


def module_path(module: str) -> Path:
    """Source file of a dotted ``repro`` module (package or plain)."""
    base = REPRO_SRC.joinpath(*module.split(".")[1:])
    return base / "__init__.py" if base.is_dir() else base.with_suffix(".py")


def mutated_source(mutation: Mutation) -> str:
    """The module's text with the mutation applied (exactly one site)."""
    source = module_path(mutation.module).read_text(encoding="utf-8")
    count = source.count(mutation.old_text)
    assert count == 1, (
        f"{_mutation_id(mutation)}: old_text occurs {count} times in "
        f"{mutation.module}; update the mutation to the current code"
    )
    return source.replace(mutation.old_text, mutation.new_text)


def _parsed(mutation: Mutation, source: str) -> LintModule:
    return LintModule(
        path=module_path(mutation.module),
        module=mutation.module,
        tree=ast.parse(source),
    )


@pytest.mark.parametrize(
    "mutation", ALL_MUTATIONS, ids=[_mutation_id(m) for m in ALL_MUTATIONS]
)
def test_rule_fires_on_mutation(mutation):
    rule = rule_by_id(mutation.rule_id)
    original = module_path(mutation.module).read_text(encoding="utf-8")
    assert lint_module(_parsed(mutation, original), [rule]) == []
    module = _parsed(mutation, mutated_source(mutation))
    assert lint_module(module, [rule]), (
        f"{mutation.rule_id} does not fire on the mutated {mutation.module}"
    )


def test_every_rule_has_three_to_five_mutations():
    counts = {cls.id: 0 for cls in RULES}
    for mutation in MUTATIONS:
        counts[mutation.rule_id] += 1
    assert all(3 <= n <= 5 for n in counts.values()), counts
