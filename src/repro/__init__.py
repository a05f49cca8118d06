"""repro — In-Place Appends (IPA) on flash: a full reproduction.

Reproduces Hardock, Petrov, Buchmann, Gottstein: "From In-Place Updates
to In-Place Appends: Revisiting Out-of-Place Updates on Flash"
(SIGMOD 2017) as a working Python system:

* :mod:`repro.flash` — a NAND array simulator with ISPP in-place
  append semantics, SLC/MLC page kinds, wear, ECC, and fault models;
* :mod:`repro.ftl` — NoFTL (page mapping, greedy GC, regions, the
  ``write_delta`` command) plus a conventional block-device SSD variant;
* :mod:`repro.storage` — a Shore-MT-shaped storage engine: slotted NSM
  pages with a delta-record area, buffer pool, WAL, transactions,
  B+-tree indexes, restart recovery;
* :mod:`repro.core` — the contribution: the [N x M] scheme, the delta
  record codec, the flush/fetch manager, and the IPA advisor;
* :mod:`repro.ipl` — the In-Page Logging baseline and trace replay;
* :mod:`repro.workloads` — TPC-B, TPC-C, TATP and LinkBench generators;
* :mod:`repro.analysis` — update-size CDFs, amplification formulas,
  report rendering;
* :mod:`repro.testbed` — factories for the paper's two platforms (the
  16-chip flash emulator and the OpenSSD Jasmine board) and the other
  backends, plus ``build_engine`` over a device you built;
* :mod:`repro.session` — the unified construction API: one typed
  :class:`~repro.session.SessionConfig`;
  :func:`~repro.session.open_device` picks a backend by name and
  :func:`~repro.session.open_session` builds the whole stack.

The simulated counts of the hot paths are pinned by the test suite
(``tests/test_sim_counts.py``); wall-clock measurement lives in
``bench/`` at the repo root.

Quick start::

    from repro import SessionConfig, open_session
    from repro.core import NxMScheme
    from repro.testbed import load_scaled
    from repro.workloads import TPCB

    session = open_session(SessionConfig(
        logical_pages=1000, scheme=NxMScheme(2, 4)))
    driver = load_scaled(session.engine, TPCB(), buffer_fraction=0.2)
    result = driver.run(5000)
    print(result.engine_summary["device"])
"""

__version__ = "1.1.0"

from . import analysis, core, errors, flash, ftl, ipl, storage, testbed, workloads
from .session import Session, SessionConfig, open_device, open_session

__all__ = [
    "Session",
    "SessionConfig",
    "__version__",
    "analysis",
    "core",
    "errors",
    "flash",
    "ftl",
    "ipl",
    "open_device",
    "open_session",
    "storage",
    "testbed",
    "workloads",
]
