"""The buffer-fraction measurement protocol: :func:`load_scaled`.

Every benchmark table sizes the DBMS buffer as "X% of the initial
DB-size" (Section 8.2's 10%-90% sweeps).  :func:`load_scaled` loads a
workload into an engine built by :func:`repro.session.open_session`,
then shrinks the buffer pool to that fraction of what the load wrote.
"""

from __future__ import annotations

from .errors import ReproError
from .storage.engine import StorageEngine
from .workloads.base import Driver, Workload

__all__ = ["MIN_BUFFER_PAGES", "load_scaled"]

#: Smallest buffer pool an engine is sized to.
MIN_BUFFER_PAGES = 8


def load_scaled(
    engine: StorageEngine,
    workload: Workload,
    buffer_fraction: float,
    seed: int = 7,
) -> Driver:
    """Load a workload, then size the buffer to a fraction of the DB.

    Implements the paper's measurement protocol: databases are loaded
    first, then the DBMS buffer is set to ``buffer_fraction`` (in
    (0, 1]) of the *initial* DB size, never below
    :data:`MIN_BUFFER_PAGES` frames.
    """
    if not 0.0 < buffer_fraction <= 1.0:
        raise ReproError(
            f"buffer fraction must be in (0, 1], got {buffer_fraction}"
        )
    driver = Driver(engine, workload, seed=seed)
    driver.load()
    target = max(MIN_BUFFER_PAGES, int(engine.loaded_pages() * buffer_fraction))
    engine.pool.resize(target, engine.clock)
    engine.flush_all()
    driver._reset_measurements()
    return driver
