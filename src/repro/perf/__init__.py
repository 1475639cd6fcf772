"""Performance subsystem: pluggable engines for the bulk-crypto hot path.

See :mod:`repro.perf.engine` for the engine interface and the
``REPRO_PERF_ENGINE`` environment knob.  ``docs/perf.md`` has the tuning
guide.
"""

from repro.perf.engine import (
    AutoEngine,
    ExponentiationEngine,
    ProcessPoolEngine,
    SerialEngine,
    get_default_engine,
    resolve_engine,
    shutdown_shared_pool,
)

__all__ = [
    "AutoEngine",
    "ExponentiationEngine",
    "ProcessPoolEngine",
    "SerialEngine",
    "get_default_engine",
    "resolve_engine",
    "shutdown_shared_pool",
]
