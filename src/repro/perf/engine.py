"""Pluggable bulk modular-exponentiation engines.

Every relaxed-SMC protocol in the reproduction spends essentially all of
its CPU time in per-element ``pow(m, e, p)`` calls — the commutative
cipher's encrypt/decrypt, accumulator witnesses, hash-encoding squares.
CPython holds the GIL throughout a big-int ``pow``, so threads cannot
help; this module fans the work out across *processes* instead, behind a
tiny engine interface that every bulk crypto API accepts:

* :class:`SerialEngine` — the plain list comprehension.  Zero overhead,
  the right choice for small inputs and small moduli.
* :class:`ProcessPoolEngine` — chunked fan-out over ``os.cpu_count()``
  workers.  Results are byte-identical to the serial engine (same
  ``pow``), just computed concurrently.
* :class:`AutoEngine` — estimates the workload (elements × modulus bits²
  × exponent bits) and dispatches to the pool only past a crossover
  threshold, so small sets never pay pool/IPC overhead.

Selection: pass an engine (or spec string) explicitly, set the
``REPRO_PERF_ENGINE`` environment variable (``serial`` / ``process`` /
``auto``), or take the default (``auto``).  The pool is ``os.cpu_count()``
wide and the auto crossover is :data:`DEFAULT_THRESHOLD_WORK`; the
``workers=`` and ``threshold_work=`` constructor arguments override them.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor

from repro.errors import ConfigurationError, ParameterError

__all__ = [
    "ExponentiationEngine",
    "SerialEngine",
    "ProcessPoolEngine",
    "AutoEngine",
    "resolve_engine",
    "get_default_engine",
    "set_default_engine",
    "shutdown_shared_pool",
    "ensure_shutdown_at_exit",
    "register_shutdown_hook",
    "unregister_shutdown_hook",
]

ENGINE_ENV_VAR = "REPRO_PERF_ENGINE"

# Auto crossover, in abstract work units (elements × mod_bits² × exp_bits).
# Calibrated so 512 elements at 512-bit prime (~0.3 s serial) parallelise
# while the 64/128-bit test-sized workloads stay serial.
DEFAULT_THRESHOLD_WORK = 1 << 31


def _pow_chunk(bases: list[int], exponent: int, modulus: int) -> list[int]:
    """Worker task: shared exponent over a slice of bases."""
    return [pow(b, exponent, modulus) for b in bases]


def _pow_chunk_pairs(pairs: list[tuple[int, int]], modulus: int) -> list[int]:
    """Worker task: per-element (base, exponent) pairs."""
    return [pow(b, e, modulus) for b, e in pairs]


def _check_lengths(bases, exponent) -> None:
    if not isinstance(exponent, int) and len(exponent) != len(bases):
        raise ParameterError(
            f"per-element exponent list length {len(exponent)} "
            f"!= base count {len(bases)}"
        )


class ExponentiationEngine:
    """Interface: compute ``[pow(b, e, m) for b, e in ...]`` in bulk.

    ``exponent`` is either one shared ``int`` or a list aligned with
    ``bases``.  Implementations must preserve order and produce results
    identical to the serial evaluation — parallelism is an implementation
    detail, never a semantic one.
    """

    name = "abstract"

    def pow_many(self, bases: list[int], exponent, modulus: int) -> list[int]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class SerialEngine(ExponentiationEngine):
    """In-process evaluation — the baseline every other engine must match."""

    name = "serial"

    def pow_many(self, bases: list[int], exponent, modulus: int) -> list[int]:
        _check_lengths(bases, exponent)
        if isinstance(exponent, int):
            return [pow(b, exponent, modulus) for b in bases]
        return [pow(b, e, modulus) for b, e in zip(bases, exponent)]


class ProcessPoolEngine(ExponentiationEngine):
    """Chunked fan-out over a lazily-created process pool.

    The pool is created on first use (so merely constructing the engine —
    e.g. inside ``AutoEngine`` — costs nothing) and prefers the ``fork``
    start method where available: workers only ever run built-in ``pow``,
    and fork avoids re-importing the world per worker.
    """

    name = "process"

    def __init__(self, workers: int | None = None, chunks_per_worker: int = 4) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigurationError("process engine needs at least one worker")
        if chunks_per_worker < 1:
            raise ConfigurationError("chunks_per_worker must be positive")
        self.workers = workers
        self.chunks_per_worker = chunks_per_worker
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                try:
                    mp_context = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX platforms
                    mp_context = multiprocessing.get_context()
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=mp_context
                )
            return self._pool

    def _chunk_size(self, n: int) -> int:
        return max(1, math.ceil(n / (self.workers * self.chunks_per_worker)))

    def pow_many(self, bases: list[int], exponent, modulus: int) -> list[int]:
        _check_lengths(bases, exponent)
        if not bases:
            return []
        pool = self._ensure_pool()
        step = self._chunk_size(len(bases))
        if isinstance(exponent, int):
            futures = [
                pool.submit(_pow_chunk, bases[i : i + step], exponent, modulus)
                for i in range(0, len(bases), step)
            ]
        else:
            pairs = list(zip(bases, exponent))
            futures = [
                pool.submit(_pow_chunk_pairs, pairs[i : i + step], modulus)
                for i in range(0, len(pairs), step)
            ]
        out: list[int] = []
        for future in futures:  # submission order == element order
            out.extend(future.result())
        return out

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "ProcessPoolEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# One pool for the whole process: AutoEngine instances (one per SmcContext)
# all dispatch here, so tests creating many contexts never stack up pools.
_shared_pool: ProcessPoolEngine | None = None
_shared_pool_lock = threading.Lock()


def _get_shared_pool() -> ProcessPoolEngine:
    global _shared_pool
    with _shared_pool_lock:
        if _shared_pool is None:
            _shared_pool = ProcessPoolEngine()
        return _shared_pool


def shutdown_shared_pool() -> None:
    """Tear down the process-global worker pool (it re-creates on demand).

    Idempotent: safe to call repeatedly, with or without a live pool, and
    the pool lazily re-creates on the next use.
    """
    global _shared_pool
    with _shared_pool_lock:
        if _shared_pool is not None:
            _shared_pool.close()
            _shared_pool = None


# Callables other perf consumers register to be torn down *before* the
# worker pool: a durable store's ``close`` stops its compaction worker
# and flushes every WAL while the interpreter is still whole.
_shutdown_hooks: list = []
_shutdown_hooks_lock = threading.Lock()


def register_shutdown_hook(hook) -> None:
    """Run ``hook()`` ahead of the shared pool at process shutdown.

    Idempotent per hook (comparing equal hooks registers once).  Hooks
    must themselves be idempotent: explicit shutdowns before exit are
    fine, and the atexit pass runs whatever is still registered.
    """
    with _shutdown_hooks_lock:
        if hook not in _shutdown_hooks:
            _shutdown_hooks.append(hook)


def unregister_shutdown_hook(hook) -> None:
    with _shutdown_hooks_lock:
        if hook in _shutdown_hooks:
            _shutdown_hooks.remove(hook)


def _run_shutdown_hooks() -> None:
    with _shutdown_hooks_lock:
        hooks = list(_shutdown_hooks)
    for hook in hooks:
        try:
            hook()
        except Exception:  # pragma: no cover - teardown is best-effort
            pass


def _shutdown_at_exit() -> None:
    """The atexit target: stop registered workers, then the pool."""
    _run_shutdown_hooks()
    shutdown_shared_pool()


_atexit_registered = False
_atexit_lock = threading.Lock()


def ensure_shutdown_at_exit() -> None:
    """Register :func:`_shutdown_at_exit` with :mod:`atexit`, once.

    Without this, a process that used the shared pool but never called
    ``shutdown_shared_pool`` explicitly could hang at interpreter exit
    waiting on worker processes (seen with short-lived benchmark runs).
    Registration is idempotent; the hook itself is too, so explicit
    shutdowns before exit are fine.
    """
    global _atexit_registered
    with _atexit_lock:
        if not _atexit_registered:
            atexit.register(_shutdown_at_exit)
            _atexit_registered = True


ensure_shutdown_at_exit()


class AutoEngine(ExponentiationEngine):
    """Crossover dispatcher: serial below the threshold, pool above.

    The workload estimate is ``len(bases) * mod_bits² * exp_bits`` —
    ``pow`` cost is roughly quadratic in modulus bits and linear in
    exponent bits — compared against ``threshold_work``.  Single-worker
    hosts always stay serial (a pool of one only adds IPC).
    """

    name = "auto"

    def __init__(
        self,
        threshold_work: int = DEFAULT_THRESHOLD_WORK,
        pool: ProcessPoolEngine | None = None,
    ) -> None:
        if threshold_work < 0:
            raise ConfigurationError("threshold_work must be non-negative")
        self.threshold_work = threshold_work
        self._serial = SerialEngine()
        self._pool = pool  # None -> process-global shared pool, on demand

    def _pool_engine(self) -> ProcessPoolEngine:
        return self._pool if self._pool is not None else _get_shared_pool()

    def estimate_work(self, bases: list[int], exponent, modulus: int) -> int:
        if not bases:
            return 0
        if isinstance(exponent, int):
            exp_bits = exponent.bit_length()
        else:
            exp_bits = max((e.bit_length() for e in exponent), default=0)
        return len(bases) * modulus.bit_length() ** 2 * max(exp_bits, 1)

    def select(self, bases: list[int], exponent, modulus: int) -> ExponentiationEngine:
        """The engine a given workload would dispatch to (for introspection)."""
        pool_width = (
            self._pool.workers if self._pool is not None else (os.cpu_count() or 1)
        )
        if pool_width <= 1:
            return self._serial
        if self.estimate_work(bases, exponent, modulus) < self.threshold_work:
            return self._serial
        return self._pool_engine()

    def pow_many(self, bases: list[int], exponent, modulus: int) -> list[int]:
        return self.select(bases, exponent, modulus).pow_many(bases, exponent, modulus)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()


_SPECS = {
    "serial": SerialEngine,
    "process": ProcessPoolEngine,
    "parallel": ProcessPoolEngine,
    "auto": AutoEngine,
}

_default_engine: ExponentiationEngine | None = None
_default_lock = threading.Lock()


def resolve_engine(spec=None) -> ExponentiationEngine:
    """Turn ``None`` / a spec string / an engine instance into an engine.

    ``None`` resolves to the process-wide default (which in turn honours
    the ``REPRO_PERF_ENGINE`` environment variable).
    """
    if spec is None:
        return get_default_engine()
    if isinstance(spec, ExponentiationEngine):
        return spec
    if isinstance(spec, str):
        cls = _SPECS.get(spec.strip().lower())
        if cls is None:
            raise ConfigurationError(
                f"unknown exponentiation engine {spec!r}; "
                f"expected one of {sorted(_SPECS)}"
            )
        return cls()
    raise ConfigurationError(f"cannot resolve engine from {type(spec)!r}")


def get_default_engine() -> ExponentiationEngine:
    """The process-wide default engine (env-var driven, built lazily)."""
    global _default_engine
    with _default_lock:
        if _default_engine is None:
            spec = os.environ.get(ENGINE_ENV_VAR, "auto")
            cls = _SPECS.get(spec.strip().lower())
            if cls is None:
                raise ConfigurationError(
                    f"{ENGINE_ENV_VAR}={spec!r} is not a known engine; "
                    f"expected one of {sorted(_SPECS)}"
                )
            _default_engine = cls()
        return _default_engine


def set_default_engine(spec) -> ExponentiationEngine:
    """Install (and return) a new process-wide default.

    Pass ``None`` to reset, so the next :func:`get_default_engine` re-reads
    the environment.
    """
    global _default_engine
    if spec is None:
        with _default_lock:
            _default_engine = None
        return get_default_engine()
    engine = resolve_engine(spec)
    with _default_lock:
        _default_engine = engine
    return engine
