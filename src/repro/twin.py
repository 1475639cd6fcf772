"""One body, two runners: the sync names of the coroutine protocol drivers.

Every protocol driver (``secure_*``, the §4.1 integrity rounds,
``supervise_ring``, ``QueryExecutor.execute``) is written once, as the
``async def X_async`` coroutine whose only suspension points are
``await net.drain(...)`` and, under a scheduler, the sub-plan join.  On
an event loop those awaits interleave independent rounds: a
:class:`~repro.net.simnet.SimNetwork` drain hands the loop a turn every
:data:`~repro.net.simnet.YIELD_EVERY` deliveries with a bare ``None``
yield.  Without a loop, :func:`run_sync` resumes each such yield in
place, so the same coroutine runs start to finish in the caller's
thread — and ``X = sync_twin(X_async)`` is the sync name.
"""

from __future__ import annotations

import functools

from repro.errors import ConfigurationError

__all__ = ["run_sync", "sync_twin"]


def run_sync(coro):
    """Run a coroutine to completion without an event loop; return its value.

    A bare ``None`` yield (a network drain's loop turn) is resumed in
    place.  Exceptions raised by the body propagate unchanged.  A
    coroutine that yields anything else was handed something only an
    event loop can resume (an ``asyncio`` future, the scheduler's
    sub-plan join): it is closed — its ``finally`` blocks and span exits
    run — and :class:`ConfigurationError` is raised.
    """
    try:
        while coro.send(None) is None:
            pass
    except StopIteration as done:
        return done.value
    coro.close()
    raise ConfigurationError(
        f"{coro.__qualname__} suspended under a sync name: it awaited an "
        "event-loop future; await the _async name on a loop instead"
    )


def sync_twin(body):
    """The sync name of the coroutine function ``body`` (``X_async`` -> ``X``).

    The runner holds ``body`` in its closure, not through a module or
    class attribute, so wrapping either public name (the e2e tracer does)
    never nests one inside the other; ``__wrapped__`` is the body.
    """

    @functools.wraps(body)
    def runner(*args, **kwargs):
        return run_sync(body(*args, **kwargs))

    runner.__name__ = body.__name__.removesuffix("_async")
    runner.__qualname__ = body.__qualname__.removesuffix("_async")
    return runner
