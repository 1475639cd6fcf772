"""One body, two runners: the sync names of the coroutine protocol drivers.

Every protocol driver (``secure_*``, the §4.1 integrity rounds,
``supervise_ring``, ``QueryExecutor.execute``) is written once, as the
``async def X_async`` coroutine whose only awaits are
``await net.drain(...)`` and the drivers it calls.  A
:class:`~repro.net.simnet.SimNetwork` drain never suspends, so
:func:`run_sync` runs the coroutine start to finish with one ``send`` in
the caller's thread — and ``X = sync_twin(X_async)`` is the sync name.
"""

from __future__ import annotations

import functools

from repro.errors import ConfigurationError

__all__ = ["run_sync", "sync_twin"]


def run_sync(coro):
    """Run a coroutine that never suspends to completion; return its value.

    Exceptions raised by the body propagate unchanged.  A coroutine that
    yields at all was handed something only an event loop can resume (an
    ``asyncio`` future, a transport whose drain awaits one): it is closed
    — its ``finally`` blocks and span exits run — and
    :class:`ConfigurationError` is raised.
    """
    try:
        coro.send(None)
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
