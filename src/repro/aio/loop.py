"""One owned event loop on a daemon thread, with a sync facade.

The TCP transport (:mod:`repro.aio.transport_tcp`) *owns* its event loop
rather than borrowing the caller's, so its sync ``send``/``receive``
keep working whether or not the caller has a loop running.
:class:`LoopThread` encapsulates that ownership — it starts the loop
lazily on a daemon thread, bridges sync callers in via
:func:`asyncio.run_coroutine_threadsafe`, and stops the loop cleanly on
close.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Any, Coroutine

__all__ = ["LoopThread"]


class LoopThread:
    """A lazily-started daemon thread running one asyncio event loop."""

    def __init__(self, name: str = "repro-aio-loop") -> None:
        self.name = name
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._lock = threading.Lock()
        self._closed = False

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The owned loop, starting the thread on first access."""
        self._ensure()
        assert self._loop is not None
        return self._loop

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _ensure(self) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError(f"{self.name}: loop thread is closed")
            if self._thread is not None:
                return
            self._loop = asyncio.new_event_loop()
            self._thread = threading.Thread(
                target=self._run, name=self.name, daemon=True
            )
            self._thread.start()
        self._started.wait()

    def _run(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        self._loop.call_soon(self._started.set)
        try:
            self._loop.run_forever()
        finally:
            # Cancel whatever is still pending, then let cancellations run.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()

    # -- sync facade -------------------------------------------------------

    def submit(self, coro: Coroutine) -> concurrent.futures.Future:
        """Schedule ``coro`` on the owned loop; returns a waitable future."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def run(self, coro: Coroutine, timeout: float | None = None) -> Any:
        """Run ``coro`` on the owned loop and block for its result."""
        return self.submit(coro).result(timeout)

    def close(self) -> None:
        """Stop the loop and join the thread (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
