"""AsyncSingleFlight: compute-once semantics and failure isolation."""

from __future__ import annotations

import asyncio

import pytest

from repro.aio import AsyncSingleFlight
from repro.cache import LruCache, set_caching_enabled


@pytest.fixture(autouse=True)
def _caching_on():
    set_caching_enabled(True)
    yield
    set_caching_enabled(None)


def constant(value, calls: list):
    async def compute():
        calls.append(1)
        return value

    return compute


def test_serves_cached_value_without_recompute():
    async def scenario():
        flight = AsyncSingleFlight(LruCache("sf.basic"))
        calls: list = []
        assert await flight.get_or_compute("k", constant(42, calls)) == 42
        assert await flight.get_or_compute("k", constant(99, calls)) == 42
        assert len(calls) == 1

    asyncio.run(scenario())


def test_concurrent_tasks_compute_once():
    async def scenario():
        flight = AsyncSingleFlight(LruCache("sf.once"))
        entered, release = asyncio.Event(), asyncio.Event()
        compute_count = [0]

        async def compute():
            compute_count[0] += 1
            entered.set()
            await release.wait()
            return "value"

        holder = asyncio.create_task(flight.get_or_compute("k", compute))
        await asyncio.wait_for(entered.wait(), 30)  # the holder is mid-compute
        joiners = [
            asyncio.create_task(flight.get_or_compute("k", compute)) for _ in range(4)
        ]
        await asyncio.sleep(0)  # every joiner reaches the holder's event
        assert flight.joins == 4
        release.set()
        results = await asyncio.wait_for(asyncio.gather(holder, *joiners), 30)
        assert results == ["value"] * 5
        assert compute_count[0] == 1

    asyncio.run(scenario())


def test_failed_holder_does_not_poison_joiners():
    """The holder's exception stays its own; a joiner retries and wins."""

    async def scenario():
        flight = AsyncSingleFlight(LruCache("sf.fail"))
        entered, release = asyncio.Event(), asyncio.Event()
        attempts = [0]

        async def compute():
            attempts[0] += 1
            if attempts[0] == 1:
                entered.set()
                await release.wait()
                raise RuntimeError("holder dies")
            return "recovered"

        holder = asyncio.create_task(flight.get_or_compute("k", compute))
        await asyncio.wait_for(entered.wait(), 30)
        joiners = [
            asyncio.create_task(flight.get_or_compute("k", compute)) for _ in range(2)
        ]
        await asyncio.sleep(0)
        release.set()
        outcomes = await asyncio.wait_for(
            asyncio.gather(holder, *joiners, return_exceptions=True), 30
        )
        assert isinstance(outcomes[0], RuntimeError)  # exactly the holder
        assert outcomes[1:] == ["recovered", "recovered"]
        assert attempts[0] == 2  # one joiner became the new holder, one joined it
        # The in-flight table is clean: a later caller hits the cache.
        assert await flight.get_or_compute("k", constant("later", [])) == "recovered"

    asyncio.run(scenario())


def test_kill_switch_bypasses_sharing():
    async def scenario():
        flight = AsyncSingleFlight(LruCache("sf.off"))
        set_caching_enabled(False)
        calls: list = []
        assert await flight.get_or_compute("k", constant("a", calls)) == "a"
        assert await flight.get_or_compute("k", constant("b", calls)) == "b"
        assert len(calls) == 2

    asyncio.run(scenario())


def test_join_metric_counts_per_level():
    from repro.obs.metrics import MetricsRegistry

    async def scenario():
        registry = MetricsRegistry()
        flight = AsyncSingleFlight(
            LruCache("sf.metric"), metrics=registry, metric_label="unit"
        )
        entered, release = asyncio.Event(), asyncio.Event()

        async def compute():
            entered.set()
            await release.wait()
            return 1

        holder = asyncio.create_task(flight.get_or_compute("k", compute))
        await asyncio.wait_for(entered.wait(), 30)
        joiner = asyncio.create_task(flight.get_or_compute("k", compute))
        await asyncio.sleep(0)
        release.set()
        await asyncio.wait_for(asyncio.gather(holder, joiner), 30)
        assert (
            registry.value("sched.coalesce_hits", labels={"level": "unit"})
            == flight.joins
            == 1
        )

    asyncio.run(scenario())
