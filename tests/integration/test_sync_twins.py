"""The one-body seam: ``run_sync`` and the ``X = sync_twin(X_async)`` pairs.

Every protocol driver is written once, as a coroutine; its sync name is a
runner of that body (``repro.twin``).  These tests pin the runner's
contract and guard the structure, so a second hand-written body cannot
quietly grow back beside the first.
"""

from __future__ import annotations

import asyncio
import gc
import inspect
import types
import warnings

import pytest

from repro.crypto import DeterministicRng, shared_prime
from repro.errors import ConfigurationError
from repro.net.simnet import SimNetwork
from repro.smc import SmcContext, secure_set_intersection
from repro.twin import run_sync, sync_twin
from tests.integration.test_e2e_entry_points import load_layers


class TestRunSync:
    def test_returns_the_coroutine_value(self):
        async def body(x):
            return x + 1

        assert run_sync(body(41)) == 42

    def test_propagates_the_body_exception_unchanged(self):
        boom = KeyError("boom")

        async def body():
            raise boom

        with pytest.raises(KeyError) as caught:
            run_sync(body())
        assert caught.value is boom

    def test_a_bare_yield_is_refused(self):
        """No transport's drain suspends on the sync path, so even a bare
        ``None`` yield means the body needs a loop: it is closed and refused."""
        cleaned_up = []

        @types.coroutine
        def bare_turn():
            yield

        async def body():
            try:
                await bare_turn()
            finally:
                cleaned_up.append(True)

        with pytest.raises(ConfigurationError, match="suspended under a sync name"):
            run_sync(body())
        assert cleaned_up == [True]

    def test_suspending_coroutine_is_closed_and_refused(self):
        cleaned_up = []
        loop = asyncio.new_event_loop()

        async def body():
            try:
                await loop.create_future()
            finally:
                cleaned_up.append(True)

        coro = body()
        with warnings.catch_warnings():
            # "never awaited" / "ignored GeneratorExit" would surface here.
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="suspended under a sync name"):
                run_sync(coro)
            assert inspect.getcoroutinestate(coro) == inspect.CORO_CLOSED
            del coro
            gc.collect()
        loop.close()
        assert cleaned_up == [True]

    def test_sync_name_refuses_an_event_loop_transport(self):
        """A transport whose drain awaits a real asyncio future can only be
        resumed by a loop, so a sync name closes the body and refuses it."""
        loop = asyncio.new_event_loop()

        class LoopBoundNetwork(SimNetwork):
            async def drain(self, *args, **kwargs):
                await loop.create_future()

        sets = {"P1": ["a", "b"], "P2": ["b", "c"]}
        ctx = SmcContext(shared_prime(64), DeterministicRng(b"twin"))
        try:
            with pytest.raises(ConfigurationError, match="secure_set_intersection_async"):
                secure_set_intersection(ctx, sets, net=LoopBoundNetwork())
        finally:
            loop.close()

    def test_twin_is_a_plain_function_named_after_the_sync_name(self):
        async def probe_async(a, b=2):
            """Doc."""
            return a * b

        probe = sync_twin(probe_async)
        assert inspect.isfunction(probe) and not inspect.iscoroutinefunction(probe)
        assert probe.__name__ == "probe" and probe.__doc__ == "Doc."
        assert inspect.signature(probe) == inspect.signature(probe_async)
        assert probe(3, b=5) == 15


def _traced_pairs():
    """``(sync path, async path)`` for every ``X`` / ``X_async`` pair the
    end-to-end benchmark traces."""
    layers = load_layers()
    paths = {path for _name, path, _units in layers.ENTRY_POINTS}
    pairs = sorted(
        (path.removesuffix("_async"), path)
        for path in paths
        if path.endswith("_async") and path.removesuffix("_async") in paths
    )
    return layers, pairs


_LAYERS, _PAIRS = _traced_pairs()


def test_the_benchmark_traces_every_driver_pair():
    # seven secure_* drivers, three ring rounds, QueryExecutor.execute
    assert len(_PAIRS) == 11


@pytest.mark.parametrize("sync_path,async_path", _PAIRS)
def test_sync_name_is_a_runner_of_the_async_body(sync_path, async_path):
    owner, attr = _LAYERS._resolve(sync_path)
    sync_fn = vars(owner)[attr]
    owner, attr = _LAYERS._resolve(async_path)
    body = vars(owner)[attr]
    assert inspect.iscoroutinefunction(body)
    assert not inspect.iscoroutinefunction(sync_fn)
    assert sync_fn.__wrapped__ is body
    # Its code *is* sync_twin's three-line runner, and it reaches the body
    # through the closure, never by (patchable) name.
    assert sync_fn.__code__ is sync_twin(body).__code__
    assert [cell.cell_contents for cell in sync_fn.__closure__] == [body]


def test_no_pair_outside_aio_has_two_bodies():
    """Sweep every ``repro`` module and class: wherever ``X_async`` and
    ``X`` both exist, ``X`` must be the runner of ``X_async``."""
    import importlib
    import pkgutil

    import repro

    pairs = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.startswith("repro.aio") or info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        owners = [module] + [
            value
            for value in vars(module).values()
            if inspect.isclass(value) and value.__module__ == module.__name__
        ]
        for owner in owners:
            for name, body in vars(owner).items():
                twin = vars(owner).get(name.removesuffix("_async"))
                if name.endswith("_async") and inspect.isfunction(twin):
                    pairs.append(f"{owner.__name__}.{name}")
                    assert twin.__wrapped__ is body, f"{owner.__name__}.{name}"
    assert len(pairs) >= 14  # the eleven traced pairs and the untraced ones
