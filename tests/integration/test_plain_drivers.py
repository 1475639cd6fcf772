"""One body per protocol driver, and no event loop under ``src/``.

Every protocol driver is a plain function that drains a ``SimNetwork``
in the caller's thread, and the socket transport is a ``selectors`` loop
(``repro.net.tcp``).  These tests guard the structure, so a coroutine
or a second body cannot quietly grow back: no ``async def``, ``await``
or ``import asyncio`` anywhere under ``src/``, and each ``_async`` name
the end-to-end benchmark pins is a distinct one-line forwarding function
that nothing under ``src/`` calls.
"""

from __future__ import annotations

import importlib
import inspect
import io
import os
import pkgutil
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import repro
from tests.integration.test_e2e_entry_points import load_layers

SRC = Path(repro.__file__).resolve().parent


def _code_tokens(path: Path):
    """``(line, token)`` for every name token of ``path`` (no comments or strings)."""
    source = path.read_text(encoding="utf-8")
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            yield tok.start[0], tok.string


def test_no_coroutine_or_asyncio_under_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tokens = list(_code_tokens(path))
        for (line, word), (_next_line, after) in zip(tokens, tokens[1:] + [(0, "")]):
            if word in ("async", "await") or (word == "import" and after == "asyncio"):
                found.append(f"{path.relative_to(SRC)}:{line}: {word} {after}")
        text = path.read_text(encoding="utf-8")
        if re.search(r"^\s*from\s+asyncio\b", text, re.M):
            found.append(f"{path.relative_to(SRC)}: from asyncio")
    assert found == []


def test_the_removed_runners_and_loop_are_gone():
    for name in ("repro.twin", "repro.aio.loop", "repro.aio.transport_tcp"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(name)
    aio = importlib.import_module("repro.aio")
    modules = {info.name for info in pkgutil.iter_modules(aio.__path__)}
    assert modules == {"scheduler", "simnet"}
    public = [
        name for name, value in vars(aio).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert public == ["aio_scheduler_enabled"]


def test_the_transport_and_the_aliases_import_no_asyncio():
    probe = (
        "import sys, repro.aio, repro.aio.simnet, repro.aio.scheduler, repro.net.tcp; "
        "print('asyncio' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _pinned_pairs():
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


_LAYERS, _PAIRS = _pinned_pairs()


def test_the_benchmark_pins_eleven_driver_pairs():
    # seven secure_* drivers, three ring rounds, QueryExecutor.execute
    assert len(_PAIRS) == 11


@pytest.mark.parametrize(
    "sync_path,async_path", _PAIRS, ids=[path.partition(":")[2] for _, path in _PAIRS]
)
def test_async_alias_forwards(sync_path, async_path):
    """Each pinned ``_async`` name is a distinct plain function that
    forwards to its plain name."""
    owner, attr = _LAYERS._resolve(sync_path)
    body = vars(owner)[attr]
    owner, alias_attr = _LAYERS._resolve(async_path)
    alias = vars(owner)[alias_attr]
    for fn in (body, alias):
        assert inspect.isfunction(fn) and not inspect.iscoroutinefunction(fn)
    # Distinct objects: the tracer wraps each pinned name once, so a shared
    # object would be wrapped twice and nest two same-named spans.
    assert alias is not body
    # The alias is one line that only forwards, by name, to the one body.
    assert attr in alias.__code__.co_names
    assert len(inspect.getsource(alias).strip().splitlines()) == 1


def test_nothing_under_src_calls_an_async_name():
    names = {path.rpartition(".")[2].rpartition(":")[2] for _, path in _PAIRS}
    callers = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line, word in _code_tokens(path)
        if word in names
        and not re.match(
            rf"\s*def {word}\(", path.read_text(encoding="utf-8").splitlines()[line - 1]
        )
    ]
    assert callers == []


def test_no_name_pair_has_two_bodies():
    """Sweep every ``repro`` module and class: wherever ``X_async`` and
    ``X`` both exist, ``X_async`` is one of the pinned forwarding names."""
    pinned = {path.rpartition(":")[2].rpartition(".")[2] for _, path in _PAIRS}
    pairs = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        owners = [module] + [
            value
            for value in vars(module).values()
            if inspect.isclass(value) and value.__module__ == module.__name__
        ]
        for owner in owners:
            for name, alias in vars(owner).items():
                if name.endswith("_async") and inspect.isfunction(alias):
                    pairs.append(name)
                    assert name in pinned, f"{owner.__name__}.{name}"
                    assert alias.__code__.co_names[-1] == name.removesuffix("_async")
    assert sorted(pairs) == sorted(pinned)
