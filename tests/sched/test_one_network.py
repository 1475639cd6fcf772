"""One simulated network class, one network per query, no channel type.

Every sync call and every scheduled query runs over a ``SimNetwork`` of its
own, so nothing under ``src/`` multiplexes one: there is no mux, no
subclass of the network, and ``repro.sched.channel`` is only the alias the
benchmark's tracer pins.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.net.simnet import SimNetwork
from repro.sched.channel import Channel
from repro.sched.scheduler import QueryScheduler

SRC = Path(repro.__file__).resolve().parents[1]


def _modules():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            yield importlib.import_module(info.name)


def _importers(module_name: str) -> list[str]:
    """Modules under ``src/`` that import ``module_name`` (or a name from it)."""
    found = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if module_name in names:
                found.append(path.relative_to(SRC).as_posix())
    return found


def test_scheduler_imports_first_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import repro.sched.scheduler as s; print(s.QueryScheduler.__name__)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "QueryScheduler"


def test_scheduler_constructor_imports_nothing():
    tree = ast.parse(textwrap.dedent(inspect.getsource(QueryScheduler.__init__)))
    imports = [
        node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports == []


def test_no_mux_name_under_repro():
    names = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name in vars(module)
        if "mux" in name.lower()
    ]
    assert names == []


def test_channel_is_the_only_alias_and_nothing_under_src_imports_it():
    from repro.sched import channel

    assert Channel is SimNetwork
    public = {name for name in vars(channel) if not name.startswith("_")}
    assert public == {"Channel", "SimNetwork"}
    assert _importers("repro.sched.channel") == []


def test_no_class_under_src_subclasses_the_network_or_the_channel():
    subclasses = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name, value in vars(module).items()
        if inspect.isclass(value)
        and value.__module__ == module.__name__
        and issubclass(value, SimNetwork)
        and value is not SimNetwork
    ]
    assert subclasses == []


def test_the_benchmark_names_are_aliases_no_module_imports():
    from repro.aio import simnet

    assert simnet.AsyncSimNetwork is SimNetwork
    assert simnet.AsyncChannel is SimNetwork
    assert _importers("repro.aio.simnet") == []
