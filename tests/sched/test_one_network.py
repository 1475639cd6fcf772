"""One simulated network, one channel: no subclass pairs, no import cycle.

``SimNetwork``, ``Channel`` and ``ChannelMux`` are each one class; whether
a drain suspends follows from which one it is (a private network never
does, a mux channel does every ``YIELD_EVERY`` deliveries), not from a
subclass.  The scheduler imports them at module top like anything else.
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
from repro.sched.channel import Channel, ChannelMux
from repro.sched.scheduler import QueryScheduler

SRC = Path(repro.__file__).resolve().parents[1]


def test_scheduler_imports_first_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import repro.sched.scheduler as s; print(s.ChannelMux.__name__)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ChannelMux"


def test_scheduler_constructor_imports_nothing():
    tree = ast.parse(textwrap.dedent(inspect.getsource(QueryScheduler.__init__)))
    imports = [
        node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports == []


def test_no_class_under_src_subclasses_the_network_or_the_channel():
    roots = (SimNetwork, Channel, ChannelMux)
    subclasses = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if (
                inspect.isclass(value)
                and value.__module__ == module.__name__
                and issubclass(value, roots)
                and value not in roots
            ):
                subclasses.append(f"{module.__name__}.{name}")
    assert subclasses == []


def test_the_benchmark_names_are_aliases_no_module_imports():
    from repro.aio import simnet

    assert simnet.AsyncSimNetwork is SimNetwork
    assert simnet.AsyncChannel is Channel
    importers = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if "repro.aio.simnet" in names:
                importers.append(path.relative_to(SRC).as_posix())
    assert importers == []
