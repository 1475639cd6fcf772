"""Every entry point the end-to-end benchmark traces must still exist.

``benchmarks/e2e/layers.py`` wraps the functions named in ``ENTRY_POINTS``
and ``Tracing.__enter__`` raises when a path does not resolve to a plain
function — but only the traced benchmark run executes that, so a rename
under ``src/`` would otherwise pass the whole test suite.
"""

import importlib.util
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "layers.py"


def load_layers():
    """``benchmarks/e2e/layers.py`` as a module (it is not on the test path)."""
    spec = importlib.util.spec_from_file_location("e2e_layers_under_test", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_entry_point_is_a_plain_function():
    layers = load_layers()
    assert layers.ENTRY_POINTS
    broken = []
    for _name, path, _units in layers.ENTRY_POINTS:
        owner, attr = layers._resolve(path)
        if not inspect.isfunction(vars(owner).get(attr)):
            broken.append(path)
    assert not broken, f"renamed, moved or no longer plain functions: {broken}"
