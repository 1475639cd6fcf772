"""``pyproject.toml`` declares no runtime dependency, so ``import repro``
must load nothing outside the standard library."""

import json
import subprocess
import sys

PROBE = """
import json, sys
before = set(sys.modules)
import repro
# multiprocessing registers ``__main__`` again as ``__mp_main__``.
new = [n for n in set(sys.modules) - before if sys.modules[n] is not sys.modules["__main__"]]
print(json.dumps(sorted({name.partition(".")[0] for name in new})))
"""


def test_import_repro_loads_only_the_standard_library():
    # A fresh interpreter: the test session has long since imported pytest,
    # hypothesis and whatever else the suite uses.
    out = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True
    ).stdout
    loaded = set(json.loads(out))
    assert "repro" in loaded
    assert sorted(loaded - set(sys.stdlib_module_names) - {"repro"}) == []
