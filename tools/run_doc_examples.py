#!/usr/bin/env python3
"""Execute the documentation's runnable code examples.

Docs rot fastest where they show code, so CI executes the fenced
``python`` blocks that are written to be self-contained, plus a curated
set of the ``examples/`` scripts.  The allowlists below are *curated*:
many blocks are intentionally elliptical (``...`` placeholders,
fragments referencing objects defined in prose) and can never run —
listing a block or script here is a promise that it stays executable
against the current API.

Each allowlisted block runs in its own fresh namespace with ``src/`` on
``sys.path``; an exception anywhere is a CI failure pointing at the doc
file and block.

Usage::

    python tools/run_doc_examples.py          # run the allowlist
    python tools/run_doc_examples.py --list   # show every python block
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

#: file (repo-relative) -> 0-based ordinals among that file's ```python blocks.
ALLOWLIST: dict[str, list[int]] = {
    "README.md": [0],               # Quickstart: full service round-trip
    "docs/observability.md": [0,    # Tracer spans/events
                              2,    # handler spans on a traced SimNetwork
                              4],   # collect(service): the /metrics registry
    "docs/resilience.md": [0,       # RetryPolicy / Deadline knobs
                           1],      # failover: crash -> degraded result
}

#: example scripts (under examples/) run end-to-end as subprocesses.
#: Curated like the block allowlist: listing a script here promises it
#: stays runnable in CI; scripts that need a terminal or long wall time
#: stay out.
EXAMPLE_SCRIPTS: list[str] = [
    "quickstart.py",        # minimal service round-trip
    "integrity_audit.py",   # accumulator ring catches a tampered node
    "durable_restart.py",   # crash with a torn WAL tail -> clean recovery
    "async_fanout.py",      # 256-query submit/gather burst
]

_BLOCK = re.compile(r"^```python[^\n]*\n(.*?)^```\s*$", re.MULTILINE | re.DOTALL)


def python_blocks(path: Path) -> list[str]:
    return _BLOCK.findall(path.read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    if "--list" in argv:
        for rel in ["README.md", *sorted(
            str(p.relative_to(REPO)) for p in (REPO / "docs").glob("*.md")
        )]:
            for i, block in enumerate(python_blocks(REPO / rel)):
                mark = "RUN " if i in ALLOWLIST.get(rel, []) else "skip"
                first = block.strip().splitlines()[0] if block.strip() else ""
                print(f"{mark}  {rel}[{i}]  {first}")
        for path in sorted((REPO / "examples").glob("*.py")):
            mark = "RUN " if path.name in EXAMPLE_SCRIPTS else "skip"
            print(f"{mark}  examples/{path.name}")
        return 0

    failures = 0
    ran = 0
    for rel, ordinals in ALLOWLIST.items():
        blocks = python_blocks(REPO / rel)
        for i in ordinals:
            if i >= len(blocks):
                print(f"FAIL  {rel}[{i}]: block does not exist "
                      f"({len(blocks)} python blocks found)", file=sys.stderr)
                failures += 1
                continue
            ran += 1
            try:
                exec(compile(blocks[i], f"{rel}[{i}]", "exec"), {})
                print(f"ok    {rel}[{i}]")
            except Exception:
                failures += 1
                print(f"FAIL  {rel}[{i}]", file=sys.stderr)
                traceback.print_exc()

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    for name in EXAMPLE_SCRIPTS:
        script = REPO / "examples" / name
        if not script.exists():
            print(f"FAIL  examples/{name}: script does not exist",
                  file=sys.stderr)
            failures += 1
            continue
        ran += 1
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, cwd=REPO,
        )
        if proc.returncode != 0:
            failures += 1
            print(f"FAIL  examples/{name} (exit {proc.returncode})",
                  file=sys.stderr)
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        else:
            print(f"ok    examples/{name}")
    print(f"ran {ran} documentation examples: {failures} failed")
    return failures


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
