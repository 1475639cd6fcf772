#!/usr/bin/env python3
"""Reach census: which ``src/`` functions does the running system call?

Stdlib only.  Runs the system's entry points in child processes, each
under a ``sys.setprofile`` / ``threading.setprofile`` hook installed by a
temporary ``sitecustomize`` module on ``PYTHONPATH`` (so the scheduler's
worker thread and every child a run starts are counted too):

* the five end-to-end workloads, ``python -m benchmarks.e2e.run --smoke
  --traced`` (one untraced and one traced child per workload);
* the CLI, ``python -m repro`` plain and with ``--trace-out``, then
  ``python -m repro trace-report`` on that trace (table, ``--tree``,
  ``--critical-path``);
* every script in ``examples/``;
* the paper benchmarks (``bench_fig*``, ``bench_table*``, ``bench_sec5*``,
  ``bench_x*``, ``bench_a*``) through ``pytest --benchmark-disable``.

It then lists every function or method defined under ``src/`` (nested
functions excepted) that no entry point called, grouped by file with its
body lines, and exits 1 if one of them is not named in the "Reach
census" section of ``DESIGN.md``.  A name counts as named when it
appears in backticks on a table row of that section whose first cell
is the function's file (``repro/pkg/mod.py``); ``Class.*`` names every
method of a class.  Process-pool workers exit through ``os._exit`` and
an HTTP scrape never happens here, so what only they run is listed and
has to be named with that reason.

Usage::

    python tools/reach.py
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
DESIGN = REPO / "DESIGN.md"
SECTION = "Reach census"
PAPER_BENCHMARKS = ("bench_fig*", "bench_table*", "bench_sec5*", "bench_x*", "bench_a*")

# Installed in every child interpreter: record each code object that is
# called (by id, so the hook never hashes a code object), and at exit
# write the ``src/`` ones as ``file:first line`` to a file of its own.
# A profile hook that raises (a RecursionError at the recursion limit) is
# unset by the interpreter, so an audit hook, which fires on imports,
# opens and the like, puts it back.
SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_seen = {}
_out = os.environ["REACH_OUT"]
_src = os.environ["REACH_SRC"]
_armed = [True]


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen[id(code)] = code


def _rearm(event, args):
    if _armed[0] and event != "sys.setprofile" and sys.getprofile() is None:
        sys.setprofile(_hook)


def _dump():
    _armed[0] = False
    sys.setprofile(None)
    codes = list(dict(_seen).values())
    lines = {f"{c.co_filename}:{c.co_firstlineno}" for c in codes
             if c.co_filename.startswith(_src)}
    path = os.path.join(_out, f"{os.getpid()}.txt")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\\n".join(sorted(lines)) + "\\n")


atexit.register(_dump)
sys.addaudithook(_rearm)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def entry_points(trace_path: str) -> list[list[str]]:
    """The commands whose reach is the system's."""
    py = sys.executable
    commands = [
        [py, "-m", "benchmarks.e2e.run", "--smoke", "--traced"],
        [py, "-m", "repro"],
        [py, "-m", "repro", "--trace-out", trace_path],
        [py, "-m", "repro", "trace-report", trace_path],
        [py, "-m", "repro", "trace-report", "--tree", trace_path],
        [py, "-m", "repro", "trace-report", "--critical-path", trace_path],
    ]
    commands += [[py, str(p)] for p in sorted((REPO / "examples").glob("*.py"))]
    benches = sorted(
        str(p.relative_to(REPO))
        for pattern in PAPER_BENCHMARKS
        for p in (REPO / "benchmarks").glob(f"{pattern}.py")
    )
    commands.append([
        py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "--benchmark-disable", *benches,
    ])
    return commands


def defined_functions() -> dict[tuple[str, int], tuple[str, str, int]]:
    """``(file, first line) -> (module path, qualname, body lines)``.

    The first line is the code object's: the first decorator's line for a
    decorated function.  Functions nested in functions are left out: they
    run whenever their enclosing function's branch does.
    """
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                body = child.end_lineno - child.body[0].lineno + 1
                rel = str(path.relative_to(SRC))
                found[(str(path), first)] = (rel, prefix + child.name, body)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path)
    return found


def run_entry_points() -> set[tuple[str, int]]:
    reached = set()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        hook_dir = Path(tmp, "hook")
        out_dir = Path(tmp, "out")
        hook_dir.mkdir()
        out_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(SRC), str(REPO)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["REACH_OUT"] = str(out_dir)
        env["REACH_SRC"] = str(SRC) + os.sep
        for command in entry_points(str(Path(tmp, "trace.jsonl"))):
            shown = " ".join(Path(c).name if os.sep in c else c for c in command)
            print(f"reach: {shown[:100]}", file=sys.stderr, flush=True)
            result = subprocess.run(
                command, cwd=REPO, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            if result.returncode != 0:
                sys.stderr.write(result.stderr[-4000:])
                raise SystemExit(f"reach: entry point failed: {shown}")
        for dump in out_dir.glob("*.txt"):
            for line in dump.read_text(encoding="utf-8").split():
                path, _, lineno = line.rpartition(":")
                reached.add((path, int(lineno)))
    return reached


def named_in_design() -> dict[str, set[str]]:
    """Module path -> the names the DESIGN.md census table gives it."""
    text = DESIGN.read_text(encoding="utf-8")
    match = re.search(rf"^## [\d.]*\s*{SECTION}\b.*?(?=^## |\Z)", text, re.M | re.S)
    names = defaultdict(set)
    if match is None:
        return names
    for row in match.group(0).splitlines():
        cells = row.split("|")
        if len(cells) < 3:
            continue
        module = re.search(r"`(repro/[\w/]+\.py)`", cells[1])
        if module:
            names[module.group(1)].update(re.findall(r"`([\w.*]+)`", "|".join(cells[2:])))
    return names


def is_named(qualname: str, names: set[str]) -> bool:
    owner = qualname.rpartition(".")[0]
    return qualname in names or (bool(owner) and f"{owner}.*" in names)


def main() -> int:
    functions = defined_functions()
    reached = run_entry_points()
    names = named_in_design()
    unreached = defaultdict(list)
    for key, (module, qualname, body) in functions.items():
        if key not in reached:
            unreached[module].append((qualname, body))
    missing = []
    total_lines = 0
    for module in sorted(unreached):
        rows = sorted(unreached[module])
        lines = sum(body for _, body in rows)
        total_lines += lines
        print(f"{module}  ({len(rows)} functions, {lines} body lines)")
        for qualname, body in rows:
            ok = is_named(qualname, names.get(module, set()))
            print(f"  {qualname:60s} {body:4d}{'' if ok else '  NOT NAMED'}")
            if not ok:
                missing.append(f"{module}::{qualname}")
    count = sum(len(v) for v in unreached.values())
    print(f"\n{len(functions)} functions under src/; {len(functions) - count} reached, "
          f"{count} not reached ({total_lines} body lines)")
    if missing:
        print(f"{len(missing)} not named in DESIGN.md \"{SECTION}\":")
        for name in missing:
            print(f"  {name}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
