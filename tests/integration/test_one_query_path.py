"""One query path: every query the service answers runs in one scope.

``ConfidentialAuditingService._query_scope`` builds a query's own
``SmcContext``, its ``QueryExecutor`` and (through ``_fresh_net``) its
network, and merges the query's ledgers into the service's when it ends.
These tests guard the structure with an AST scan of ``repro.core`` and
``repro.sched``, so a second construction site, and with it a second
way to account for a query, cannot quietly grow back.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
SCANNED = ("core", "sched")


def _functions():
    """``(qualified name, node)`` of every function under the scanned packages."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}{child.name}", child
                yield from walk(child, f"{prefix}{child.name}.")

    for package in SCANNED:
        for path in sorted((SRC / package).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            yield from walk(tree, f"{package}/{path.stem}:")


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _own_calls(function) -> list[str]:
    """Names called in ``function``'s own body (not in nested functions)."""
    names, stack = [], list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call) and (name := _called_name(node)):
            names.append(name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _sites(name: str) -> Counter:
    """How often each scanned function calls ``name``."""
    return Counter(
        {
            qualname: count
            for qualname, function in _functions()
            if (count := _own_calls(function).count(name))
        }
    )


SCOPE = "core/service:ConfidentialAuditingService._query_scope"


def test_one_site_builds_a_query_executor():
    assert _sites("QueryExecutor") == Counter({SCOPE: 1})


def test_one_site_builds_a_per_query_context():
    """Besides the scope's, the only context is the service's own: the
    shared parameters and the ledgers every scope merges into."""
    assert _sites("SmcContext") == Counter(
        {SCOPE: 1, "core/service:ConfidentialAuditingService.__init__": 1}
    )


def test_networks_come_only_from_fresh_net():
    assert _sites("SimNetwork") == Counter(
        {"core/service:ConfidentialAuditingService._fresh_net": 1}
    )


def test_every_query_entry_point_runs_in_the_scope():
    functions = dict(_functions())
    service = "core/service:ConfidentialAuditingService."
    for entry in (
        f"{service}query",
        f"{service}aggregate",
        f"{service}audited_query",
        f"{service}mine_associations",
        "sched/scheduler:QueryScheduler._execute",
        "sched/standing:StandingQueryRegistry.evaluate_epoch",
    ):
        assert "_query_scope" in _own_calls(functions[entry]), entry
    # A rule asks its queries through the service's own ``query``.
    (call,) = [
        node
        for node in ast.walk(functions["core/auditor:Auditor.check_rule"])
        if isinstance(node, ast.Call) and _called_name(node) == "evaluate"
    ]
    assert [ast.unparse(arg) for arg in call.args] == ["self.service.query"]


def test_no_shared_executor_or_cost_diff_is_left():
    names = {qualname.rsplit(".", 1)[-1] for qualname, _ in _functions()}
    assert "_collect_cost" not in names
    for package in SCANNED:
        for path in (SRC / package).rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            assert "self.executor =" not in text, path
            assert "ops_before" not in text and "leakage_before" not in text, path


def test_standing_epochs_bypass_the_scheduler_and_the_service_owns_the_memo():
    """Standing runs take no side door into the scheduler's queue, and the
    whole-query memo is built once, by the service, not per scheduler."""
    from repro.sched import QueryHandle, QueryScheduler

    assert not hasattr(QueryScheduler, "_admit") and not hasattr(QueryHandle, "observe")
    tree = ast.parse((SRC / "sched" / "standing.py").read_text(encoding="utf-8"))
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not attributes & {"scheduler", "_scheduler"}
    sites = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        for _ in range(path.read_text(encoding="utf-8").count('LruCache("sched.query")'))
    ]
    assert sites == ["core/service.py"]
