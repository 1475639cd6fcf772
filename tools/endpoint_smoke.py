#!/usr/bin/env python3
"""Smoke-test the live telemetry endpoint end to end.  Stdlib only.

Builds the shipped service (the only argument beyond the defaults is a
tracer, which ``/traces`` needs), logs the paper's Table 1 rows, runs
an audited cross-node query, a local query, one ``submit``/``gather``
and one ``check_integrity()``, starts the ``ObsServer`` on an ephemeral
port, and scrapes all four routes over real HTTP with :mod:`urllib`:

* ``/metrics`` — must be Prometheus text exposition: correct
  Content-Type, ``# HELP``/``# TYPE`` pairs, a ``+Inf`` histogram
  bucket, one valid sample per physical line, and the families those
  calls leave in the service's ledgers (``repro_net_messages_total``,
  ``repro_net_message_size_bytes``, ``repro_crypto_ops_total``,
  ``repro_obs_c_query``, ``repro_sched_submitted_total``);
* ``/healthz`` — JSON, overall ``ok`` with every plan node present;
* ``/traces`` — JSON, a trace rooted at ``audit.query`` (the signed
  query) and one rooted at ``query.execute`` (the plain query);
* ``/leakage`` — JSON, the observatory report with a numeric ``c_dla``
  over the queries we just ran.

Exit 0 when every check passes, 1 with a message on the first failure.
CI runs this as the ``endpoint-smoke`` job; it is also a runnable
example of wiring the endpoint programmatically
(``service.start_obs_server(port=0)``).
"""

from __future__ import annotations

import json
import re
import sys
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro import ApplicationNode, ConfidentialAuditingService  # noqa: E402
from repro.crypto import DeterministicRng  # noqa: E402
from repro.logstore import paper_fragment_plan, paper_table1_schema  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from repro.workloads import paper_table1_rows  # noqa: E402

CROSS_QUERY = "(C1 > 30 or protocl = 'TCP') and Tid = 'T1100267'"
LOCAL_QUERY = "protocl = 'TCP'"


class SmokeFailure(AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def fetch(base: str, route: str) -> tuple[str, str]:
    with urllib.request.urlopen(base + route, timeout=10) as resp:
        check(resp.status == 200, f"{route}: HTTP {resp.status}")
        return resp.read().decode("utf-8"), resp.headers.get("Content-Type", "")


def check_metrics(body: str, content_type: str) -> None:
    check(
        content_type.startswith("text/plain") and "version=0.0.4" in content_type,
        f"/metrics: bad Content-Type {content_type!r}",
    )
    lines = [ln for ln in body.splitlines() if ln]
    helps = {ln.split()[2] for ln in lines if ln.startswith("# HELP")}
    types = {ln.split()[2] for ln in lines if ln.startswith("# TYPE")}
    check(helps and helps == types, "/metrics: HELP/TYPE pairs don't match")
    for family in (
        "repro_net_messages_total",
        "repro_net_message_size_bytes",
        "repro_crypto_ops_total",
        "repro_obs_c_query",
        "repro_sched_submitted_total",
    ):
        check(family in helps, f"/metrics: family {family} missing")
    check('le="+Inf"' in body, "/metrics: no +Inf histogram bucket")
    # Exposition format: every non-comment line is exactly
    # ``name[{labels}] value`` on one physical line.
    sample = re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?\d+(\.\d+)?([eE][+-]?\d+)?$'
    )
    bad = [ln for ln in lines if not ln.startswith("#") and not sample.match(ln)]
    check(not bad, f"/metrics: malformed sample lines: {bad[:3]}")


def main() -> int:
    schema = paper_table1_schema()
    service = ConfidentialAuditingService(
        schema,
        paper_fragment_plan(schema),
        prime_bits=64,
        rng=DeterministicRng(b"endpoint-smoke"),
        tracer=Tracer(),
    )
    writer = ApplicationNode.register("U1", service)
    for row in paper_table1_rows():
        service.log_event(row, writer.ticket)
    # Both queries record into the service's one tracer, whose latest
    # traces the /traces route serves.
    report = service.audited_query(CROSS_QUERY)
    check(service.verify_report(report), "audited query report failed to verify")
    check(service.query(LOCAL_QUERY) is not None, "local query failed")
    service.gather([service.submit(CROSS_QUERY)])
    check(
        all(r.verified for r in service.check_integrity()),
        "integrity sweep failed on an untampered log",
    )

    server = service.start_obs_server(port=0)
    try:
        base = server.url
        print(f"endpoint up at {base}")

        body, ctype = fetch(base, "/metrics")
        check_metrics(body, ctype)
        print("  /metrics ok (exposition format, ledger families present)")

        body, ctype = fetch(base, "/healthz")
        check(ctype.startswith("application/json"), f"/healthz: {ctype!r}")
        health = json.loads(body)
        check(health["status"] == "ok", f"/healthz: status {health['status']!r}")
        check(
            set(service.plan.node_ids) <= set(health["nodes"]),
            "/healthz: plan nodes missing",
        )
        print(f"  /healthz ok ({len(health['nodes'])} nodes)")

        body, ctype = fetch(base, "/traces")
        check(ctype.startswith("application/json"), f"/traces: {ctype!r}")
        traces = json.loads(body)
        check(traces, "/traces: no traces after traced queries")
        roots = [
            s["name"]
            for t in traces
            for s in t["spans"]
            if s.get("parent_id") is None
        ]
        check("audit.query" in roots, f"/traces: no audit.query root in {roots}")
        check("query.execute" in roots, f"/traces: no query.execute root in {roots}")
        print(f"  /traces ok ({len(traces)} traces)")

        body, ctype = fetch(base, "/leakage")
        check(ctype.startswith("application/json"), f"/leakage: {ctype!r}")
        leakage = json.loads(body)
        check(leakage["queries"] >= 2, f"/leakage: queries={leakage['queries']}")
        check(
            isinstance(leakage["c_dla"], float) and 0.0 < leakage["c_dla"] <= 1.0,
            f"/leakage: c_dla={leakage['c_dla']!r}",
        )
        print(f"  /leakage ok (C_DLA={leakage['c_dla']:.4f} "
              f"over {leakage['queries']} queries)")
    finally:
        service.close()

    print("endpoint smoke: all four routes verified")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as exc:
        print(f"endpoint smoke FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
