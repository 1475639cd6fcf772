"""``python -m repro`` — a one-command demonstration of the DLA service.

Runs the paper's core loop end to end with narration: Table 1 logging,
fragmentation, a confidential query with a Figure 3 decomposition, a
signed report, integrity checking, and the session leakage summary.

``python -m repro trace-report <trace.jsonl>`` renders the cost-
attribution table of a span trace captured with ``--trace-out``.
"""

from __future__ import annotations

import argparse
import sys

from repro import ApplicationNode, Auditor, ConfidentialAuditingService
from repro.cache import cache_stats_snapshot
from repro.crypto import DeterministicRng
from repro.logstore import LogRecord, paper_fragment_plan, paper_table1_schema, render_table
from repro.workloads import paper_table1_rows


def run_demo(prime_bits: int, seed: str, trace_out: str | None = None) -> int:
    tracer = None
    if trace_out is not None:
        from repro.obs import Tracer

        tracer = Tracer()
    schema = paper_table1_schema()
    service = ConfidentialAuditingService(
        schema,
        paper_fragment_plan(schema),
        prime_bits=prime_bits,
        rng=DeterministicRng(seed),
        tracer=tracer,
    )
    print("== DLA cluster ==")
    print(service.describe())
    print(f"membership: {service.membership_summary()}")

    writer = ApplicationNode.register("U1", service)
    receipts = [service.log_event(row, writer.ticket) for row in paper_table1_rows()]
    records = [LogRecord(r.glsn, row) for r, row in zip(receipts, paper_table1_rows())]
    print("\n== Table 1 (logged through the cluster) ==")
    print(render_table(records, ["Time", "id", "protocl", "Tid", "C1", "C2", "C3"]))

    auditor = Auditor("demo-auditor", service)
    criterion = "(C1 > 30 or protocl = 'TCP') and Tid = 'T1100267'"
    print(f"\n== query plan: {criterion} ==")
    print(service.plan_criterion(criterion).describe())
    result = auditor.query(criterion)
    print(f"matches: {[format(g, 'x') for g in result.glsns]} "
          f"({result.messages} msgs, {result.bytes} bytes)")
    # The same criterion again: epoch-keyed caches serve the projections.
    rerun = auditor.query(criterion)
    assert rerun.glsns == result.glsns
    print("\n== caches (after repeating the query) ==")
    for name, row in cache_stats_snapshot().items():
        total = row["hits"] + row["misses"]
        rate = row["hits"] / total if total else 0.0
        print(f"  {name:18s} hits={row['hits']:<4d} misses={row['misses']:<4d} "
              f"hit_rate={rate:.0%}")

    report = auditor.audited_query("Tid = 'T1100265'")
    print(f"\n== signed report ==\nrecords {len(report.glsns)}, "
          f"verified={service.verify_report(report)}")

    print(f"\n== aggregates ==")
    print(f"sum C1 = {auditor.aggregate('sum', 'C1').value}, "
          f"max C2 = {auditor.aggregate('max', 'C2').value}")

    clean = sum(r.ok for r in service.check_integrity())
    print(f"\n== integrity == {clean}/{len(receipts)} records verified")
    print(f"\n== leakage == {service.cost_snapshot()['leakage_categories']}")

    observatory = service.observatory.report()
    c_dla = observatory["c_dla"]
    print(f"\n== confidentiality observatory == "
          f"C_DLA={c_dla if c_dla is not None else 'n/a'} "
          f"over {observatory['queries']} queries")

    if tracer is not None:
        from repro.obs import write_jsonl

        spans = tracer.finished_spans()
        write_jsonl(spans, trace_out)
        print(f"\n== trace == {len(spans)} spans written to {trace_out}")
    return 0


def run_trace_report(
    path: str, tree: bool = False, critical_path: bool = False
) -> int:
    """Render the cost-attribution table (or span tree) of a JSONL trace."""
    from repro.obs import (
        load_jsonl,
        render_attribution,
        render_critical_path,
        render_tree,
    )

    spans = load_jsonl(path)
    if critical_path:
        print(render_critical_path(spans))
    elif tree:
        print(render_tree(spans))
    else:
        print(render_attribution(spans))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "trace-report":
        sub = argparse.ArgumentParser(
            prog="python -m repro trace-report",
            description="Cost-attribution report over a span trace (JSONL)",
        )
        sub.add_argument("trace", help="span trace written by --trace-out")
        sub.add_argument(
            "--tree", action="store_true",
            help="render the span tree instead of the attribution table",
        )
        sub.add_argument(
            "--critical-path", action="store_true",
            help="show the chain of spans that determined the root's end "
                 "time (which ring hop dominated the query)",
        )
        sub_args = sub.parse_args(argv[1:])
        return run_trace_report(
            sub_args.trace,
            tree=sub_args.tree,
            critical_path=sub_args.critical_path,
        )

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Confidential DLA reproduction demo (Shen/Liu/Zhao, ICDCS 2004)",
    )
    parser.add_argument(
        "--prime-bits", type=int, default=128,
        help="commutative-cipher prime size (default 128)",
    )
    parser.add_argument(
        "--seed", default="repro-demo", help="deterministic RNG seed"
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="trace the run and write the span tree as JSON lines to PATH",
    )
    args = parser.parse_args(argv)
    return run_demo(args.prime_bits, args.seed, trace_out=args.trace_out)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed early (e.g. `trace-report | head`);
        # detach stdout so the interpreter doesn't complain on shutdown.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
