"""The five workloads.

All of them deploy ``paper_table1_schema()`` + ``paper_fragment_plan()``
(4 nodes) with the shipped defaults and drive only the public service API
from one thread (closed loop, one client).  A workload is set up once per
run — the set-up ends with a warm-up operation, so process-pool spin-up and
lazy imports land in ``setup_s`` — and then runs *rounds*: a fixed mix of
operations whose cost does not depend on the seed (see :mod:`datagen`).
Every answer is compared against the plaintext oracle.

What one round is, and what its latency sample and throughput unit are:

================  ===============================  ===================  ==================
workload          one round                        latency sample       throughput unit
================  ===============================  ===================  ==================
cross_audit       5 audited queries (5 templates)  audit + verify       verified report
local_scan        10 queries x2 + 10 aggregates    mean of 20 queries   query or aggregate
burst_mixed       replace 8 rows; burst of 64      QueryHandle.latency  query
ingest_recover    ingest, checkpoint, 2 x recover  one recovery         row acknowledged
integrity_sweep   4 x (16 appends + sweep)         one sweep            row verified
================  ===============================  ===================  ==================
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.aio import aio_scheduler_enabled
from repro.cache import caching_enabled, default_max_entries
from repro.core import ConfidentialAuditingService
from repro.crypto import DeterministicRng, Operation, shared_prime
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.store import StoreConfig

from benchmarks.e2e import cost_model
from benchmarks.e2e.cost_model import Cost
from benchmarks.e2e.datagen import LABELS, c2_cut, make_rows
from benchmarks.e2e.machine import MachineSpeed
from benchmarks.e2e.oracle import Attr, Oracle, render

# The 1024-bit MODP prime of RFC 2409 (Oakley group 2): p and (p-1)/2 are
# both prime, which is what the commutative cipher needs.  The library's own
# table stops at 512 bits and generating a safe prime this size in pure
# Python takes minutes, so the benchmark brings a standard one.
SAFE_PRIME_1024 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
    16,
)

GREATER = ("C1", ">", Attr("C5"))
EQUAL = ("C4", "=", Attr("C"))
FAILED = object()


@dataclass
class Recorder:
    """What the measured phase of one run saw."""

    #: Samples the median latency is taken over (see the table above).
    latencies: list[float] = field(default_factory=list)
    #: Latencies of single operations, for the tail, where they are not
    #: the samples above.
    singles: list[float] = field(default_factory=list)
    #: Seconds inside the operations that complete throughput units; what
    #: only prepares the next unit (an epoch bump, the appends between two
    #: sweeps, a checkpoint) is neither timed nor counted as attempted.
    busy_s: float = 0.0
    units: int = 0
    result_rows: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Read before and after every timed operation, outside the timed region.
    speed: MachineSpeed = field(default_factory=MachineSpeed)

    def timed(self, what: str, fn, *args, ops: int = 1, busy: bool = True):
        """Call ``fn``; returns ``(result or FAILED, seconds)``."""
        self.speed.read()
        self.attempted += ops
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a failed operation is a result, not a crash
            result = FAILED
            self._fail(f"{what}: {traceback.format_exc()}", ops)
        elapsed = time.perf_counter() - start
        self.speed.read()
        if busy:
            self.busy_s += elapsed
        return result, elapsed

    def expect(self, what: str, got, want) -> None:
        if got is not FAILED and got != want:
            self._fail(f"{what}: got {_clip(got)}, oracle says {_clip(want)}", 1)

    def _fail(self, message: str, ops: int) -> None:
        self.failed += ops
        self.failures.append(message)

    def raise_if_failed(self) -> None:
        if self.failures:
            raise RuntimeError("warm-up failed: " + self.failures[0])


def _clip(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


def build_service(bits: int, seed: int, store_dir: str | None = None):
    schema = paper_table1_schema()
    return ConfidentialAuditingService(
        schema,
        paper_fragment_plan(schema),
        prime=SAFE_PRIME_1024 if bits == 1024 else shared_prime(bits),
        rng=DeterministicRng(f"e2e:{seed}"),
        store_dir=store_dir,
    )


class Workload:
    """Base: one deployment, one oracle, counters that survive a redeploy."""

    name = ""
    why = ""
    bits = 512
    smoke_bits = 128

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.service = None
        self.ticket = None
        self.oracle = Oracle()
        self.predicted = Cost()
        self.round_index = 0
        #: Machine speed during the set-up (the measured phase has the
        #: recorder's own).
        self.gauge = MachineSpeed()
        if smoke:
            # Every size has a ``smoke_`` twin on the class; use those.
            for attribute in dir(self):
                if attribute.startswith("smoke_"):
                    setattr(self, attribute[len("smoke_"):], getattr(self, attribute))

    def deploy(self, rows: int) -> None:
        self.service = build_service(self.bits, self.seed)
        self.ticket = self.service.register_user(
            "e2e", {Operation.READ, Operation.WRITE, Operation.DELETE}
        )
        self.oracle = Oracle()
        for row in make_rows(rows, self.rng):
            self.gauge.read()
            self.append(row)

    def append(self, row: dict) -> None:
        self.oracle.rows[self.service.log_event(row, self.ticket).glsn] = row

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, rec: Recorder) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
            # A deployment is full of reference cycles; collecting it now,
            # not whenever the collector next runs, keeps peak memory the
            # same from run to run.
            gc.collect()

    def counters(self) -> dict:
        """Cumulative ledgers, read at round boundaries."""
        snap = self.service.cost_snapshot()
        crypto, integrity = snap["crypto_ops"], snap["integrity_ops"]
        return {
            "modexp": crypto.get("total.modexp", 0) + integrity.get("total.modexp", 0),
            "modexp_offline": crypto.get("offline.modexp", 0)
            + integrity.get("offline.modexp", 0),
            "leakage_events": snap["leakage_events"],
            "modexp_predicted": self.predicted.modexp,
            "messages_predicted": self.predicted.messages,
        }

    def ratios(self) -> dict:
        """Whole-run ratios and distributions for the per-layer report."""
        return {"precompute.hit_ratio": self.service.precompute.hit_rate()}

    def config(self) -> dict:
        service = self.service
        return {
            "prime_bits": service.ctx.prime.bit_length(),
            "accumulator_bits": service.store.accumulator.params.n.bit_length(),
            "engine": type(service.ctx.engine).__name__,
            "scheduler": (
                "AsyncQueryScheduler" if aio_scheduler_enabled() else "QueryScheduler"
            ),
            "cache_enabled": caching_enabled(),
            "cache_max_entries": default_max_entries(),
            "fsync": StoreConfig.from_env().fsync,
            "nodes": list(service.plan.node_ids),
        }

    def predict_query(self, criterion, shared: set | None = None) -> Cost:
        """Model cost of one conjunctive query over the current log.

        ``shared`` collects cross predicates already paid for by a
        concurrent query of the same burst (the scheduler runs each
        distinct cross subplan once per epoch).
        """
        shared = set() if shared is None else shared
        home = self.service.plan.home_of
        rows = len(self.oracle.rows)
        cost = Cost()
        clauses: dict[str, set[int]] = {}
        for predicate in criterion[1] if criterion[0] == "and" else [criterion]:
            if predicate[0] == "or":
                anchor = home(predicate[1][0][0])
            else:
                left, op, right = predicate
                anchor = home(left)
                crossing = isinstance(right, Attr) and home(right) != anchor
                if crossing and predicate not in shared:
                    shared.add(predicate)
                    cost += (
                        cost_model.cross_equality(rows)
                        if op == "="
                        else cost_model.cross_order(rows)
                    )
            matched = set(self.oracle.matching(predicate))
            clauses[anchor] = clauses[anchor] & matched if anchor in clauses else matched
        return cost + cost_model.conjunction([len(s) for s in clauses.values()])


class CrossAudit(Workload):
    name = "cross_audit"
    why = (
        "1024-bit cross-node audited queries (the paper's Figure 3 path): "
        "nearly all wall time is modexps, so crypto, smc and planner changes must show here"
    )
    bits = 1024
    rows = 100
    smoke_rows = 24

    def setup(self) -> None:
        self.deploy(self.rows)
        warm = Recorder(speed=self.gauge)
        self._audit(warm, self._templates()[0])
        warm.raise_if_failed()

    def _templates(self) -> list:
        rows = len(self.oracle.rows)

        def label():
            return ("C3", "=", self.rng.choice(LABELS))

        def cut(fraction: float):
            return ("C2", "<", c2_cut(rows, fraction, self.rng))

        # The 5 % / 60 % pair is there for a selectivity-aware planner.
        return [
            ("and", [GREATER, label()]),
            ("and", [GREATER, cut(0.05)]),
            ("and", [GREATER, cut(0.60)]),
            ("and", [EQUAL, cut(0.25)]),
            ("and", [cut(0.25), label()]),
        ]

    def _audit(self, rec: Recorder, criterion) -> None:
        text = render(criterion)

        def audit():
            report = self.service.audited_query(text)
            return list(report.glsns), self.service.verify_report(report)

        result, elapsed = rec.timed(text, audit)
        rec.latencies.append(elapsed)
        rec.units += 1
        want = self.oracle.matching(criterion)
        rec.result_rows += len(want)
        rec.expect(text, result, (want, True))
        self.predicted += self.predict_query(criterion) + cost_model.agreement(
            len(self.service.plan.node_ids)
        )

    def round(self, rec: Recorder) -> None:
        templates = self._templates()
        self.rng.shuffle(templates)
        for criterion in templates:
            self._audit(rec, criterion)


class LocalScan(Workload):
    name = "local_scan"
    why = (
        "single-node queries and aggregates over 4 000 rows: zero modexps, so it "
        "bypasses crypto entirely and shows executor, cache and observatory cost"
    )
    rows = 4000
    smoke_rows = 200

    def setup(self) -> None:
        self.deploy(self.rows)
        warm = Recorder(speed=self.gauge)
        self._query(warm, ("C2", "<", 500))
        self._aggregate(warm, "sum", "C2", ("C5", ">", 50))
        warm.raise_if_failed()
        self._modexp_at_start = self.counters()["modexp"]

    def _query(self, rec: Recorder, criterion) -> None:
        text = render(criterion)
        result, elapsed = rec.timed(text, lambda: self.service.query(text).glsns)
        rec.singles.append(elapsed)
        rec.units += 1
        want = self.oracle.matching(criterion)
        rec.result_rows += len(want)
        rec.expect(text, result, want)

    def _aggregate(self, rec: Recorder, op: str, attribute: str, criterion) -> None:
        text = None if criterion is None else render(criterion)
        result, _ = rec.timed(
            f"{op}({attribute}) where {text}",
            lambda: self.service.aggregate(op, attribute, text).value,
        )
        rec.units += 1
        rec.expect(
            f"{op}({attribute}) where {text}",
            result,
            self.oracle.aggregate(op, attribute, criterion),
        )

    def round(self, rec: Recorder) -> None:
        # Constants move with the round so the first asking of each
        # criterion misses the scan cache; every criterion is then asked a
        # second time at the same epoch, which hits it.
        r = self.round_index

        def label(i: int) -> str:
            return LABELS[(r + i) % len(LABELS)]

        distinct = [
            ("C2", "<", 50 + r % 40),
            ("C2", "<", 150 + r % 40),
            ("C2", "<", 250 + r % 40),
            ("and", [("C2", "<", 100 + r % 40), ("C5", ">", 20)]),
            ("and", [("C2", "<", 200 + r % 40), ("C5", ">", 50)]),
            ("and", [("C2", "<", 300 + r % 40), ("C5", ">", 80)]),
            ("or", [("C3", "=", label(0)), ("C3", "=", label(1))]),
            ("or", [("C3", "=", label(2)), ("C3", "=", label(4))]),
            ("and", [("protocl", "=", "tcp"), ("C1", ">", 30 + r % 20)]),
            ("and", [("protocl", "=", "udp"), ("C1", ">", 60 + r % 20)]),
        ]
        queries = distinct * 2
        self.rng.shuffle(queries)
        started = len(rec.singles)
        for criterion in queries:
            self._query(rec, criterion)
        # The ten criteria cost 7 - 60 ms each, so the median over single
        # queries sits in a gap between two of them and jumps; the sample is
        # the mean over one round's fixed mix instead.
        rec.latencies.append(statistics.mean(rec.singles[started:]))
        for op, attribute, criterion in (
            ("sum", "C2", ("C5", ">", 10 + r % 80)),
            ("count", "C5", ("C2", "<", 400 + r % 40)),
            ("max", "C1", ("protocl", "=", "udp")),
            ("min", "C5", ("C2", "<", 500 + r % 40)),
            ("sum", "C1", ("C1", ">", 40 + r % 50)),
            ("count", "C1", ("protocl", "=", "tcp")),
            ("max", "C2", ("C5", ">", 90)),
            ("min", "C2", None),
            ("sum", "C5", None),
            ("count", "C3", ("C3", "=", label(3))),
        ):
            self._aggregate(rec, op, attribute, criterion)
        rec.expect(
            "local_scan performs no modexp",
            self.counters()["modexp"] - self._modexp_at_start,
            0,
        )


class BurstMixed(Workload):
    name = "burst_mixed"
    why = (
        "bursts of 64 concurrent queries (16 distinct, 10 of them cross-node) through "
        "submit/gather at 512 bits: stresses the scheduler, coalescing and caches"
    )
    rows = 150
    smoke_rows = 30
    burst = 64
    replaced = 8

    def setup(self) -> None:
        self.deploy(self.rows)
        self.handle_stats: list[tuple[float, float, bool]] = []
        self._executed_before = 0
        warm = Recorder(speed=self.gauge)
        self.round(warm)
        warm.raise_if_failed()
        self.handle_stats.clear()

    def _criteria(self) -> list:
        rows = len(self.oracle.rows)

        def cut(fraction: float):
            return ("C2", "<", c2_cut(rows, fraction, self.rng))

        cross = (
            [("and", [GREATER, ("C3", "=", label)]) for label in LABELS[:3]]
            + [("and", [GREATER, cut(f)]) for f in (0.1, 0.3, 0.5)]
            + [("and", [EQUAL, cut(f)]) for f in (0.2, 0.4)]
            + [("and", [EQUAL, ("C3", "=", label)]) for label in LABELS[3:5]]
        )
        local = [
            cut(0.1),
            cut(0.5),
            ("or", [("C3", "=", LABELS[0]), ("C3", "=", LABELS[5])]),
            ("and", [("protocl", "=", "tcp"), ("C1", ">", 50)]),
            ("and", [cut(0.3), ("C5", ">", 20)]),
            ("C5", ">", 70),
        ]
        return cross + local

    def _replace_oldest(self) -> None:
        """Delete the oldest rows and log the same events again: every
        node's epoch moves (so no cache answers the next burst) while the
        log keeps its size and its marginals (so every burst costs the same)."""
        for glsn in list(self.oracle.rows)[: self.replaced]:
            row = self.oracle.rows.pop(glsn)
            self.service.store.delete_record(glsn, self.ticket)
            self.append(row)

    def _burst(self, criteria: list):
        handles = [self.service.submit(render(c)) for c in criteria]
        return handles, [result.glsns for result in self.service.gather(handles)]

    def round(self, rec: Recorder) -> None:
        self._replace_oldest()
        # Submission order is fixed (the 16 criteria, four times over): the
        # one event loop runs queries back to back, so a handle's latency is
        # its place in that order and a shuffle would make the median a lottery.
        distinct = self._criteria()
        criteria = distinct * (self.burst // len(distinct))
        outcome, _ = rec.timed("burst", self._burst, criteria, ops=len(criteria))
        if outcome is FAILED:
            return
        handles, answers = outcome
        rec.units += len(handles)
        for criterion, handle, glsns in zip(criteria, handles, answers):
            rec.latencies.append(handle.latency)
            rec.result_rows += len(glsns)
            rec.expect(render(criterion), glsns, self.oracle.matching(criterion))
            self.handle_stats.append(
                (
                    handle.started_at - handle.submitted_at,
                    handle.finished_at - handle.started_at,
                    handle.coalesced,
                )
            )
        shared: set = set()
        for criterion in distinct:
            self.predicted += self.predict_query(criterion, shared)
        whole = self.service.scheduler.coalesce_stats()["sched.query"]
        executed = whole["misses"] - self._executed_before
        self._executed_before = whole["misses"]
        # A burst answered wholly from the result cache would measure nothing.
        rec.expect("queries of this burst that really executed", executed > 0, True)

    def ratios(self) -> dict:
        out = super().ratios()
        stats = self.service.scheduler.coalesce_stats()
        served = sum(s["hits"] + s["joins"] for s in stats.values())
        asked = served + sum(s["misses"] for s in stats.values())
        waits = sorted(w for w, _, _ in self.handle_stats)
        runs = sorted(r for _, r, _ in self.handle_stats)
        out.update(
            {
                "sched.coalesce_hit_ratio": served / asked if asked else 0.0,
                "sched.coalesced_share": (
                    sum(c for _, _, c in self.handle_stats) / len(self.handle_stats)
                    if self.handle_stats
                    else 0.0
                ),
                "sched.queue_wait_p50_s": waits[len(waits) // 2] if waits else 0.0,
                "sched.run_p50_s": runs[len(runs) // 2] if runs else 0.0,
            }
        )
        return out


class IngestRecover(Workload):
    name = "ingest_recover"
    why = (
        "the durable write side: stream rows into a fresh fsync=batch store with a "
        "standing query, checkpoint, tear one node's WAL tail, reopen and recover"
    )
    main_rows, tail_rows = 4096, 512
    smoke_main_rows, smoke_tail_rows = 64, 32
    batch = 64
    # Rows per append_stream call: the stream is handed over in slices so
    # the machine-speed gauge gets a reading every half second of ingest.
    slice_rows = 512
    standing = ("C2", "<", 100)
    torn_node = "P1"
    # The same crash is recovered from twice per cycle: recovery is the
    # latency sample, and two cycles fit in a run.
    crashes = 2

    def setup(self) -> None:
        self.carry = {"modexp": 0, "modexp_offline": 0, "leakage_events": 0}
        self.user_bytes = 0
        self.stored_bytes = 0
        self.wal_bytes = 0
        self.cycles = 0
        warm = Recorder(speed=self.gauge)
        self._cycle(warm, self.batch, self.batch)
        warm.raise_if_failed()
        self.user_bytes = self.stored_bytes = self.wal_bytes = self.cycles = 0

    def round(self, rec: Recorder) -> None:
        self._cycle(rec, self.main_rows, self.tail_rows)

    def _bytes_under(self, directory: Path, pattern: str) -> int:
        return sum(p.stat().st_size for p in directory.rglob(pattern) if p.is_file())

    def _cycle(self, rec: Recorder, main_rows: int, tail_rows: int) -> None:
        self.cycles += 1
        live = self.workdir / f"{self.name}-{self.cycles}"
        crashed = self.workdir / f"{self.name}-{self.cycles}-crashed"
        rows = make_rows(main_rows + tail_rows, self.rng)
        self.teardown()
        self.service = build_service(self.bits, self.seed, str(live))
        ticket = self.service.register_user("e2e")
        self.oracle = Oracle()
        standing: set[int] = set()

        def on_delta(delta) -> None:
            standing.update(delta.added)
            standing.difference_update(delta.removed)

        self.service.register_standing_query(render(self.standing), on_delta=on_delta)

        def ingest(stream: list[dict]) -> None:
            for at in range(0, len(stream), self.slice_rows):
                chunk = stream[at : at + self.slice_rows]
                receipts, _ = rec.timed(
                    f"append_stream of {len(chunk)} rows",
                    self.service.append_stream, chunk, ticket, self.batch,
                    ops=len(chunk),
                )
                if receipts is FAILED:
                    continue
                rec.units += len(receipts)
                rec.expect("rows acknowledged", len(receipts), len(chunk))
                for receipt, row in zip(receipts, chunk):
                    self.oracle.rows[receipt.glsn] = row
                    self.user_bytes += len(json.dumps(row))

        ingest(rows[:main_rows])
        self.wal_bytes += self._bytes_under(live, "wal-*.seg")
        self.service.store.checkpoint()
        ingest(rows[main_rows:])
        self.wal_bytes += self._bytes_under(live, "wal-*.seg")
        self.stored_bytes += self._bytes_under(live, "*")
        rec.expect(
            "standing-query deltas add up to the full answer",
            sorted(standing),
            self.oracle.matching(self.standing),
        )

        for key, value in self.counters().items():
            if key in self.carry:
                self.carry[key] = value
        self.teardown()
        lost = max(self.oracle.rows)
        del self.oracle.rows[lost]
        for _ in range(self.crashes):
            # The crash: copy what is on disk, then cut into the last record
            # of one node's WAL, as a power loss in mid-write would.
            shutil.copytree(live, crashed)
            segment = sorted((crashed / self.torn_node).glob("wal-*.seg"))[-1]
            segment.write_bytes(segment.read_bytes()[:-10])
            recovered, elapsed = rec.timed(
                "recovery", build_service, self.bits, self.seed, str(crashed),
                busy=False,
            )
            rec.latencies.append(elapsed)
            if recovered is not FAILED:
                self.service = recovered
                report = recovered.last_recovery
                rec.expect(
                    "recovery report (records, rolled back, torn nodes, audit)",
                    (report.glsns, report.rolled_back, report.torn_nodes, report.audit_ok),
                    (len(self.oracle.rows), [lost], [self.torn_node], True),
                )
                text = render(self.standing)
                answer, _ = rec.timed(
                    text, lambda: recovered.query(text).glsns, busy=False
                )
                rec.expect(text, answer, self.oracle.matching(self.standing))
            self.teardown()
            shutil.rmtree(crashed)
        shutil.rmtree(live)

    def counters(self) -> dict:
        out = dict(self.carry, modexp_predicted=0, messages_predicted=0)
        if self.service is not None:
            for key, value in super().counters().items():
                out[key] = out.get(key, 0) + value
        return out

    def ratios(self) -> dict:
        return {
            "precompute.hit_ratio": 0.0,
            "store.wal_bytes": self.wal_bytes / self.cycles if self.cycles else 0.0,
            "store.bytes_per_user_byte": (
                self.stored_bytes / self.user_bytes if self.user_bytes else 0.0
            ),
        }

    def config(self) -> dict:
        self.service = build_service(self.bits, self.seed)
        try:
            return super().config()
        finally:
            self.teardown()


class IntegritySweep(Workload):
    name = "integrity_sweep"
    why = (
        "distributed batched check_integrity() over 4 200 rows with appends between "
        "sweeps and a tampered fragment every fourth sweep: accumulator crypto and "
        "ring transport, no Pohlig-Hellman at all"
    )
    # More rows than the 4 096-entry witness-base memo holds, from the first
    # sweep on: a log that crosses that size mid-run gets 50 % slower sweeps
    # (the memo thrashes), and the median would depend on when it crossed.
    rows = 4200
    smoke_rows = 60
    appends = 16
    sweeps = 4

    def setup(self) -> None:
        self.deploy(self.rows)
        self.appended = len(self.oracle.rows)
        warm = Recorder(speed=self.gauge)
        self._sweep(warm, tampered=None)
        warm.raise_if_failed()
        self.predicted = Cost()

    def _sweep(self, rec: Recorder, tampered: int | None) -> None:
        reports, elapsed = rec.timed("check_integrity", self.service.check_integrity)
        rec.latencies.append(elapsed)
        if reports is FAILED:
            return
        rec.units += len(reports)
        rec.expect(
            "integrity verdicts (glsns checked, glsns failing)",
            (sorted(r.glsn for r in reports), [r.glsn for r in reports if not r.ok]),
            (sorted(self.oracle.rows), [] if tampered is None else [tampered]),
        )
        self.predicted += cost_model.integrity_sweep(
            len(self.service.plan.node_ids), len(self.oracle.rows)
        )

    def round(self, rec: Recorder) -> None:
        for sweep in range(self.sweeps):
            for row in make_rows(self.appends, self.rng, start=self.appended):
                self.append(row)
            self.appended += self.appends
            if sweep < self.sweeps - 1:
                self._sweep(rec, tampered=None)
                continue
            # A compromised node rewrites one stored value; exactly that
            # glsn must fail, and the value is put back afterwards.
            glsn = self.rng.choice(list(self.oracle.rows))
            node = self.service.store.node_store("P1")
            node.tamper(glsn, "C2", 10**6)
            self._sweep(rec, tampered=glsn)
            node.tamper(glsn, "C2", self.oracle.rows[glsn]["C2"])


WORKLOADS = {
    cls.name: cls
    for cls in (CrossAudit, LocalScan, BurstMixed, IngestRecover, IntegritySweep)
}
