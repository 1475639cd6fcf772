"""Predicted against measured cost of cross predicates and conjunctions.

The executor aligns a cross predicate's two owners either over their
presence sets (``∩ₛ``) or over their *absent* sets (``∪ₛ``), and runs the
final conjunction ring only between clauses no single node holds.  Both
choices have a closed-form price in set sizes; this module states the
formulas and holds the running system to them exactly — modexps and
messages — on the five query shapes of the end-to-end benchmark's
``cross_audit`` workload.  It also holds the two alignment routes to the
same answer, and the ledger to no more than it recorded before the
complement route existed.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.audit.executor import QueryExecutor
from repro.core import ConfidentialAuditingService
from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
    shared_prime,
)
from repro.errors import AuditError
from repro.logstore import (
    DistributedLogStore,
    paper_fragment_plan,
    paper_table1_schema,
)
from repro.net.simnet import SimNetwork
from repro.smc import SmcContext, secure_set_intersection
from repro.twin import run_sync

LABELS = ("bank", "salary", "shop", "tax", "fee", "loan")


# -- the cost model ----------------------------------------------------------


def intersection_cost(sizes: list[int]) -> tuple[int, int]:
    """``(modexps, messages)`` of one pipelined ``∩ₛ`` ring, all observers.

    Every set is encrypted once by every party; ``n(n-1)`` relays, ``n``
    deliveries to the collector, ``n`` position replies, ``n-1`` results.
    """
    n = len(sizes)
    return n * sum(sizes), n * (n - 1) + n + n + (n - 1)


def union_cost(sizes: list[int], union_size: int) -> tuple[int, int]:
    """``(modexps, messages)`` of one ``∪ₛ`` ring, all observers.

    Every element is encrypted by every party and every element of the
    deduplicated union decrypted by every party; ``n(n-1)`` relays, ``n``
    deliveries, ``n-1`` decryption hops, ``n-1`` results.
    """
    n = len(sizes)
    return n * sum(sizes) + n * union_size, n * (n - 1) + n + (n - 1) + (n - 1)


COMPARE_BATCH = (0, 4)  # two blinded vectors in, two verdict vectors out


def conjunction_cost(anchored_sizes: list[int]) -> tuple[int, int]:
    """Final ring between the distinct anchor nodes' non-empty glsn sets."""
    if len(anchored_sizes) < 2 or not all(anchored_sizes):
        return 0, 0
    return intersection_cost(anchored_sizes)


def total(*costs: tuple[int, int]) -> tuple[int, int]:
    return sum(c[0] for c in costs), sum(c[1] for c in costs)


# -- fixtures ----------------------------------------------------------------


def dense_rows(n: int = 100) -> list[dict]:
    return [
        {
            "C1": (i * 37) % 100,
            "C5": (i * 53 + 7) % 100,
            "C2": i * 1000 // n,
            "C3": LABELS[i % len(LABELS)],
            "C4": i % 3,
            "C": (i // 2) % 3,
        }
        for i in range(n)
    ]


def matching(rows: list[dict], test) -> int:
    return sum(1 for row in rows if test(row))


def dense_deployment() -> ConfidentialAuditingService:
    schema = paper_table1_schema()
    service = ConfidentialAuditingService(
        schema, paper_fragment_plan(schema), prime_bits=64,
        rng=DeterministicRng(b"cross-cost"),
    )
    ticket = service.register_user("u")
    for row in dense_rows():
        service.log_event(row, ticket)
    return service


@pytest.fixture(scope="module")
def dense_service():
    service = dense_deployment()
    yield service
    service.close()


@pytest.fixture(scope="module")
def memo_off_service():
    """The same deployment with ``REPRO_SCHED_COALESCE=off``: no sub-plan memo."""
    with pytest.MonkeyPatch.context() as env:
        env.setenv("REPRO_SCHED_COALESCE", "off")
        service = dense_deployment()
    yield service
    service.close()


def greater(row):
    return row["C1"] > row["C5"]


def bank(row):
    return row["C3"] == "bank"


def equal(row):
    return row["C4"] == row["C"]


# Attribute homes in the paper's plan: C1@P3, C5@P1, C2@P1, C3@P2, C4@P0,
# C@P2.  Per template: the query, its predicted cost given the 100 dense
# rows, its cross predicate (None for none) with that sub-plan's own cost,
# and the ledger categories the same query recorded before the complement
# alignment and the holder choice existed (commit d2703a4).
ROWS = dense_rows()
ALIGN_DENSE = union_cost([0, 0], 0)
ORDER = ("C1 > C5", total(ALIGN_DENSE, COMPARE_BATCH))
EQUALITY = ("C4 = C", intersection_cost([len(ROWS), len(ROWS)]))
TEMPLATES = [
    pytest.param(
        "C1 > C5 and C3 = 'bank'",
        # clause sets at P3 (or P1) and P2: a ring between two nodes
        total(
            ORDER[1],
            conjunction_cost([matching(ROWS, greater), matching(ROWS, bank)]),
        ),
        ORDER,
        {"order_statistics": 1, "position_linkage": 2, "result_cardinality": 2, "set_size": 4},
        id="order-and-third-node-label",
    ),
    pytest.param(
        "C1 > C5 and C2 < 50",
        # C2 lives on P1, a party of C1 > C5: conjoined there, no ring
        ORDER[1],
        ORDER,
        {"order_statistics": 1, "position_linkage": 2, "result_cardinality": 2, "set_size": 4},
        id="order-and-5pct-cut-on-a-party",
    ),
    pytest.param(
        "C1 > C5 and C2 < 600",
        ORDER[1],
        ORDER,
        {"order_statistics": 1, "position_linkage": 2, "result_cardinality": 2, "set_size": 4},
        id="order-and-60pct-cut-on-a-party",
    ),
    pytest.param(
        "C4 = C and C2 < 250",
        # the glsn|value join (P0, P2), then a ring with the cut on P1
        total(
            EQUALITY[1],
            conjunction_cost(
                [matching(ROWS, equal), matching(ROWS, lambda r: r["C2"] < 250)]
            ),
        ),
        EQUALITY,
        {"position_linkage": 2, "result_cardinality": 2, "set_size": 4},
        id="equality-join-and-cut",
    ),
    pytest.param(
        "C2 < 250 and C3 = 'bank'",
        conjunction_cost(
            [matching(ROWS, lambda r: r["C2"] < 250), matching(ROWS, bank)]
        ),
        None,
        {"position_linkage": 1, "result_cardinality": 1, "set_size": 2},
        id="two-local-clauses",
    ),
]


def ask(service, criterion: str) -> tuple[tuple[int, int], Counter, list[int]]:
    """``(modexps, messages)``, ledger categories and answer of one query."""
    leaked_before = service.ctx.leakage.count()
    glsns = service.query(criterion).glsns
    cost = service.last_query_cost
    events = service.ctx.leakage.events[leaked_before:]
    return (cost.modexp, cost.messages), Counter(e.category for e in events), glsns


class TestCrossAuditTemplates:
    @pytest.mark.parametrize("criterion, predicted, cross, parent_ledger", TEMPLATES)
    def test_measured_cost_equals_the_closed_form(
        self, dense_service, criterion, predicted, cross, parent_ledger
    ):
        dense_service.subplan_memo.clear()  # cold: nothing asked before
        cost, ledger, glsns = ask(dense_service, criterion)
        assert cost == predicted
        for category, count in ledger.items():
            assert count <= parent_ledger.get(category, 0), category

        # The second asking at the same epoch is served the cross predicate
        # from the memo: it pays the closed form minus that sub-plan's own
        # cost (the conjunction is still paid), and its ledger trades the
        # sub-plan's entries for one coalesced_result.
        again, again_ledger, again_glsns = ask(dense_service, criterion)
        assert again_glsns == glsns
        if cross is None:
            assert (again, again_ledger) == (cost, ledger)
            return
        cross_criterion, cross_cost = cross
        dense_service.subplan_memo.clear()
        alone, alone_ledger, _ = ask(dense_service, cross_criterion)
        assert alone == cross_cost
        assert again == (cost[0] - cross_cost[0], cost[1] - cross_cost[1])
        assert again_ledger - ledger == Counter({"coalesced_result": 1})
        assert ledger - again_ledger == alone_ledger

    @pytest.mark.parametrize("criterion, predicted, cross, parent_ledger", TEMPLATES)
    def test_memo_off_asks_pay_the_closed_form_every_time(
        self, memo_off_service, criterion, predicted, cross, parent_ledger
    ):
        leaked_before = memo_off_service.ctx.leakage.count()
        memo_off_service.query(criterion)
        cost = memo_off_service.last_query_cost
        assert (cost.modexp, cost.messages) == predicted
        # With REPRO_SCHED_COALESCE=off the second asking at the same epoch
        # pays the same: nothing above was saved by remembering an answer.
        memo_off_service.query(criterion)
        again = memo_off_service.last_query_cost
        assert (again.modexp, again.messages) == predicted

        events = memo_off_service.ctx.leakage.events[leaked_before:]
        first = Counter(e.category for e in events[: len(events) // 2])
        assert first == Counter(e.category for e in events[len(events) // 2 :])
        for category, count in first.items():
            assert count <= parent_ledger.get(category, 0), category
        assert len(memo_off_service.subplan_memo) == 0

    def test_round_total(self, dense_service, memo_off_service):
        def round_total(service) -> int:
            spent = 0
            for param in TEMPLATES:
                service.query(param.values[0])
                spent += service.last_query_cost.modexp
            return spent

        dense_service.subplan_memo.clear()
        # 400 of these are the equality join's composites; at commit d2703a4
        # the same five queries cost 2 270.  C1 > C5 recurs in three
        # templates, but its dense alignment and blind comparison cost no
        # modexp, so reusing it within the cold round saves messages only.
        assert round_total(dense_service) == 736
        # At equal epochs the next round reuses both cross predicates: only
        # the conjunction rings are paid.
        assert round_total(dense_service) == 736 - EQUALITY[1][0] == 336
        assert round_total(memo_off_service) == round_total(memo_off_service) == 736


# -- the alignment helper on its own -----------------------------------------


def _executor(rows: list[dict], tag: bytes = b"align"):
    schema = paper_table1_schema()
    authority = TicketAuthority(b"cross-cost-formula-master-secret")
    store = DistributedLogStore(
        paper_fragment_plan(schema), authority,
        AccumulatorParams.generate(128, DeterministicRng(tag)),
    )
    ticket = authority.issue("U", {Operation.READ, Operation.WRITE})
    glsns = [receipt.glsn for receipt in store.append_batch(rows, ticket)]
    ctx = SmcContext(shared_prime(64), DeterministicRng(tag + b"-ctx"))
    return QueryExecutor(store, ctx, schema), glsns


def _align(executor: QueryExecutor):
    """Run ``_common_glsns`` for C1@P3 / C5@P1; returns (set, modexps, messages)."""
    net = SimNetwork()
    before = executor.ctx.crypto_ops.modexp
    common = run_sync(executor._common_glsns("P3", "C1", "P1", "C5", net))
    return common, executor.ctx.crypto_ops.modexp - before, net.stats.messages


def _rows(n: int, without_c1=(), without_c5=()) -> list[dict]:
    rows = [{"C1": i, "C5": 50, "Tid": f"t{i}"} for i in range(n)]
    for i in without_c1:
        del rows[i]["C1"]
    for i in without_c5:
        del rows[i]["C5"]
    return rows


class TestCommonGlsnsCost:
    def test_dense_attributes_cost_no_modexp(self):
        executor, glsns = _executor(_rows(20))
        common, modexps, messages = _align(executor)
        assert common == set(glsns)
        assert (modexps, messages) == union_cost([0, 0], 0) == (0, 6)

    def test_sparse_attributes_cost_their_absent_glsns(self):
        # glsn 3 lacks both, so the union (3 elements) is smaller than the sum
        executor, glsns = _executor(_rows(20, without_c1=(3,), without_c5=(3, 8, 11)))
        common, modexps, messages = _align(executor)
        assert common == {g for i, g in enumerate(glsns) if i not in (3, 8, 11)}
        assert (modexps, messages) == union_cost([1, 3], 3) == (14, 6)

    def test_mostly_absent_attributes_intersect_their_presence(self):
        present_c5 = (0, 1, 2, 3)
        executor, glsns = _executor(
            _rows(20, without_c5=[i for i in range(20) if i not in present_c5])
        )
        common, modexps, messages = _align(executor)
        assert common == {glsns[i] for i in present_c5}
        assert (modexps, messages) == intersection_cost([20, 4]) == (48, 7)

    def test_the_switch_sits_where_the_union_could_cost_more(self):
        # 64-bit modulus: decryptions weigh as encryptions, so the union's
        # worst case is 2·Σ|A_i| against Σ|P_i|: 2·10 <= 20 but 2·11 > 19.
        executor, _ = _executor(_rows(15, without_c5=range(10)))
        assert _align(executor)[1:] == union_cost([0, 10], 10)
        executor, _ = _executor(_rows(15, without_c5=range(11)))
        assert _align(executor)[1:] == intersection_cost([15, 4])

    def test_decryptions_weigh_by_exponent_length(self):
        # At 512 bits a decryption exponent is twice an encryption one:
        # 3·Σ|A_i| against Σ|P_i|: 2·8 <= 22 passes, 3·8 does not.
        executor, _ = _executor(_rows(15, without_c5=range(8)))
        assert _align(executor)[1:] == union_cost([0, 8], 8)
        executor.ctx = SmcContext(shared_prime(512), DeterministicRng(b"wide"))
        assert _align(executor)[1:] == intersection_cost([15, 7])


class TestIndexDivergence:
    """A node that lost a fragment no longer shares the other's universe,
    so there is nothing to take a complement in: presence ``∩ₛ`` runs."""

    def test_evicted_fragment_falls_back_to_presence_intersection(self):
        rows = [{"C1": 60 + i, "C5": 64, "C2": i} for i in range(10)]
        executor, glsns = _executor(rows)
        executor.store.node_store("P1").evict(glsns[7])
        before = executor.ctx.crypto_ops.modexp

        result = executor.execute("C1 > C5 and C2 < 9")

        # What the parent commit answers: glsn 7 has no C5 (nor C2) any more.
        assert result.glsns == [glsns[i] for i in (5, 6, 8)]
        assert (
            executor.ctx.crypto_ops.modexp - before
            == intersection_cost([10, 9])[0]
        )
        divergence = [
            e for e in executor.ctx.leakage.events if e.category == "index_divergence"
        ]
        assert sorted(e.observer for e in divergence) == ["P1", "P3"]

    def test_both_routes_give_the_same_set(self):
        rows = _rows(12, without_c1=(1, 4), without_c5=(4, 9))
        executor, glsns = _executor(rows)
        by_union = _align(executor)[0]
        executor.store.node_store("P0").evict(glsns[0])  # not an owner: no effect
        assert _align(executor)[0] == by_union
        executor.store.node_store("P3").evict(glsns[11])  # now the indexes differ
        by_intersection, modexps, _ = _align(executor)
        assert modexps == intersection_cost([9, 10])[0]
        assert by_intersection == by_union - {glsns[11]}
        reference = secure_set_intersection(
            SmcContext(shared_prime(64), DeterministicRng(b"ref")),
            {
                "P3": sorted(executor._present_glsns("P3", "C1")),
                "P1": sorted(executor._present_glsns("P1", "C5")),
            },
        )
        assert by_intersection == set(reference.any_value)


class TestTypedErrorBeforeAnyRound:
    def test_text_column_in_an_ordered_cross_predicate(self):
        schema = paper_table1_schema()
        service = ConfidentialAuditingService(
            schema, paper_fragment_plan(schema), prime_bits=128,
            rng=DeterministicRng(b"typed"),
        )
        ticket = service.register_user("u")
        for i in range(5):
            service.log_event({"C1": i, "C3": LABELS[i]}, ticket)
        leaked = service.ctx.leakage.count()
        modexps = service.ctx.crypto_ops.modexp

        with pytest.raises(AuditError, match=r"C3 > C1.*'C3'"):
            service.query("C3 > C1")

        assert service.ctx.leakage.count() == leaked
        assert service.ctx.crypto_ops.modexp == modexps
        service.close()
