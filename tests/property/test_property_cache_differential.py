"""Property: every cache is invisible — caching on and off give one history.

:class:`CacheDifferentialMachine` drives two services built from one seed
through the same steps: single appends, append batches, deletes, tampers,
evictions, a put below the lowest held glsn, a record some nodes store
before the others, local and cross queries, aggregates, ``submit`` /
``gather`` bursts and standing-query polls.  One side runs with every
cache serving, the other under :func:`~repro.cache.set_caching_enabled`
``(False)`` (the switch is process-global, so it is set around each
side's part of a step).  After every step both sides agree on the
glsn sets, aggregate values, error types and standing deltas, on each
query's ``C_query`` and each tenant's ``C_DLA`` (``==`` on floats), and
on the leakage ledger: the same distinct events, leaving out the
``coalesced_result`` events a served answer records in place of the
protocol events of the run it skipped, and the runs' session labels.
"""

from __future__ import annotations

import re

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.cache import set_caching_enabled
from repro.core import ConfidentialAuditingService
from repro.crypto import DeterministicRng, Operation
from repro.logstore import LogRecord, paper_fragment_plan, paper_table1_schema

SCHEMA = paper_table1_schema()
PLAN = paper_fragment_plan(SCHEMA)
NODES = tuple(PLAN.node_ids)
CRITERIA = (
    "C2 < 3",
    "C5 >= 0",
    "C4 = C",
    "C1 > C5",
    "C4 = C or C2 < 2",
    "C1 > C5 and C2 < 3",
)
#: Local criteria asked after every step.
PROBES = ("C2 < 3", "C5 >= 0")
AGGREGATES = (
    ("sum", "C2", None),
    ("count", "C1", "C4 = C"),
    ("max", "C5", "C2 < 3"),
    ("min", "C1", "C1 > C5"),
)
#: Attributes a row may carry, with small values so matches are common.
#: A row carries a subset, so a tamper can give it an attribute it lacked.
ATTRIBUTES = ("C1", "C5", "C4", "C", "C2")

#: A run's session label numbers the runs an executor made, so a skipped
#: run renumbers the later ones: it is not part of what a party learns.
SESSION = re.compile(r" \(session [^)]*\)")

row = st.dictionaries(st.sampled_from(ATTRIBUTES), st.integers(0, 4), min_size=1)
rows = st.lists(row, min_size=1, max_size=4)


def _outcome(call):
    """What a step returned, or the type of what it raised."""
    try:
        return "ok", call()
    except Exception as exc:  # compared by type across the two sides
        return "raised", type(exc)


class CacheDifferentialMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        #: (service, ticket) per side: cached first, uncached second.
        self.sides = []
        for _ in range(2):
            service = ConfidentialAuditingService(
                SCHEMA, PLAN, prime_bits=64, rng=DeterministicRng(b"cache-differential")
            )
            ticket = service.register_user(
                "auditee", {Operation.READ, Operation.WRITE, Operation.DELETE}
            )
            self.sides.append((service, ticket))
        #: Records stored on some nodes only: (glsn, row, nodes still to store it).
        self.pending: list[tuple[int, dict, list[str]]] = []

    def teardown(self) -> None:
        set_caching_enabled(None)
        for service, _ in self.sides:
            service.close()

    def both(self, step):
        """Run ``step(service, ticket)`` on each side; the two outcomes must agree."""
        outcomes = []
        for caching, (service, ticket) in zip((True, False), self.sides):
            set_caching_enabled(caching)
            try:
                outcomes.append(_outcome(lambda: step(service, ticket)))
            finally:
                set_caching_enabled(None)
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    @property
    def store(self):
        """The cached side's store: it draws glsns and nodes for both sides."""
        return self.sides[0][0].store

    # -- writes ---------------------------------------------------------------

    @initialize(batch=rows, criterion=st.sampled_from(CRITERIA))
    def seed(self, batch, criterion) -> None:
        self.append_batch(batch)
        self.register(criterion)

    @rule(values=row)
    def append(self, values) -> None:
        self.both(lambda service, ticket: service.log_event(values, ticket).glsn)

    @rule(batch=rows)
    def append_batch(self, batch) -> None:
        self.both(
            lambda service, ticket: [r.glsn for r in service.store.append_batch(batch, ticket)]
        )

    @rule(data=st.data())
    def delete(self, data) -> None:
        if self.store.glsns:
            glsn = data.draw(st.sampled_from(self.store.glsns))
            self.both(lambda service, ticket: service.store.delete_record(glsn, ticket))

    @rule(data=st.data(), value=st.integers(0, 4))
    def tamper(self, data, value) -> None:
        node = data.draw(st.sampled_from(NODES))
        attributes = [a for a in ATTRIBUTES if PLAN.home_of(a) == node]
        held = self.store.node_store(node).glsns
        if held and attributes:
            glsn = data.draw(st.sampled_from(held))
            attribute = data.draw(st.sampled_from(attributes))
            self.both(
                lambda service, _: service.store.node_store(node).tamper(
                    glsn, attribute, value
                )
            )

    @rule(data=st.data())
    def evict(self, data) -> None:
        node = data.draw(st.sampled_from(NODES))
        held = self.store.node_store(node).glsns
        if held:
            glsn = data.draw(st.sampled_from(held))
            self.both(lambda service, _: service.store.node_store(node).evict(glsn).glsn)

    def _put(self, glsn: int, values: dict, nodes) -> None:
        fragments = PLAN.fragment(LogRecord(glsn=glsn, values=values))

        def put(service, ticket):
            for node in nodes:
                service.store.node_store(node).stage_put([fragments[node]], ticket, [0])()

        self.both(put)

    @rule(values=row)
    def put_below(self, values) -> None:
        below = self.store.lowest_glsn - 1
        if self.store.glsns and below >= 0:
            self._put(below, values, NODES)

    @rule(values=row, first=st.lists(st.sampled_from(NODES), min_size=1, max_size=3, unique=True))
    def put_half(self, values, first) -> None:
        """A writer stores a record on ``first`` and stops there for now."""
        glsn = self.both(lambda service, _: service.store.allocator.allocate())[1]
        self._put(glsn, values, first)
        self.pending.append((glsn, values, [n for n in NODES if n not in first]))

    @rule()
    def put_rest(self) -> None:
        if self.pending:
            glsn, values, rest = self.pending.pop(0)
            self._put(glsn, values, rest)

    # -- reads ----------------------------------------------------------------

    @rule(criterion=st.sampled_from(CRITERIA))
    def query(self, criterion) -> None:
        self.both(lambda service, _: service.query(criterion).glsns)

    @rule(aggregate=st.sampled_from(AGGREGATES))
    def aggregate(self, aggregate) -> None:
        def run(service, _):
            result = service.aggregate(*aggregate)
            return result.value, result.matched

        self.both(run)

    @rule(criteria=st.lists(st.sampled_from(CRITERIA), min_size=2, max_size=6))
    def burst(self, criteria) -> None:
        self.both(
            lambda service, _: [
                result.glsns
                for result in service.gather([service.submit(c) for c in criteria])
            ]
        )

    @rule(criterion=st.sampled_from(CRITERIA))
    def register(self, criterion) -> None:
        self.both(lambda service, _: service.register_standing_query(criterion).query_id)

    @rule()
    def poll(self) -> None:
        self.both(
            lambda service, _: [
                (d.query_id, d.added, d.removed, d.total) for d in service.poll_standing()
            ]
        )
        # Both sides floor alike, so each is also held to a fresh query.
        _, current = self.both(
            lambda service, _: [
                query.seen == set(service.query(query.criterion).glsns)
                for query in service.standing._queries.values()
            ]
        )
        assert all(current)

    # -- what both sides must agree on ----------------------------------------

    @invariant()
    def same_answers_confidentiality_and_ledger(self) -> None:
        # Local probes after every step: a stale column or signature shows
        # at once, before a later mutation moves the epochs past it.
        for criterion in PROBES:
            self.query(criterion)
        views = []
        for service, _ in self.sides:
            observatory = service.observatory
            views.append((
                [(o.criterion, o.tenant, o.c_query, o.matches) for o in observatory._recent],
                observatory.c_dla(),
                {
                    (event.protocol, event.observer, event.category,
                     SESSION.sub("", event.detail))
                    for event in service.ctx.leakage.events
                    if event.category != "coalesced_result"
                },
            ))
        assert views[0] == views[1]


CacheDifferentialMachine.TestCase.settings = settings(
    # A tenth of the profile's examples: the ``ci`` profile's 1 000 stays
    # inside a minute.
    max_examples=max(settings().max_examples // 10, 5),
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestCacheDifferential = CacheDifferentialMachine.TestCase
