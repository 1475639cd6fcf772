"""Property: a standing query's deltas are the differences of fresh queries.

:class:`StandingScopeMachine` interleaves append batches (each one ingest
epoch, or stored without one), deletes, tampers, evictions, explicit
``poll_standing()`` calls and registrations mid-stream.  Its criteria cover
a local clause, a cross ``=``, a cross ``>``, a disjunction of a cross and
a local predicate, and a conjunction of both kinds.  After every epoch,
for every registered query, with *fresh* its answer from a from-scratch
``service.query``: ``added == fresh − previous fresh`` and
``removed == previous fresh − fresh`` — whether the epoch read only the
appended rows or the whole log.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.core import ConfidentialAuditingService
from repro.crypto import DeterministicRng, Operation
from repro.logstore import paper_fragment_plan, paper_table1_schema

SCHEMA = paper_table1_schema()
PLAN = paper_fragment_plan(SCHEMA)
NODES = tuple(PLAN.node_ids)
CRITERIA = (
    "C2 < 3",
    "C4 = C",
    "C1 > C5",
    "C4 = C or C2 < 2",
    "C1 > C5 and C2 < 3",
)
#: Attributes a row may carry, with small values so matches are common.
ATTRIBUTES = ("C1", "C5", "C4", "C", "C2")

rows = st.lists(
    st.dictionaries(st.sampled_from(ATTRIBUTES), st.integers(0, 4)),
    min_size=1,
    max_size=5,
)


class StandingScopeMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.service = ConfidentialAuditingService(
            SCHEMA, PLAN, prime_bits=64, rng=DeterministicRng(b"standing-scope-prop")
        )
        self.ticket = self.service.register_user(
            "auditee", {Operation.READ, Operation.WRITE, Operation.DELETE}
        )
        #: criterion -> its standing query, and -> its fresh answer at the last epoch
        self.queries: dict[str, object] = {}
        self.previous: dict[str, set[int]] = {}

    def teardown(self) -> None:
        self.service.close()

    def _check_epoch(self) -> None:
        epoch = self.service.standing.snapshot()["epoch"]
        for criterion, query in self.queries.items():
            delta = query.last_delta
            assert delta.epoch == epoch
            fresh = set(self.service.query(criterion).glsns)
            before = self.previous[criterion]
            assert set(delta.added) == fresh - before, criterion
            assert set(delta.removed) == before - fresh, criterion
            assert delta.total == len(fresh)
            self.previous[criterion] = fresh

    @initialize(batch=rows, criterion=st.sampled_from(CRITERIA))
    def seed(self, batch, criterion) -> None:
        self.service.store.append_batch(batch, self.ticket)
        self.register(criterion)

    @rule(criterion=st.sampled_from(CRITERIA))
    def register(self, criterion) -> None:
        if criterion not in self.queries:
            self.queries[criterion] = self.service.register_standing_query(criterion)
            self.previous[criterion] = set()

    @rule(batch=rows, evaluate=st.booleans())
    def append(self, batch, evaluate) -> None:
        self.service.append_stream(
            batch, self.ticket, batch_size=len(batch), evaluate_standing=evaluate
        )
        if evaluate:
            self._check_epoch()

    @rule()
    def poll(self) -> None:
        self.service.poll_standing()
        self._check_epoch()

    @rule(data=st.data())
    def delete(self, data) -> None:
        glsns = self.service.store.glsns
        if glsns:
            self.service.store.delete_record(data.draw(st.sampled_from(glsns)), self.ticket)

    @rule(data=st.data(), value=st.integers(0, 4))
    def tamper(self, data, value: int) -> None:
        node = data.draw(st.sampled_from(NODES))
        held = self.service.store.node_store(node)
        attributes = [a for a in ATTRIBUTES if PLAN.home_of(a) == node]
        if held.glsns and attributes:
            held.tamper(
                data.draw(st.sampled_from(held.glsns)),
                data.draw(st.sampled_from(attributes)),
                value,
            )

    @rule(data=st.data())
    def evict(self, data) -> None:
        held = self.service.store.node_store(data.draw(st.sampled_from(NODES)))
        if held.glsns:
            held.evict(data.draw(st.sampled_from(held.glsns)))


StandingScopeMachine.TestCase.settings = settings(
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestStandingScopeAgainstFreshQueries = StandingScopeMachine.TestCase
