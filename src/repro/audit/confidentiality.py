"""Degree-of-auditing-confidentiality metrics (paper §5, eq. 10-13).

The paper quantifies how little each DLA node can learn:

* **Store confidentiality** (eq. 10) of an audit trail ``Log``::

      C_store(Log) = v·u / w,   0 ≤ v ≤ w ≤ |I|,  0 ≤ u ≤ n

  ``w`` = number of attributes used in the record, ``v`` = how many of
  them are *undefined* (C_1..C_n — opaque to DLA nodes), ``u`` = the
  minimum number of DLA nodes whose supported sets jointly cover the
  record's attributes.  More opacity and wider spread ⇒ higher score.

* **Auditing confidentiality** (eq. 11) of a criterion ``Q`` normalized to
  ``Q_N = SQ_1 ∧ ... ∧ SQ_q``::

      C_auditing(Q) = (t + q) / (s + q)

  ``s`` = atomic predicates, ``t`` = cross predicates, ``q`` = conjunctive
  clauses.  All-cross queries score 1; all-local single-clause queries
  approach 1/s.

* **Query confidentiality** (eq. 12): ``C_query = C_auditing · C_store``.

* **DLA confidentiality** (eq. 13): the average of ``C_query`` over a
  query/log workload.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from statistics import mean

from repro.audit.classify import classify, cross_predicate_count
from repro.audit.normalize import to_conjunctive_form
from repro.audit.parser import parse_criterion
from repro.audit.planner import QueryPlan
from repro.errors import AuditError
from repro.logstore.fragmentation import FragmentPlan
from repro.logstore.records import LogRecord
from repro.logstore.schema import GlobalSchema

__all__ = [
    "StoreConfidentiality",
    "store_confidentiality",
    "auditing_confidentiality",
    "query_confidentiality",
    "dla_confidentiality",
]


@dataclass(frozen=True)
class StoreConfidentiality:
    """eq. 10 decomposition: the score plus its ingredients."""

    w: int  # attributes used in the record
    v: int  # undefined attributes among them
    u: int  # minimum node count covering the record's attributes
    value: float


def store_confidentiality(
    record: LogRecord | Iterable[str], schema: GlobalSchema, plan: FragmentPlan
) -> StoreConfidentiality:
    """Compute ``C_store`` (eq. 10) for one record under one plan — or for the
    attribute names it uses, which is all of a record the score reads."""
    names = record.values if isinstance(record, LogRecord) else record
    used = [name for name in names if name in schema]
    if not used:
        raise AuditError("record uses no schema attributes")
    w = len(used)
    v = sum(1 for name in used if schema.get(name).is_undefined)
    u = plan.minimum_cover_count(used)
    return StoreConfidentiality(w=w, v=v, u=u, value=(v * u) / w)


def auditing_confidentiality(
    criterion: str | QueryPlan, schema: GlobalSchema, plan: FragmentPlan
) -> float:
    """Compute ``C_auditing`` (eq. 11) for a criterion.

    Accepts criterion text (parsed and normalized here) or an existing
    :class:`~repro.audit.planner.QueryPlan`.
    """
    if isinstance(criterion, QueryPlan):
        s, t, q = criterion.s, criterion.t, criterion.q
    else:
        form = to_conjunctive_form(parse_criterion(criterion, schema))
        subqueries = classify(form, plan)
        s = form.s
        t = cross_predicate_count(subqueries)
        q = form.q
    if s + q == 0:
        raise AuditError("degenerate criterion with no predicates")
    return (t + q) / (s + q)


def query_confidentiality(
    criterion: str | QueryPlan,
    record: LogRecord,
    schema: GlobalSchema,
    plan: FragmentPlan,
) -> float:
    """Compute ``C_query`` (eq. 12) = C_auditing · C_store."""
    c_audit = auditing_confidentiality(criterion, schema, plan)
    c_store = store_confidentiality(record, schema, plan).value
    return c_audit * c_store


def dla_confidentiality(
    workload: list[tuple[str, LogRecord]],
    schema: GlobalSchema,
    plan: FragmentPlan,
) -> float:
    """Compute ``C_DLA`` (eq. 13): mean C_query over a (Q, Log) workload."""
    if not workload:
        raise AuditError("empty workload")
    return mean(
        query_confidentiality(criterion, record, schema, plan)
        for criterion, record in workload
    )
