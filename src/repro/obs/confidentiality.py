"""The confidentiality observatory: §5's metrics as live signals.

The paper defines ``C_query`` (eq. 12) and ``C_DLA`` (eq. 13) as
*measurements* of a running system, but :mod:`repro.audit.confidentiality`
only evaluates them statically.  The observatory closes the loop: every
query the service executes is observed with

* its ``C_auditing`` (from the plan's s/t/q decomposition),
* the mean ``C_store`` over the records it matched, scored once per
  distinct attribute set (eq. 10 reads nothing else of a record; no
  matches means ``C_store = 1`` — nothing about stored values was exposed),
* the :class:`~repro.smc.leakage.LeakageLedger` delta it produced, and
* the running ``C_DLA`` — the mean ``C_query`` per session *and* per
  tenant, so multi-tenant deployments can watch budgets separately.

A leakage *budget* (``REPRO_OBS_LEAKAGE_BUDGET``: max ledger events one
query may emit; 0/unset disables) turns the ledger into an alertable
signal: queries over budget are counted per tenant.  A scrape of
``/metrics`` reads the per-tenant ledgers (the latest ``C_query``, the
running ``C_DLA``, leakage events and budget warnings) and the budget,
so it sees confidentiality next to latency.
"""

from __future__ import annotations

import os
import threading
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import mean

from repro.errors import ConfigurationError

__all__ = [
    "QueryObservation",
    "ConfidentialityObservatory",
    "LEAKAGE_BUDGET_ENV_VAR",
]

LEAKAGE_BUDGET_ENV_VAR = "REPRO_OBS_LEAKAGE_BUDGET"

DEFAULT_TENANT = "default"
_HISTORY = 256


def _budget_from_env() -> int:
    """``REPRO_OBS_LEAKAGE_BUDGET``: a non-negative integer, 0/unset off."""
    raw = os.environ.get(LEAKAGE_BUDGET_ENV_VAR, "").strip()
    try:
        budget = int(raw or "0")
    except ValueError:
        raise ConfigurationError(
            f"{LEAKAGE_BUDGET_ENV_VAR}={raw!r} is not an integer"
        ) from None
    if budget < 0:
        raise ConfigurationError(
            f"{LEAKAGE_BUDGET_ENV_VAR}={raw!r} is negative (0 disables the budget)"
        )
    return budget


@dataclass(frozen=True)
class QueryObservation:
    """One query through the paper's confidentiality lens."""

    criterion: str
    tenant: str
    c_auditing: float
    c_store: float
    c_query: float
    matches: int
    leakage_events: int
    budget: int
    over_budget: bool

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "tenant": self.tenant,
            "c_auditing": round(self.c_auditing, 6),
            "c_store": round(self.c_store, 6),
            "c_query": round(self.c_query, 6),
            "matches": self.matches,
            "leakage_events": self.leakage_events,
            "budget": self.budget,
            "over_budget": self.over_budget,
        }


@dataclass
class _TenantLedger:
    c_queries: list[float] = field(default_factory=list)
    leakage_events: int = 0
    over_budget: int = 0

    def c_dla(self) -> float | None:
        return mean(self.c_queries) if self.c_queries else None


class ConfidentialityObservatory:
    """Computes C_query/C_DLA live and keeps the running report.

    Owned by :class:`~repro.core.service.ConfidentialAuditingService`;
    fed once per query with the plan, the matched records, and the
    ledger delta.  Thread-safe (the scheduler observes from worker
    threads).
    """

    def __init__(self, schema, plan, budget: int | None = None) -> None:
        self.schema = schema
        self.plan = plan
        if budget is None:
            budget = _budget_from_env()
        if budget < 0:
            raise ConfigurationError(f"leakage budget {budget} is negative")
        self.budget = budget
        self._lock = threading.Lock()
        self._tenants: dict[str, _TenantLedger] = {}
        self._recent: deque[QueryObservation] = deque(maxlen=_HISTORY)

    def observe_query(
        self,
        qplan,
        records,
        leakage_events: int,
        tenant: str = DEFAULT_TENANT,
        criterion: str | None = None,
    ) -> QueryObservation:
        """Fold one executed query into the observatory.

        ``qplan`` is the executed :class:`~repro.audit.planner.QueryPlan`
        (its s/t/q decomposition gives eq. 11); ``records`` the matched
        records, each as the attribute names it uses or a ``LogRecord`` (eq. 10);
        ``leakage_events`` the ledger delta this query produced.
        """
        # Deferred: repro.audit transitively imports repro.obs submodules,
        # so a module-level import here would close a package-init cycle.
        from repro.audit.confidentiality import (
            auditing_confidentiality,
            store_confidentiality,
        )

        c_aud = auditing_confidentiality(qplan, self.schema, self.plan)
        signatures = Counter(frozenset(getattr(r, "values", r)) for r in records)
        # One score per signature; the exact mean statistics.mean would give
        # over the records (no records: nothing stored was exposed).
        weighted = sum(
            Fraction(store_confidentiality(names, self.schema, self.plan).value) * count
            for names, count in signatures.items()
        )
        c_store = float(weighted / len(records)) if records else 1.0
        c_query = c_aud * c_store
        over = bool(self.budget) and leakage_events > self.budget
        obs = QueryObservation(
            criterion=criterion if criterion is not None else qplan.criterion_text,
            tenant=tenant,
            c_auditing=c_aud,
            c_store=c_store,
            c_query=c_query,
            matches=len(records),
            leakage_events=leakage_events,
            budget=self.budget,
            over_budget=over,
        )
        with self._lock:
            ledger = self._tenants.setdefault(tenant, _TenantLedger())
            ledger.c_queries.append(c_query)
            ledger.leakage_events += leakage_events
            if over:
                ledger.over_budget += 1
            self._recent.append(obs)
        return obs

    # -- readout -----------------------------------------------------------

    def c_dla(self, tenant: str | None = None) -> float | None:
        """eq. 13 over this session: per tenant, or across all tenants."""
        with self._lock:
            if tenant is not None:
                ledger = self._tenants.get(tenant)
                return ledger.c_dla() if ledger else None
            values = [c for t in self._tenants.values() for c in t.c_queries]
        return mean(values) if values else None

    def query_count(self) -> int:
        with self._lock:
            return sum(len(t.c_queries) for t in self._tenants.values())

    def report(self) -> dict:
        """The ``/leakage`` endpoint body: budgets, C_DLA, recent queries."""
        with self._lock:
            tenants = {
                name: {
                    "queries": len(ledger.c_queries),
                    "c_dla": round(ledger.c_dla(), 6) if ledger.c_queries else None,
                    "leakage_events": ledger.leakage_events,
                    "over_budget": ledger.over_budget,
                }
                for name, ledger in sorted(self._tenants.items())
            }
            recent = [obs.to_dict() for obs in self._recent]
        overall = self.c_dla()
        return {
            "budget": self.budget,
            "queries": sum(t["queries"] for t in tenants.values()),
            "c_dla": round(overall, 6) if overall is not None else None,
            "tenants": tenants,
            "recent": recent,
        }
