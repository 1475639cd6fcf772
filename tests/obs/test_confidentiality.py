"""Unit tests: the confidentiality observatory (live C_query / C_DLA)."""

from statistics import mean

import pytest

from repro.audit.confidentiality import (
    auditing_confidentiality,
    store_confidentiality,
)
from repro.audit.planner import plan_query
from repro.errors import ConfigurationError
from repro.logstore import LogRecord
from repro.obs import MetricsRegistry
from repro.obs.confidentiality import ConfidentialityObservatory
from repro.workloads import paper_table1_rows

CROSS = "(C1 > 30 or protocl = 'TCP') and Tid = 'T1100267'"
LOCAL = "protocl = 'TCP'"


@pytest.fixture()
def observatory(table1_schema, table1_plan):
    return ConfidentialityObservatory(table1_schema, table1_plan)


def _records(n=2):
    rows = paper_table1_rows()[:n]
    return [LogRecord(glsn=i + 1, values=row) for i, row in enumerate(rows)]


class TestObserveQuery:
    def test_c_query_is_product_of_auditing_and_mean_store(
        self, observatory, table1_schema, table1_plan
    ):
        qplan = plan_query(CROSS, table1_schema, table1_plan)
        records = _records()
        obs = observatory.observe_query(qplan, records, leakage_events=3)
        expected_aud = auditing_confidentiality(qplan, table1_schema, table1_plan)
        expected_store = mean(
            store_confidentiality(r, table1_schema, table1_plan).value
            for r in records
        )
        assert obs.c_auditing == pytest.approx(expected_aud)
        assert obs.c_store == pytest.approx(expected_store)
        assert obs.c_query == pytest.approx(expected_aud * expected_store)
        assert obs.matches == len(records)
        assert obs.leakage_events == 3

    def test_no_match_query_contributes_c_store_one(
        self, observatory, table1_schema, table1_plan
    ):
        qplan = plan_query(LOCAL, table1_schema, table1_plan)
        obs = observatory.observe_query(qplan, [], leakage_events=0)
        assert obs.c_store == 1.0
        assert obs.c_query == pytest.approx(obs.c_auditing)

    def test_c_dla_is_running_mean(self, observatory, table1_schema, table1_plan):
        qplan = plan_query(CROSS, table1_schema, table1_plan)
        o1 = observatory.observe_query(qplan, _records(), leakage_events=1)
        o2 = observatory.observe_query(qplan, [], leakage_events=0)
        assert observatory.c_dla() == pytest.approx(mean([o1.c_query, o2.c_query]))
        assert observatory.query_count() == 2

    def test_per_tenant_c_dla_separated(self, observatory, table1_schema, table1_plan):
        qplan = plan_query(CROSS, table1_schema, table1_plan)
        a = observatory.observe_query(qplan, _records(), 0, tenant="a")
        b = observatory.observe_query(qplan, [], 0, tenant="b")
        assert observatory.c_dla("a") == pytest.approx(a.c_query)
        assert observatory.c_dla("b") == pytest.approx(b.c_query)
        assert observatory.c_dla("missing") is None
        assert observatory.c_dla() == pytest.approx(mean([a.c_query, b.c_query]))


class TestLeakageBudget:
    def test_over_budget_flagged_and_counted(
        self, table1_schema, table1_plan
    ):
        metrics = MetricsRegistry()
        observatory = ConfidentialityObservatory(
            table1_schema, table1_plan, metrics=metrics, budget=2
        )
        qplan = plan_query(CROSS, table1_schema, table1_plan)
        under = observatory.observe_query(qplan, [], leakage_events=2)
        over = observatory.observe_query(qplan, [], leakage_events=5)
        assert not under.over_budget
        assert over.over_budget
        snap = metrics.snapshot()
        warn = snap["repro_obs_leakage_budget_warnings_total"]["values"]
        assert sum(warn.values()) == 1
        leaked = snap["repro_obs_leakage_events_total"]["values"]
        assert sum(leaked.values()) == 7

    def test_budget_env_var(self, table1_schema, table1_plan, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_LEAKAGE_BUDGET", "4")
        observatory = ConfidentialityObservatory(table1_schema, table1_plan)
        assert observatory.budget == 4

    @pytest.mark.parametrize("raw", ["four", "4.5", "-3"])
    def test_bad_budget_env_var_names_it(
        self, table1_schema, table1_plan, monkeypatch, raw
    ):
        monkeypatch.setenv("REPRO_OBS_LEAKAGE_BUDGET", raw)
        with pytest.raises(ConfigurationError, match="REPRO_OBS_LEAKAGE_BUDGET"):
            ConfidentialityObservatory(table1_schema, table1_plan)

    def test_negative_budget_argument_rejected(self, table1_schema, table1_plan):
        with pytest.raises(ConfigurationError):
            ConfidentialityObservatory(table1_schema, table1_plan, budget=-1)

    def test_zero_budget_never_warns(self, observatory, table1_schema, table1_plan):
        qplan = plan_query(CROSS, table1_schema, table1_plan)
        obs = observatory.observe_query(qplan, [], leakage_events=10_000)
        assert observatory.budget == 0
        assert not obs.over_budget


class TestReport:
    def test_report_shape(self, observatory, table1_schema, table1_plan):
        qplan = plan_query(CROSS, table1_schema, table1_plan)
        observatory.observe_query(qplan, _records(), 2, tenant="acme")
        report = observatory.report()
        assert report["queries"] == 1
        assert report["c_dla"] == pytest.approx(observatory.c_dla(), abs=1e-6)
        assert report["tenants"]["acme"]["leakage_events"] == 2
        [recent] = report["recent"]
        assert recent["criterion"] == CROSS
        assert recent["tenant"] == "acme"
        assert 0.0 <= recent["c_query"] <= 1.0

    def test_empty_report(self, observatory):
        report = observatory.report()
        assert report["queries"] == 0
        assert report["c_dla"] is None
        assert report["tenants"] == {}

    def test_metrics_gauges_track_latest(self, table1_schema, table1_plan):
        metrics = MetricsRegistry()
        observatory = ConfidentialityObservatory(
            table1_schema, table1_plan, metrics=metrics
        )
        qplan = plan_query(CROSS, table1_schema, table1_plan)
        obs = observatory.observe_query(qplan, [], 0)
        snap = metrics.snapshot()
        c_query = snap["repro_obs_c_query"]["values"]
        assert list(c_query.values()) == [pytest.approx(obs.c_query)]
        c_dla = snap["repro_obs_c_dla"]["values"]
        assert list(c_dla.values()) == [pytest.approx(obs.c_query)]
