"""Unit tests: the live telemetry endpoint (``repro.obs.server``)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricsRegistry
from repro.obs.server import ObsServer, start_from_env


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read().decode()


@pytest.fixture()
def server():
    metrics = MetricsRegistry()
    metrics.counter("demo_total", help='a "demo" counter\nwith newline').inc(3)
    metrics.histogram("demo_lat", buckets=[0.1, 1.0]).observe(0.5)
    srv = ObsServer(
        metrics=lambda: metrics,
        health=lambda: {"status": "ok", "nodes": {"P1": {"status": "ok"}}},
        traces=lambda: [{"trace_id": "coord-t1", "spans": []}],
        leakage=lambda: {"budget": 0, "queries": 2, "c_dla": 0.5},
    )
    with srv:
        yield srv


class TestRoutes:
    def test_metrics_prometheus_exposition(self, server):
        status, ctype, body = _get(server.url + "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        assert "version=0.0.4" in ctype
        assert "demo_total 3" in body
        assert 'demo_lat_bucket{le="+Inf"} 1' in body

    def test_healthz_json(self, server):
        status, ctype, body = _get(server.url + "/healthz")
        assert status == 200
        assert ctype == "application/json"
        data = json.loads(body)
        assert data["status"] == "ok"
        assert data["nodes"]["P1"]["status"] == "ok"

    def test_traces_json(self, server):
        _status, _ctype, body = _get(server.url + "/traces")
        assert json.loads(body)[0]["trace_id"] == "coord-t1"

    def test_leakage_json(self, server):
        _status, _ctype, body = _get(server.url + "/leakage")
        assert json.loads(body)["c_dla"] == 0.5

    def test_trailing_slash_accepted(self, server):
        status, _ctype, body = _get(server.url + "/healthz/")
        assert status == 200 and json.loads(body)["status"] == "ok"

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/nope")
        assert err.value.code == 404

    def test_provider_failure_returns_500(self):
        srv = ObsServer(health=lambda: 1 / 0)
        with srv:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(srv.url + "/healthz")
            assert err.value.code == 500

    def test_missing_providers_serve_empty(self):
        with ObsServer() as srv:
            _status, _ctype, metrics = _get(srv.url + "/metrics")
            assert metrics == ""
            _status, _ctype, health = _get(srv.url + "/healthz")
            assert json.loads(health) == {}


class TestLifecycle:
    def test_ephemeral_port_assigned(self, server):
        assert server.port > 0
        assert str(server.port) in server.url

    def test_stop_closes_listener(self):
        srv = ObsServer(health=lambda: {}).start()
        url = srv.url
        srv.stop()
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            _get(url + "/healthz")

    def test_start_twice_is_idempotent(self):
        srv = ObsServer().start()
        try:
            assert srv.start() is srv
        finally:
            srv.stop()


class _StubService:
    def __init__(self):
        class _Obs:
            @staticmethod
            def report():
                return {"queries": 0}

        self.observatory = _Obs()

    def health_snapshot(self):
        return {"status": "ok", "nodes": {}}

    def recent_traces_snapshot(self):
        return []


class TestStartFromEnv:
    def test_unset_means_no_server(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_HTTP_PORT", raising=False)
        assert start_from_env(_StubService()) is None

    def test_garbage_value_means_no_server(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_HTTP_PORT", "not-a-port")
        assert start_from_env(_StubService()) is None

    def test_zero_binds_ephemeral(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_HTTP_PORT", "0")
        srv = start_from_env(_StubService())
        try:
            assert srv is not None and srv.port > 0
            _status, _ctype, body = _get(srv.url + "/leakage")
            assert json.loads(body) == {"queries": 0}
        finally:
            srv.stop()
