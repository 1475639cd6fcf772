"""Live telemetry endpoint: a stdlib HTTP server over the obs layer.

Four read-only routes, enough for a Prometheus scrape and a human with
``curl``:

* ``/metrics``  — Prometheus text exposition of the service's ledgers
  (:func:`repro.obs.metrics.collect`);
* ``/healthz``  — per-node liveness (JSON), fed by the resilience layer
  (failed links and excluded ring members mark nodes degraded);
* ``/traces``   — the most recent traces of the service's tracer (JSON);
* ``/leakage``  — the confidentiality observatory's report (JSON):
  leakage budgets, per-tenant ``C_DLA``, recent ``C_query`` values.

Opt-in: constructing a :class:`ConfidentialAuditingService` with
``REPRO_OBS_HTTP_PORT`` set (0 = ephemeral port) starts one
automatically; nothing listens otherwise.  The server binds localhost,
serves each request on a daemon thread, and holds no state of its own —
every route renders the live service objects at request time.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.metrics import collect

__all__ = ["ObsServer", "start_from_env", "OBS_HTTP_PORT_ENV_VAR"]

OBS_HTTP_PORT_ENV_VAR = "REPRO_OBS_HTTP_PORT"


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"

    # The route table lives on the server object (see ObsServer.start).
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        route = self.path.split("?", 1)[0].rstrip("/") or "/"
        provider = self.server.routes.get(route)  # type: ignore[attr-defined]
        if provider is None:
            self.send_error(404, "unknown route")
            return
        try:
            content_type, body = provider()
        except Exception as exc:  # surface, don't kill the serving thread
            self.send_error(500, f"telemetry provider failed: {exc}")
            return
        payload = body.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:
        pass  # telemetry scrapes must not spam stdout


class ObsServer:
    """Serves ``/metrics``, ``/healthz``, ``/traces``, ``/leakage``.

    Every route is a callable invoked per request: ``metrics`` returns a
    :class:`~repro.obs.metrics.MetricsRegistry` to render, the other
    three plain JSON-safe dicts; a route left ``None`` serves an empty
    page (``{}`` for the JSON ones).  The usual construction site is
    ``service.start_obs_server()``, which wires all four to the live
    service.
    """

    def __init__(
        self,
        metrics=None,
        health=None,
        traces=None,
        leakage=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._metrics = metrics
        self._health = health
        self._traces = traces
        self._leakage = leakage
        self.host = host
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- route providers ---------------------------------------------------

    def _render_metrics(self) -> tuple[str, str]:
        text = self._metrics().render_prometheus() if self._metrics else ""
        return ("text/plain; version=0.0.4; charset=utf-8", text)

    def _render_json(self, provider) -> tuple[str, str]:
        data = provider() if provider is not None else {}
        return ("application/json", json.dumps(data, indent=2) + "\n")

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObsServer":
        if self._httpd is not None:
            return self
        httpd = ThreadingHTTPServer((self.host, self._requested_port), _Handler)
        httpd.daemon_threads = True
        httpd.routes = {  # type: ignore[attr-defined]
            "/metrics": self._render_metrics,
            "/healthz": lambda: self._render_json(self._health),
            "/traces": lambda: self._render_json(self._traces),
            "/leakage": lambda: self._render_json(self._leakage),
        }
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever, name="repro-obs-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_from_env(service) -> ObsServer | None:
    """Start a telemetry server when ``REPRO_OBS_HTTP_PORT`` is set.

    The value is the port to bind (``0`` asks the OS for an ephemeral
    one — read it back from ``server.port``).  Unset/blank means no
    server; construction never fails the service over a bad value.
    """
    raw = os.environ.get(OBS_HTTP_PORT_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        port = int(raw)
    except ValueError:
        return None
    return ObsServer(
        metrics=functools.partial(collect, service),
        health=service.health_snapshot,
        traces=service.recent_traces_snapshot,
        leakage=lambda: service.observatory.report(),
        port=port,
    ).start()
