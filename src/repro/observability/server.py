"""A live ops endpoint: stdlib threaded HTTP over the telemetry bundle.

``Engine.serve_metrics()`` (or ``repro serve-metrics``) starts a
:class:`ObservabilityServer` — a daemon-threaded ``http.server`` with no
dependencies — exposing:

* ``GET /metrics``  — the Prometheus text exposition (storage *and*
  worker-pool gauges are refreshed on every scrape, like
  ``engine.metrics`` — including pools another engine in the process
  created, via the shared-pool registry);
* ``GET /healthz``  — liveness JSON (status, uptime, engine config,
  queries logged);
* ``GET /queries``  — recent query-log entries as JSON, newest first
  (``?n=`` limits, default 50);
* ``GET /profile``  — the continuous profiler's current aggregate
  (collapsed stacks, top operators, iteration profile, misestimates);
* ``GET /flight``   — the flight-recorder ring listing, when one is
  configured.

The engine stays single-threaded; scrape handlers only *read* telemetry
state (plain dicts and deques under the GIL), so serving concurrently
with query execution is safe — a scrape may observe a metrics snapshot
mid-query, which is exactly what a Prometheus scrape of any live
database does.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse


class ObservabilityServer:
    """Owns the HTTP server thread for one engine's telemetry bundle."""

    def __init__(self, engine: Any, host: str = "127.0.0.1", port: int = 0):
        self.engine = engine
        self.started_unix = time.time()
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args: Any) -> None:  # silence stderr
                pass

            def do_GET(self) -> None:
                try:
                    server._route(self)
                except BrokenPipeError:  # pragma: no cover - client gone
                    pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObservabilityServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-obs-server",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ObservabilityServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- routing -------------------------------------------------------------

    def _route(self, request: BaseHTTPRequestHandler) -> None:
        parsed = urlparse(request.path)
        route = parsed.path.rstrip("/") or "/"
        if route == "/metrics":
            # The engine.metrics property refreshes storage gauges.
            self._send(request, 200, self.engine.metrics.to_prometheus(),
                       content_type="text/plain; version=0.0.4;"
                                    " charset=utf-8")
        elif route == "/healthz":
            self._send_json(request, 200, self._health())
        elif route == "/queries":
            limit = self._int_param(parsed.query, "n", 50)
            entries = self.engine.query_log.entries()
            self._send_json(request, 200, {
                "count": len(entries),
                "slow_ms": self.engine.query_log.slow_ms,
                "entries": [e.to_dict()
                            for e in reversed(entries[-limit:])],
            })
        elif route == "/profile":
            profiler = self.engine.telemetry.profiler
            payload = profiler.to_dict()
            payload["enabled"] = profiler.enabled
            self._send_json(request, 200, payload)
        elif route == "/flight":
            flight = self.engine.telemetry.flight
            if flight is None:
                self._send_json(request, 200,
                                {"enabled": False, "bundles": []})
            else:
                self._send_json(request, 200, {
                    "enabled": True,
                    "directory": flight.directory,
                    "max_bundles": flight.max_bundles,
                    "bundles": [{"path": path}
                                for path in flight.bundles()],
                })
        else:
            self._send_json(request, 404, {
                "error": "not found",
                "routes": ["/metrics", "/healthz", "/queries", "/profile",
                           "/flight"],
            })

    def _health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "uptime_s": round(time.time() - self.started_unix, 3),
            "dialect": self.engine.dialect.name,
            "optimizer": self.engine.optimizer,
            "storage": self.engine.storage,
            "queries_logged": len(self.engine.query_log),
            "profiling": self.engine.telemetry.profiler.enabled,
            "tracing": self.engine.telemetry.tracing,
            "flight": self.engine.telemetry.flight is not None,
            "parallel": getattr(self.engine, "parallel", 0),
        }

    @staticmethod
    def _int_param(query: str, name: str, default: int) -> int:
        values = parse_qs(query).get(name)
        if not values:
            return default
        try:
            return max(int(values[0]), 0)
        except ValueError:
            return default

    @staticmethod
    def _send(request: BaseHTTPRequestHandler, status: int, body: str,
              content_type: str) -> None:
        payload = body.encode("utf-8")
        request.send_response(status)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(payload)))
        request.end_headers()
        request.wfile.write(payload)

    @classmethod
    def _send_json(cls, request: BaseHTTPRequestHandler, status: int,
                   payload: dict[str, Any]) -> None:
        cls._send(request, status, json.dumps(payload, indent=1,
                                              default=str),
                  content_type="application/json")
