"""Async HTTP front end for the tile service — stdlib asyncio only.

A deliberately small HTTP/1.1 GET server (:func:`asyncio.start_server`
plus hand-rolled request parsing; no framework, no new dependencies)
exposing:

* ``GET /tile/{dataset}/{z}/{x}/{y}.png`` — one slippy-map tile.
  Query parameters: ``eps`` | ``tau`` (operation + parameter),
  ``method``, ``colormap``, ``deadline_ms``. Responses carry an
  ``X-Cache: hit|miss`` header and, for misses, render on the service's
  worker pool; the L1 (PNG) lookup runs on the event loop itself so
  warm tiles never queue behind cold renders.
* ``GET /stats`` — JSON snapshot: datasets, cache levels, obs metrics,
  load, resilience state, config.
* ``GET /healthz`` — liveness probe (200 while the process runs).
* ``GET /readyz`` — readiness probe: 200 while serving, 503 once the
  service starts draining for shutdown (load balancers stop routing
  here while in-flight requests finish).

Error payloads are uniform JSON: ``{"status": N, "code": "...",
"message": "..."}`` (plus a legacy ``"error"`` alias of ``message``).
``code`` is a stable machine-readable identifier — clients switch on
it, never on message text. Mapping: unknown dataset → 404
``dataset_not_found``, invalid parameters → 400 ``invalid_parameter``,
full render queue → 503 ``overloaded``, open circuit breaker → 503
``circuit_open``, broken worker pool → 503 ``worker_pool_broken``
(every 503 **and** 504 carries ``Retry-After``), tripped per-request
deadline → 504 ``deadline_exceeded``, unrecovered render failure → 500
``render_failed``. 5xx messages are generic — internal exception text
never leaks to clients.

Under the service's degrade-don't-fail policy a request that would
have failed may instead get a **degraded 200**: the last known-good
bytes (stale) or the anytime render's partial envelope. Degraded
responses always carry ``X-Repro-Degraded: <mode>;<reason>``, a
standard ``Warning`` header, and ``Cache-Control: no-store`` so
intermediaries never treat a stop-gap tile as fresh.

Connections are close-per-request (``Connection: close``) — tile
clients open cheap short-lived connections, and it keeps the parser
honest and tiny.
"""

from __future__ import annotations

import asyncio
import functools
import json
import re
import time
import urllib.parse
from typing import Any, Dict, Optional

from repro.errors import (
    CircuitOpenError,
    DatasetNotFoundError,
    DeadlineExceededError,
    InvalidParameterError,
    ReproError,
    ServiceOverloadedError,
    UnknownNameError,
    WorkerPoolBrokenError,
)
from repro.serve.service import TilePlan, TileService

__all__ = ["TileServer", "run_server"]

#: ``/tile/{dataset}/{z}/{x}/{y}.png``
_TILE_PATH = re.compile(
    r"^/tile/(?P<dataset>[^/]+)/(?P<z>-?\d+)/(?P<x>-?\d+)/(?P<y>-?\d+)\.png$"
)

_MAX_REQUEST_BYTES = 16 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _response(
    status: int,
    body: bytes,
    content_type: str,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    headers = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    if extra_headers:
        headers.extend(f"{name}: {value}" for name, value in extra_headers.items())
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + body


def _json_response(
    status: int, payload: Dict[str, Any], extra_headers: Optional[Dict[str, str]] = None
) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return _response(status, body, "application/json", extra_headers)


def _error_response(
    status: int,
    code: str,
    message: str,
    retry_after_s: Optional[int] = None,
    **extra: str,
) -> bytes:
    """Uniform error JSON: stable ``code``, human ``message``.

    Every 503 and 504 carries ``Retry-After`` (callers pass
    ``retry_after_s``; the default backstop adds 1s if they forget) so
    well-behaved clients back off instead of hammering an overloaded or
    recovering service. ``error`` duplicates ``message`` for clients of
    the earlier payload shape.
    """
    headers = dict(extra)
    if retry_after_s is None and status in (503, 504):
        retry_after_s = 1
    if retry_after_s is not None:
        headers["Retry-After"] = str(int(retry_after_s))
    return _json_response(
        status,
        {"status": status, "code": code, "message": message, "error": message},
        headers or None,
    )


def _parse_float(params: Dict[str, str], name: str) -> Optional[float]:
    raw = params.get(name)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise InvalidParameterError(f"query parameter {name}={raw!r} is not a number")


class TileServer:
    """Asyncio TCP server adapting HTTP GETs onto a :class:`TileService`.

    Parameters
    ----------
    service:
        The (already populated) tile service.
    host / port:
        Bind address; ``port=0`` picks a free port, readable from
        :attr:`port` after :meth:`start`.
    """

    def __init__(
        self, service: TileService, host: str = "127.0.0.1", port: int = 8699
    ) -> None:
        self.service = service
        self.host = host
        self.port = int(port)
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> "TileServer":
        """Bind and start accepting connections; resolves :attr:`port`."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.port = sock.getsockname()[1]
            break
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled (call :meth:`start` first)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and close the server."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        """Base URL of the bound server."""
        return f"http://{self.host}:{self.port}"

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            payload = await self._handle_request(reader)
        except Exception:  # last-ditch guard: never kill the acceptor loop
            payload = _error_response(500, "internal", "internal error")
        try:
            writer.write(payload)
            await writer.drain()
        # lint: allow-silent-except -- client went away mid-response;
        # nothing to salvage and nothing to tell it
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            # lint: allow-silent-except -- already closing; a reset
            # during teardown is the expected failure mode
            except (ConnectionError, BrokenPipeError):
                pass

    async def _handle_request(self, reader: asyncio.StreamReader) -> bytes:
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=10.0
            )
        except (asyncio.IncompleteReadError, asyncio.TimeoutError):
            return _error_response(400, "malformed_request", "malformed request")
        except asyncio.LimitOverrunError:
            return _error_response(400, "request_too_large", "request too large")
        if len(head) > _MAX_REQUEST_BYTES:
            return _error_response(400, "request_too_large", "request too large")
        request_line = head.split(b"\r\n", 1)[0].decode("latin-1")
        parts = request_line.split()
        if len(parts) != 3:
            return _error_response(
                400, "malformed_request", "malformed request line"
            )
        verb, target, _version = parts
        if verb != "GET":
            return _error_response(
                405, "method_not_allowed", f"method {verb} not allowed"
            )
        parsed = urllib.parse.urlsplit(target)
        path = urllib.parse.unquote(parsed.path)
        params = dict(urllib.parse.parse_qsl(parsed.query))
        return await self._route(path, params)

    async def _route(self, path: str, params: Dict[str, str]) -> bytes:
        if path == "/healthz":
            return _json_response(200, {"status": "ok"})
        if path == "/readyz":
            if self.service.draining:
                return _error_response(
                    503, "draining", "service is draining for shutdown"
                )
            return _json_response(200, self.service.readiness())
        if path == "/stats":
            return _json_response(200, self.service.stats())
        match = _TILE_PATH.match(path)
        if match is not None:
            return await self._tile(match, params)
        return _error_response(404, "no_route", f"no route for {path!r}")

    async def _tile(self, match: "re.Match[str]", params: Dict[str, str]) -> bytes:
        service = self.service
        start = time.perf_counter()
        try:
            options = {
                "eps": _parse_float(params, "eps"),
                "tau": _parse_float(params, "tau"),
                "deadline_ms": _parse_float(params, "deadline_ms"),
                "method": params.get("method"),
                "colormap": params.get("colormap"),
            }
            plan = service.plan_tile(
                match.group("dataset"),
                int(match.group("z")),
                int(match.group("x")),
                int(match.group("y")),
                **options,
            )
        except DatasetNotFoundError as error:
            return _error_response(
                404,
                "dataset_not_found",
                str(error.args[0] if error.args else error),
            )
        except (InvalidParameterError, UnknownNameError, ValueError) as error:
            return _error_response(
                400,
                "invalid_parameter",
                str(error.args[0] if error.args else error),
            )

        data = service.lookup_png(plan)
        try:
            return await self._serve_planned(plan, data)
        finally:
            service.finish_request(start)

    async def _serve_planned(self, plan: TilePlan, data: Optional[bytes]) -> bytes:
        """Answer a planned tile request given its L1 lookup result."""
        service = self.service
        if data is not None:
            return self._png_response(data, plan.png_key[2], "hit")

        if not service.try_acquire_slot():
            # Degrade-don't-fail: a full queue (or a draining service)
            # serves the last known-good bytes when it has them — the
            # stale lookup is a dictionary read, safe on the event loop.
            stale = service.overload_png(plan)
            if stale is not None:
                return self._png_response(
                    stale, plan.png_key[2], "stale",
                    degraded=("stale", "overloaded"),
                )
            if service.draining:
                return _error_response(
                    503, "draining", "service is draining for shutdown"
                )
            return _error_response(503, "overloaded", "render queue full")
        loop = asyncio.get_running_loop()
        try:
            data, info = await loop.run_in_executor(
                service.pool, functools.partial(service.serve_tile, plan)
            )
        except DeadlineExceededError:
            return _error_response(
                504,
                "deadline_exceeded",
                "tile render exceeded its deadline; retry later",
            )
        except CircuitOpenError as error:
            return _error_response(
                503,
                "circuit_open",
                str(error.args[0] if error.args else error),
            )
        except WorkerPoolBrokenError:
            return _error_response(
                503,
                "worker_pool_broken",
                "render worker pool is rebuilding; retry shortly",
            )
        except ServiceOverloadedError as error:
            return _error_response(
                503, "overloaded", str(error.args[0] if error.args else error)
            )
        except (InvalidParameterError, UnknownNameError) as error:
            return _error_response(
                400,
                "invalid_parameter",
                str(error.args[0] if error.args else error),
            )
        except ReproError:
            return _error_response(
                500, "render_failed", "tile render failed; see server logs"
            )
        except Exception:
            return _error_response(500, "internal", "internal error")
        finally:
            service.release_slot()
        degraded = None
        if info.get("degraded"):
            degraded = (str(info["degraded"]), str(info.get("degrade_reason", "")))
        return self._png_response(data, plan.png_key[2], "miss", degraded=degraded)

    def _png_response(
        self,
        data: bytes,
        fingerprint: str,
        disposition: str,
        degraded: Optional[tuple] = None,
    ) -> bytes:
        headers = {
            "X-Cache": disposition,
            "X-Fingerprint": fingerprint,
            "Cache-Control": "public, max-age=60",
        }
        if degraded is not None:
            mode, reason = degraded
            headers["X-Repro-Degraded"] = f"{mode};{reason}" if reason else mode
            headers["Warning"] = (
                '110 - "response is stale"'
                if mode == "stale"
                else '214 - "partial render"'
            )
            # A stop-gap tile must never be cached as fresh — not by
            # this server (serve_tile already guarantees that) and not
            # by any intermediary either.
            headers["Cache-Control"] = "no-store"
        return _response(200, data, "image/png", headers)


def run_server(
    service: TileService, host: str = "127.0.0.1", port: int = 8699
) -> None:
    """Blocking entrypoint: serve until interrupted (the CLI uses this)."""

    async def _main() -> None:
        server = TileServer(service, host, port)
        await server.start()
        print(f"repro serve: listening on {server.url}")
        print(f"  datasets: {', '.join(service.registry.ids()) or '(none)'}")
        print(f"  try: {server.url}/tile/<dataset>/0/0/0.png  |  {server.url}/stats")
        try:
            await server.serve_forever()
        # lint: allow-silent-except -- cancellation IS the shutdown
        # signal here; cleanup happens in finally
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    finally:
        service.close()
