"""Stdlib-only HTTP/1.1 + NDJSON transport for the ``serve`` daemon.

No web framework, no new dependency: :func:`asyncio.start_server` plus a
minimal, deliberately strict HTTP/1.1 layer (request line, headers,
``Content-Length`` bodies, ``Transfer-Encoding: chunked`` responses).  The
event loop only parses and serialises; every simulation runs on the
scheduler's worker threads, and a stream waits for a computing cell by
awaiting the scheduler's future on the loop (:func:`asyncio.wrap_future`) —
slow simulations never stall other connections, and store hits are answered
without touching a thread.

Endpoints (full reference with wire examples in ``docs/SERVICE.md``):

====================  ======================================================
``POST /runs``        body: RunSpec JSON — stream the cell's events (NDJSON)
``POST /campaigns``   body: CampaignSpec JSON — stream every cell's events
``GET /runs/{fp}``    cached lookup: 200 stored / 202 in flight / 404 miss
``GET /stats``        scheduler counters + the store's stats document
``GET /metrics``      Prometheus text exposition of the same stats document
``GET /healthz``      liveness + whether the scheduler still admits work
``GET /version``      the library version serving this daemon
====================  ======================================================

Streaming responses are ``application/x-ndjson``: one JSON object per line,
sent chunked as each cell resolves.  Every ``cell`` event's ``record`` is
byte-identical (under ``json.dumps(..., sort_keys=True)``) to the record
``repro-patrol run`` produces for the same spec — the scheduler guarantees
it by expanding specs through the exact campaign path.

Backpressure maps :class:`~repro.service.scheduler.ServiceOverloaded` to
``429`` with a ``Retry-After`` header; a malformed spec is ``400``; a
draining scheduler is ``503``.  A request that cannot be read gets a status,
never a dropped connection: ``400`` for a bad or over-long request line, a
bad header, a negative or non-numeric ``Content-Length`` or a truncated
body, ``413`` past :data:`MAX_BODY_BYTES`, ``431`` for a header line over
:data:`MAX_LINE_BYTES` or more than :data:`MAX_HEADERS` header fields, and
``408`` when the whole request has not arrived within
:data:`REQUEST_TIMEOUT_S`.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
from concurrent.futures import Future
from typing import Any

from repro.service.registry import register_transport
from repro.service.scheduler import (
    CampaignTicket,
    ServiceClosed,
    ServiceOverloaded,
    ServiceScheduler,
)

__all__ = ["HttpTransport"]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Upper bound on request bodies; a CampaignSpec is a few KB, so anything
#: near this is a client bug, not a workload.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Seconds a client has to send its whole request (line, headers and body);
#: a slower or stalled sender gets ``408``, so no connection is held forever.
REQUEST_TIMEOUT_S = 10.0

#: Request-head caps: the longest request or header line (asyncio's default
#: stream limit) and the most header fields.
MAX_LINE_BYTES = 64 * 1024
MAX_HEADERS = 100

# After refusing a request, how long the client's remaining input is read
# and dropped before closing: closing on unread input resets the connection,
# which can destroy the status before the client reads it.
_LINGER_S = 1.0


class _BadRequest(ValueError):
    """Protocol-level parse failure, answered with ``status``."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _dumps(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True)


def _plain_response(status: int, payload: Any, *, headers: "tuple[tuple[str, str], ...]" = ()) -> bytes:
    body = (_dumps(payload) + "\n").encode()
    head = (
        f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        + "".join(f"{name}: {value}\r\n" for name, value in headers)
        + "\r\n"
    ).encode("latin-1")
    return head + body


def _text_response(status: int, text: str, *, content_type: str) -> bytes:
    body = text.encode()
    head = (
        f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


def _chunk(data: bytes) -> bytes:
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


async def _read_line(reader: asyncio.StreamReader, what: str, status: int) -> bytes:
    try:
        return await reader.readline()
    except ValueError as exc:  # the stream limit, MAX_LINE_BYTES
        raise _BadRequest(f"{what} longer than {MAX_LINE_BYTES} bytes", status) from exc


async def _discard_input(reader: asyncio.StreamReader) -> None:
    while await reader.read(MAX_LINE_BYTES):
        pass


async def _refuse(reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                  status: int, message: str) -> None:
    """Answer a request that could not be read, then let the client finish.

    The client may still be sending (the rest of an over-long line, a body
    that will never fit): half-close, then read and drop its input for up
    to ``_LINGER_S`` so the close cannot reset the connection before the
    status is read.
    """
    writer.write(_plain_response(status, {"error": message}))
    await writer.drain()
    if writer.can_write_eof():
        writer.write_eof()
    try:
        await asyncio.wait_for(_discard_input(reader), _LINGER_S)
    except asyncio.TimeoutError:
        pass


async def _settled(future: Future) -> None:
    """Wait on the loop until a scheduler future settles, failed or not."""
    try:
        await asyncio.wrap_future(future)
    except Exception:
        pass  # the ticket's stream reports the failure as an error event


class HttpTransport:
    """The HTTP/JSON face of a :class:`~repro.service.scheduler.ServiceScheduler`.

    Parameters
    ----------
    scheduler:
        The scheduler executing and coalescing the admitted specs.
    host:
        Interface to bind (default loopback; ``0.0.0.0`` exposes the daemon).
    port:
        TCP port; ``0`` binds an ephemeral port and publishes the real one
        on :attr:`port` once serving (how the tests run parallel daemons).

    Two run modes: :meth:`serve_forever` blocks the calling thread (the CLI
    path, ``repro-patrol serve``); :meth:`start` / :meth:`stop` run the same
    loop on a background thread (the test / embedding path).
    """

    def __init__(self, scheduler: ServiceScheduler, *, host: str = "127.0.0.1",
                 port: int = 8422) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._stop_event: "asyncio.Event | None" = None
        self._thread: "threading.Thread | None" = None
        self._ready = threading.Event()
        self._startup_error: "BaseException | None" = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle --------------------------------------------------------- #

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(self._handle_connection, self.host, self.port,
                                            limit=MAX_LINE_BYTES)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await self._stop_event.wait()

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted; drains on the way out."""
        try:
            asyncio.run(self._main())
        except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
            pass
        finally:
            self.scheduler.shutdown(wait=True)

    def start(self) -> "HttpTransport":
        """Serve on a background thread; returns once the port is bound."""
        def _run() -> None:
            try:
                asyncio.run(self._main())
            except BaseException as exc:  # surface bind failures to start()
                self._startup_error = exc
                self._ready.set()

        self._thread = threading.Thread(target=_run, name="repro-http", daemon=True)
        self._thread.start()
        self._ready.wait(timeout=10)
        if self._startup_error is not None:
            raise RuntimeError(f"http transport failed to start: {self._startup_error!r}")
        if not self._ready.is_set():  # pragma: no cover - pathological scheduler stall
            raise RuntimeError("http transport did not start within 10s")
        return self

    def stop(self, *, shutdown_scheduler: bool = True) -> None:
        """Stop a background server started with :meth:`start` (idempotent)."""
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None and not loop.is_closed():
            loop.call_soon_threadsafe(event.set)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        if shutdown_scheduler:
            self.scheduler.shutdown(wait=True)

    # -- request plumbing -------------------------------------------------- #

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> "tuple[str, str, dict[str, str], bytes] | None":
        request_line = await _read_line(reader, "request line", 400)
        if not request_line.strip():
            return None  # client connected and went away
        try:
            method, path, _version = request_line.decode("latin-1").split(" ", 2)
        except ValueError as exc:
            raise _BadRequest(f"malformed request line {request_line!r}") from exc
        headers: dict[str, str] = {}
        for count in itertools.count():
            line = await _read_line(reader, "header line", 431)
            if line in (b"\r\n", b"\n", b""):
                break
            if count == MAX_HEADERS:
                raise _BadRequest(f"more than {MAX_HEADERS} header fields", 431)
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _BadRequest(f"Content-Length {declared!r} is not a non-negative integer")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _BadRequest(
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES} limit", 413)
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path.split("?", 1)[0], headers, body

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await asyncio.wait_for(self._read_request(reader),
                                                 REQUEST_TIMEOUT_S)
            except _BadRequest as exc:
                await _refuse(reader, writer, exc.status, str(exc))
                return
            except asyncio.IncompleteReadError as exc:
                await _refuse(reader, writer, 400, f"body ended after "
                              f"{len(exc.partial)} of {exc.expected} bytes")
                return
            except asyncio.TimeoutError:
                await _refuse(reader, writer, 408, "request not received "
                              f"within {REQUEST_TIMEOUT_S:g}s")
                return
            if request is None:
                return
            method, path, _headers, body = request
            try:
                await self._dispatch(method, path, body, writer)
            except ServiceOverloaded as exc:
                writer.write(_plain_response(
                    429, {"error": str(exc), "retry_after": exc.retry_after},
                    headers=(("Retry-After", f"{max(1, round(exc.retry_after))}"),),
                ))
            except ServiceClosed as exc:
                writer.write(_plain_response(503, {"error": str(exc)}))
            except (ValueError, TypeError, KeyError) as exc:
                writer.write(_plain_response(400, {"error": f"{exc}"}))
            except Exception as exc:  # never tear the connection without a status
                writer.write(_plain_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                ))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):  # client hung up mid-response
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    # -- routing ----------------------------------------------------------- #

    async def _dispatch(
        self, method: str, path: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        if method == "POST" and path in ("/runs", "/campaigns"):
            await self._handle_submit(path, body, writer)
            return
        if method == "GET" and path.startswith("/runs/"):
            self._handle_lookup(path.removeprefix("/runs/"), writer)
            return
        if method == "GET" and path == "/stats":
            writer.write(_plain_response(200, self._stats_payload()))
            return
        if method == "GET" and path == "/metrics":
            from repro.obs import prometheus_text

            writer.write(_text_response(
                200, prometheus_text(self._stats_document()),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            ))
            return
        if method == "GET" and path == "/healthz":
            stats = self.scheduler.stats()
            writer.write(_plain_response(
                200 if stats["accepting"] else 503,
                {"status": "ok" if stats["accepting"] else "draining",
                 "accepting": stats["accepting"], "pending": stats["pending"]},
            ))
            return
        if method == "GET" and path == "/version":
            from repro import __version__

            writer.write(_plain_response(200, {"version": __version__}))
            return
        known_get = ("/runs/{fingerprint}", "/stats", "/metrics", "/healthz", "/version")
        if path in ("/runs", "/campaigns"):
            writer.write(_plain_response(
                405, {"error": f"{path} only accepts POST (a spec JSON body)"}
            ))
            return
        writer.write(_plain_response(
            404, {"error": f"no route {method} {path}; GET routes: "
                           f"{', '.join(known_get)}; POST routes: /runs, /campaigns"}
        ))

    def _stats_document(self) -> dict:
        """The unified stats document for this daemon's scheduler and store."""
        from repro.obs.adapters import stats_document

        return stats_document(store=self.scheduler.store, scheduler=self.scheduler)

    def _stats_payload(self) -> dict:
        from repro import __version__
        from repro.obs.adapters import scheduler_stats_view

        document = self._stats_document()
        return {
            "version": __version__,
            "scheduler": scheduler_stats_view(document),
            "store": document.get("store"),
        }

    def _handle_lookup(self, fingerprint: str, writer: asyncio.StreamWriter) -> None:
        found = self.scheduler.lookup(fingerprint)
        if found is None:
            writer.write(_plain_response(
                404, {"fingerprint": fingerprint, "status": "unknown"}
            ))
        elif found["status"] == "in-flight":
            writer.write(_plain_response(202, found))
        else:
            writer.write(_plain_response(200, found))

    async def _handle_submit(
        self, path: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        try:
            payload = json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("body must be a JSON object (a RunSpec / CampaignSpec)")
        # The route names the spec kind; an explicit "kind" key must agree.
        kind = "run" if path == "/runs" else "campaign"
        declared = payload.get("kind")
        if declared is not None and declared != kind:
            raise ValueError(
                f"spec kind {declared!r} does not match the {path} route; "
                f"POST it to /{declared}s instead"
            )
        payload.setdefault("kind", kind)
        ticket = self.scheduler.submit(payload)  # raises before any streaming
        await self._stream_ticket(ticket, writer)

    async def _stream_ticket(
        self, ticket: CampaignTicket, writer: asyncio.StreamWriter
    ) -> None:
        """Send the ticket's events as chunked NDJSON, one chunk per event.

        A cell still computing is awaited on the loop, and everything ready
        before it is flushed first; store hits and finished cells never
        leave the loop thread.  A wait cut short — the client hung up, the
        transport stopped — cannot cancel the scheduler's future, which
        coalesced requests may share (it is running from admission on).
        """
        ready = [(
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")]
        for item in ticket.stream():
            if isinstance(item, Future):
                writer.write(b"".join(ready))
                ready.clear()
                await writer.drain()
                await _settled(item)
            else:
                ready.append(_chunk((_dumps(item) + "\n").encode()))
        ready.append(b"0\r\n\r\n")
        writer.write(b"".join(ready))
        await writer.drain()


@register_transport(
    "http",
    aliases=("rest",),
    description="stdlib asyncio HTTP/1.1 + chunked NDJSON streaming (POST "
                "/runs, POST /campaigns, GET /runs/{fp}, /stats, /metrics, "
                "/healthz)",
)
def http_transport(scheduler, *, host: str = "127.0.0.1", port: int = 8422) -> HttpTransport:
    """Build the HTTP transport (see :class:`HttpTransport`).

    Parameters
    ----------
    host : str
        Interface to bind; default loopback.
    port : int
        TCP port to listen on; ``0`` picks an ephemeral port.
    """
    return HttpTransport(scheduler, host=host, port=port)
