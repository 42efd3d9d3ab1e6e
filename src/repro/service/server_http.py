"""A minimal, dependency-free HTTP front end for the service.

Built directly on ``asyncio.start_server`` — no web framework, by design:
the container the service ships in carries only the standard library, and
the surface is four routes:

``GET /healthz``
    Liveness/readiness probe → ``200 {"ok": true, "status": "serving",
    "workers": N, "pending": P}``.
``GET /metrics``
    Prometheus text exposition of the service counters
    (``repro_service_requests_total``, ``..._scenes_total``,
    ``..._shed_total``, ``..._worker_cache_hits_total``, ``..._pending``,
    ...).
``POST /publish``
    JSON body ``{"source": "..."}`` → ``200 {"ok": true, "fingerprint":
    "..."}``.  The program is compiled once; later requests can name it by
    fingerprint alone instead of re-sending its text.
``POST /generate``
    JSON body with ``source`` | ``fingerprint`` and optional ``n``,
    ``seed``, ``strategy`` (default ``"vectorized"``), ``max_iterations``
    and ``stream``; any other field is a 400.  Blocking by default (one JSON document
    back); with ``"stream": true`` the response is
    ``application/x-ndjson`` with chunked transfer encoding — one frame
    per line, exactly the frames :meth:`GenerationService.generate_stream`
    yields, block frames as shards complete and an ``end`` frame with the
    merged stats.  A client that hangs up, blocking or streaming, aborts
    its request at once: the admission slot is released without waiting
    for the running shards, whose records are dropped when they land.

Errors are structured: ``{"ok": false, "error": {"type": ...,
"message": ...}}`` with status 400 (bad request), 404 (no such route),
405 (wrong method), 413 (body, request line or header line too long), 503
(:class:`ServiceOverloadedError`) or 500 (shard failures), and —
mid-stream — an ``"frame": "error"`` NDJSON line, since the status line
has already been sent.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Awaitable, Dict, Optional, Tuple

from ..core.scenario import DEFAULT_BATCH_STRATEGY
from .service import GenerationFailedError, GenerationService, ServiceOverloadedError

#: Default cap on one request body (and on the request and header lines).
#: Big enough for any realistic program source; small enough that a
#: misbehaving client cannot balloon the server's buffers.
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: Every field a ``POST /generate`` body may carry.
_GENERATE_FIELDS = (
    "source", "fingerprint", "n", "seed", "strategy", "max_iterations", "stream",
)

#: How an error message names each JSON type a request field can take.
_JSON_TYPE_NAMES = {str: "a string", int: "an integer", bool: "true or false"}

#: How often a running request checks whether its client hung up.
_HANG_UP_POLL_SECONDS = 0.05

_STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _error_status(error: Exception) -> int:
    if isinstance(error, ServiceOverloadedError):
        return 503
    if isinstance(error, GenerationFailedError):
        return 500
    return 400


def _error_response(error: Exception) -> Dict[str, Any]:
    return {
        "ok": False,
        "error": {"type": type(error).__name__, "message": str(error)},
    }


def _json_object(body: bytes) -> Dict[str, Any]:
    """Decode a request body that must hold one JSON object."""
    request = json.loads(body.decode("utf-8")) if body else {}
    if not isinstance(request, dict):
        raise ValueError("request body must be a JSON object")
    return request


def _field(request: Dict[str, Any], field: str, default: Any) -> Any:
    """A request field, which must have the JSON type of its *default*.

    Nothing is coerced: ``true`` and ``2.5`` are not integers, ``123`` is
    not a string and ``"no"`` is not a boolean.
    """
    value = request.get(field, default)
    if type(value) is not type(default):
        raise ValueError(
            f"'{field}' must be {_JSON_TYPE_NAMES[type(default)]}, not {json.dumps(value)}"
        )
    return value


def _generate_params(request: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
    """Validate a generate request into ``generate(...)`` kwargs and its stream flag."""
    unknown = sorted(set(request) - set(_GENERATE_FIELDS))
    if unknown:
        raise ValueError(
            f"unknown request field(s): {', '.join(unknown)} "
            f"(known: {', '.join(_GENERATE_FIELDS)})"
        )
    source = _field(request, "source", "")
    fingerprint = _field(request, "fingerprint", "")
    if not (source or fingerprint):
        raise ValueError("generate needs 'source' or 'fingerprint'")
    params = {
        "source_or_hash": source or fingerprint,
        "n": _field(request, "n", 1),
        "seed": _field(request, "seed", 0),
        "strategy": _field(request, "strategy", DEFAULT_BATCH_STRATEGY),
        "max_iterations": _field(request, "max_iterations", 2000),
    }
    return params, _field(request, "stream", False)


async def _unless_hung_up(reader: asyncio.StreamReader, work: Awaitable[Any]) -> Any:
    """Await *work*, or cancel it and raise ``ConnectionResetError`` once the client hangs up.

    The watcher polls ``reader.at_eof()``, which reads nothing: the next
    request of a keep-alive client stays buffered for the connection's
    next turn.  A client that half-closes its sending side counts as gone.
    """
    working = asyncio.ensure_future(work)
    try:
        while not working.done():
            if reader.at_eof():
                raise ConnectionResetError("client hung up")
            await asyncio.wait({working}, timeout=_HANG_UP_POLL_SECONDS)
    finally:
        working.cancel()
        await asyncio.gather(working, return_exceptions=True)
    return working.result()


class HttpGenerationServer:
    """Serve a :class:`GenerationService` over HTTP 1.1."""

    def __init__(
        self,
        service: GenerationService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ):
        self.service = service
        self.host = host
        self.port = port  # 0 = ephemeral; the bound port lands here after start()
        self.max_body_bytes = int(max_body_bytes)
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> "HttpGenerationServer":
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=self.max_body_bytes
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        await self.service.close()

    async def __aenter__(self) -> "HttpGenerationServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.close()

    # -- request handling ---------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            # HTTP/1.1 keep-alive: serve requests on this connection until
            # the client asks to close (``Connection: close``), a chunked
            # NDJSON stream ends it, a request cannot be framed, or the
            # peer hangs up.
            while True:
                parsed = await self._read_request(reader, writer)
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = "close" not in headers.get("connection", "").lower()
                reusable = await self._route(method, path, body, reader, writer, keep_alive)
                if not (reusable and keep_alive):
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """One request, or ``None`` once the connection cannot go on."""
        request_line = await self._read_line(reader, writer, "request")
        if request_line is None:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            await self._send_json(writer, 400, _error_response(
                ValueError("malformed request line")))
            return None
        method, path = parts[0].upper(), parts[1]

        headers: Dict[str, str] = {}
        while True:
            line = await self._read_line(reader, writer, "header")
            if line is None:
                return None
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        # Without a valid length the body cannot be framed, so the
        # connection ends after the 400.
        raw_length = headers.get("content-length", "0") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            await self._send_json(writer, 400, _error_response(
                ValueError(f"bad Content-Length {raw_length!r}")))
            return None
        length = int(raw_length)
        if length > self.max_body_bytes:
            await self._send_json(writer, 413, _error_response(
                ValueError(f"request body exceeds {self.max_body_bytes} bytes")))
            return None
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _read_line(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, kind: str
    ) -> Optional[bytes]:
        """One CRLF-terminated line; ``None`` at end-of-file or, after a 413, when too long."""
        try:
            return await reader.readuntil(b"\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            await self._send_json(writer, 413, _error_response(
                ValueError(f"{kind} line too long")))
            return None

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        keep_alive: bool = False,
    ) -> bool:
        """Serve one request; returns whether the connection is reusable."""
        close = not keep_alive
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            await self._send_json(writer, 200, {
                "ok": True,
                "status": "serving",
                "workers": self.service.workers,
                "pending": self.service._pending,
            }, close=close)
            return True
        if path == "/metrics" and method == "GET":
            await self._send_text(writer, 200, self._metrics_text(),
                                  content_type="text/plain; version=0.0.4",
                                  close=close)
            return True
        if path in ("/generate", "/publish"):
            if method != "POST":
                await self._send_json(writer, 405, _error_response(
                    ValueError(f"use POST {path}")), close=close)
                return True
            if path == "/publish":
                await self._serve_publish(body, writer, close=close)
                return True
            return await self._serve_generate(body, reader, writer, close=close)
        await self._send_json(writer, 404, _error_response(
            ValueError(f"no such route {path!r}")), close=close)
        return True

    # -- routes -------------------------------------------------------------------

    def _metrics_text(self) -> str:
        stats = self.service.service_stats()
        lines = []
        for key, metric, kind in (
            ("requests", "repro_service_requests_total", "counter"),
            ("streams", "repro_service_streams_total", "counter"),
            ("scenes", "repro_service_scenes_total", "counter"),
            ("failures", "repro_service_failures_total", "counter"),
            ("shed", "repro_service_shed_total", "counter"),
            ("engine_cache_hits", "repro_service_worker_cache_hits_total", "counter"),
            ("engine_cache_misses", "repro_service_worker_cache_misses_total", "counter"),
            ("pending", "repro_service_pending", "gauge"),
            ("peak_pending", "repro_service_peak_pending", "gauge"),
            ("workers", "repro_service_workers", "gauge"),
        ):
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric} {stats[key]}")
        return "\n".join(lines) + "\n"

    async def _serve_publish(
        self, body: bytes, writer: asyncio.StreamWriter, close: bool = True
    ) -> None:
        try:
            source = _json_object(body).get("source")
            if not isinstance(source, str) or not source:
                raise ValueError("publish needs 'source'")
            fingerprint = self.service.publish(source)
        except Exception as error:  # noqa: BLE001 - a bad body or a compile error
            await self._send_json(writer, 400, _error_response(error), close=close)
            return
        await self._send_json(writer, 200, {"ok": True, "fingerprint": fingerprint},
                              close=close)

    async def _serve_generate(
        self,
        body: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        close: bool = True,
    ) -> bool:
        try:
            params, stream = _generate_params(_json_object(body))
        except Exception as error:  # noqa: BLE001
            await self._send_json(writer, 400, _error_response(error), close=close)
            return True

        if stream:
            await self._stream_ndjson(params, reader, writer)
            return False  # chunked stream always ends the connection
        try:
            response = await _unless_hung_up(reader, self.service.generate(**params))
        except (ConnectionResetError, BrokenPipeError):
            raise
        except Exception as error:  # noqa: BLE001
            await self._send_json(
                writer, _error_status(error), _error_response(error), close=close
            )
            return True
        await self._send_json(writer, 200, {"ok": True, **response.as_dict()}, close=close)
        return True

    async def _stream_ndjson(
        self,
        params: Dict[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """``POST /generate`` with ``stream: true`` → chunked NDJSON frames.

        A client that hangs up closes the stream at once, so the request's
        admission slot does not wait for its running shards to land.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        async def send_line(payload: Dict[str, Any]) -> None:
            data = json.dumps(payload).encode("utf-8") + b"\n"
            writer.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")
            await writer.drain()

        stream = self.service.generate_stream(**params)

        async def pump() -> None:
            try:
                async for frame in stream:
                    await send_line({"ok": True, **frame})
            except (ConnectionResetError, BrokenPipeError):
                raise
            except Exception as error:  # noqa: BLE001 - status already sent; answer in-band
                await send_line({**_error_response(error), "frame": "error"})
            writer.write(b"0\r\n\r\n")
            await writer.drain()

        try:
            await _unless_hung_up(reader, pump())
        finally:
            await stream.aclose()

    # -- plumbing -----------------------------------------------------------------

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        close: bool = True,
    ) -> None:
        await self._send_text(
            writer, status, json.dumps(payload), content_type="application/json",
            close=close,
        )

    async def _send_text(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        text: str,
        content_type: str = "text/plain",
        close: bool = True,
    ) -> None:
        body = text.encode("utf-8")
        phrase = _STATUS_PHRASES.get(status, "OK")
        connection = "close" if close else "keep-alive"
        writer.write(
            f"HTTP/1.1 {status} {phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n".encode("latin-1")
            + body
        )
        await writer.drain()


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[Dict[str, Any]] = None,
) -> Tuple[int, bytes]:
    """One-shot HTTP client (stdlib-only; the tests drive the server with it).

    Returns ``(status, body_bytes)``; chunked NDJSON responses are
    de-chunked, so the body is the raw frame lines.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = json.dumps(body).encode("utf-8") if body is not None else b""
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n".encode("latin-1")
            + payload
        )
        await writer.drain()
        status_line = await reader.readuntil(b"\r\n")
        status = int(status_line.split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding", "").lower() == "chunked":
            chunks = []
            while True:
                size_line = await reader.readuntil(b"\r\n")
                size = int(size_line.strip() or b"0", 16)
                if size == 0:
                    await reader.readuntil(b"\r\n")
                    break
                chunks.append(await reader.readexactly(size))
                await reader.readexactly(2)  # trailing CRLF
            return status, b"".join(chunks)
        length = int(headers.get("content-length", "0") or "0")
        return status, (await reader.readexactly(length) if length else await reader.read())
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


__all__ = ["DEFAULT_MAX_BODY_BYTES", "HttpGenerationServer", "http_request"]
