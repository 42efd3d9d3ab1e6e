"""A JSON-lines TCP front end for :class:`~repro.service.GenerationService`.

One request per line, UTF-8 JSON.  The protocol is deliberately tiny (and
dependency-free) — it exists so the service can be driven from outside the
process (`python -m repro.service serve`), load tested, and smoke tested in
CI over a real socket.

Operations (``{"op": ..., ...}``):

``ping``
    Liveness probe → ``{"ok": true, "op": "ping"}``.
``publish``
    ``{"source": "..."}`` → ``{"ok": true, "fingerprint": "..."}``.  The
    program can then be requested by fingerprint alone.
``generate``
    ``{"source": "..."} | {"fingerprint": "..."}`` plus optional ``n``,
    ``seed``, ``strategy``, ``max_iterations``, ``derive``, ``options``
    (strategy options object) → the full
    :meth:`~repro.service.protocol.GenerateResponse.as_dict` payload.

    With ``"stream": true`` the answer is *incremental*: one JSON line per
    completed shard (``{"ok": true, "op": "generate", "frame": "block",
    "indices": [...], "scenes": [...]}``) followed by a final ``"frame":
    "end"`` line carrying the merged stats.  Reassembling the block frames
    by their indices is bit-identical to the blocking response for the
    same request.
``stats``
    → ``{"ok": true, "stats": {...}}`` (service-level counters).
``shutdown``
    Acknowledges, then stops the server loop (used for clean shutdown in
    tests and the CLI).

Errors never drop the connection: they come back as
``{"ok": false, "error": {"type": ..., "message": ...}}``, with overload
shedding distinguishable as ``type == "ServiceOverloadedError"``.  That
includes malformed JSON and requests longer than *max_request_bytes* (the
line buffer is bounded; an oversized line is discarded, answered with
``type == "RequestTooLargeError"``, and the connection keeps serving).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Dict, Optional

from .service import GenerationService

#: Default cap on one request line.  Big enough for any realistic program
#: source; small enough that a misbehaving client cannot balloon the
#: server's line buffer.
DEFAULT_MAX_REQUEST_BYTES = 1 << 20


class RequestTooLargeError(ValueError):
    """A request line exceeded the server's ``max_request_bytes``."""


class GenerationServer:
    """Serve a :class:`GenerationService` over newline-delimited JSON."""

    def __init__(
        self,
        service: GenerationService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    ):
        self.service = service
        self.host = host
        self.port = port  # 0 = ephemeral; the bound port lands here after start()
        self.max_request_bytes = int(max_request_bytes)
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> "GenerationServer":
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=self.max_request_bytes
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` op arrives (or the task is cancelled)."""
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        await self.service.close()
        self._shutdown.set()

    async def __aenter__(self) -> "GenerationServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.close()

    # -- request handling ---------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await self._read_request_line(reader, writer)
                if line is None:
                    break
                if not line.strip():
                    continue
                shutdown = await self._answer_line(line, writer)
                if shutdown:
                    self._shutdown.set()
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            # Swallow CancelledError too: server.close() cancels handler
            # tasks mid-await, and a cancelled cleanup is still a clean close.
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _read_request_line(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[bytes]:
        """One bounded request line; ``None`` = client is done.

        An oversized line does not tear the connection down (the old
        behaviour — ``LimitOverrunError`` escaped the handler and the
        client saw an unexplained EOF): the line is discarded up to its
        newline, the client gets a structured ``RequestTooLargeError``
        frame, and the next line is served normally.
        """
        while True:
            try:
                return await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as partial:
                # EOF: either a clean close (no partial data) or a final
                # unterminated line, which we serve as-is.
                return partial.partial or None
            except asyncio.LimitOverrunError:
                found_newline = await self._discard_oversized_line(reader)
                await self._write_frame(
                    writer,
                    _error_response(
                        RequestTooLargeError(
                            f"request line exceeds {self.max_request_bytes} bytes"
                        )
                    ),
                )
                if not found_newline:
                    return None

    @staticmethod
    async def _discard_oversized_line(reader: asyncio.StreamReader) -> bool:
        """Drop buffered data until the offending line's newline (or EOF)."""
        while True:
            try:
                await reader.readuntil(b"\n")
                return True
            except asyncio.LimitOverrunError as overrun:
                await reader.readexactly(max(overrun.consumed, 1))
            except asyncio.IncompleteReadError:
                return False

    async def _write_frame(self, writer: asyncio.StreamWriter, frame: Dict[str, Any]) -> None:
        writer.write(json.dumps(frame).encode("utf-8") + b"\n")
        await writer.drain()

    async def _answer_line(self, line: bytes, writer: asyncio.StreamWriter) -> bool:
        """Answer one request line (possibly with many frames).

        Returns True when the request was an acknowledged ``shutdown``.
        """
        try:
            request = json.loads(line.decode("utf-8"))
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except Exception as error:  # noqa: BLE001 - protocol errors must answer
            await self._write_frame(writer, _error_response(error))
            return False

        if request.get("op", "generate") == "generate" and request.get("stream"):
            await self._stream_generate(request, writer)
            return False

        try:
            response = await self._dispatch(request)
        except Exception as error:  # noqa: BLE001
            # ServiceErrors (overload, generation failure) and protocol
            # errors alike answer in-band; the type travels in the payload.
            await self._write_frame(writer, _error_response(error))
            return False
        await self._write_frame(writer, response)
        return bool(response.get("op") == "shutdown" and response.get("ok"))

    async def _stream_generate(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        """Incremental ``generate``: one frame line per shard, then the end frame."""
        try:
            params = _generate_params(request)
        except Exception as error:  # noqa: BLE001
            await self._write_frame(writer, _error_response(error))
            return
        stream = self.service.generate_stream(**params)
        try:
            async for frame in stream:
                await self._write_frame(writer, {"ok": True, "op": "generate", **frame})
        except (ConnectionResetError, BrokenPipeError):
            raise
        except Exception as error:  # noqa: BLE001
            # Mid-stream failures (shard errors, bad parameters, overload)
            # answer in-band (frame "error"); the connection — and any
            # earlier block frames — survive.
            await self._write_frame(
                writer, {**_error_response(error), "frame": "error"}
            )
        finally:
            await stream.aclose()

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op", "generate")
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "stats":
            return {"ok": True, "op": "stats", "stats": self.service.service_stats()}
        if op == "shutdown":
            return {"ok": True, "op": "shutdown"}
        if op == "publish":
            fingerprint = self.service.publish(str(request["source"]))
            return {"ok": True, "op": "publish", "fingerprint": fingerprint}
        if op == "generate":
            response = await self.service.generate(**_generate_params(request))
            return {"ok": True, "op": "generate", **response.as_dict()}
        raise ValueError(f"unknown op {op!r}")


def _generate_params(request: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a generate request's fields into ``generate(...)`` kwargs."""
    source_or_hash = request.get("source") or request.get("fingerprint")
    if not source_or_hash:
        raise ValueError("generate needs 'source' or 'fingerprint'")
    options = request.get("options") or {}
    if not isinstance(options, dict):
        raise ValueError("'options' must be an object of strategy options")
    params = {
        "source_or_hash": str(source_or_hash),
        "n": int(request.get("n", 1)),
        "seed": int(request.get("seed", 0)),
        "strategy": str(request.get("strategy", "rejection")),
        "max_iterations": int(request.get("max_iterations", 2000)),
        "derive": str(request.get("derive", "splitmix")),
    }
    clashes = sorted(set(options) & (set(params) | {"source", "fingerprint"}))
    if clashes:
        raise ValueError(f"'options' may not set request fields: {', '.join(clashes)}")
    return {**params, **options}


def _error_response(error: Exception) -> Dict[str, Any]:
    return {
        "ok": False,
        "error": {"type": type(error).__name__, "message": str(error)},
    }


async def request_over_tcp(host: str, port: int, request: Dict[str, Any]) -> Dict[str, Any]:
    """Send one JSON-lines request and await its response (client helper)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(json.dumps(request).encode("utf-8") + b"\n")
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ConnectionError("server closed the connection without answering")
        return json.loads(line.decode("utf-8"))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def stream_over_tcp(
    host: str, port: int, request: Dict[str, Any]
) -> AsyncIterator[Dict[str, Any]]:
    """Send one streaming request; yield frames until ``end`` (client helper).

    Yields every frame the server writes, including a terminal
    ``{"ok": false, ...}`` error frame; iteration stops after the ``end``
    frame or an error frame.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(json.dumps({**request, "stream": True}).encode("utf-8") + b"\n")
        await writer.drain()
        while True:
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed the connection mid-stream")
            frame = json.loads(line.decode("utf-8"))
            yield frame
            if not frame.get("ok") or frame.get("frame") == "end":
                return
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


__all__ = [
    "DEFAULT_MAX_REQUEST_BYTES",
    "GenerationServer",
    "RequestTooLargeError",
    "request_over_tcp",
    "stream_over_tcp",
]
