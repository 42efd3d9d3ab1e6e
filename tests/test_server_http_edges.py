"""HTTP front-end edge cases: keep-alive, request framing, /metrics headers.

These pin the connection-lifecycle behaviour of ``HttpGenerationServer``
that the happy-path service tests never look at:

* HTTP/1.1 keep-alive — several requests over one socket, honoured until
  the client sends ``Connection: close``, and kept after a malformed or
  non-object JSON body is answered with a structured 400;
* a WebSocket upgrade is answered like any unknown route, and an NDJSON
  stream read to its end is followed by the server's close;
* a ``Content-Length`` that is not a decimal byte count gets a structured
  400, and nothing escapes to the event loop's exception handler;
* the exact Prometheus content type of ``GET /metrics``.

The hang-up of an NDJSON stream client is pinned in ``test_service.py``,
next to the other injected failures on a process pool.
"""

import asyncio
import json

import pytest

from repro.service import GenerationService, HttpGenerationServer

SOURCE = "ego = Object at Range(-3, 3) @ 0\nObject at Range(-3, 3) @ 4\n"


async def _send_request(reader, writer, method, path, body=None, close=False, extra=""):
    """One raw HTTP/1.1 request on an already-open connection.

    *body* is JSON-encoded unless it is already ``bytes``; *extra* holds
    further header lines, each ending in CRLF.  A chunked response comes
    back with an empty body, its chunks left unread on *reader*.
    """
    if body is None or isinstance(body, bytes):
        payload = body or b""
    else:
        payload = json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n{extra}"
    )
    if close:
        head += "Connection: close\r\n"
    writer.write(head.encode("latin-1") + b"\r\n" + payload)
    await writer.drain()
    status_line = await reader.readuntil(b"\r\n")
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readuntil(b"\r\n")
        if line == b"\r\n":
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    body_bytes = await reader.readexactly(length) if length else b""
    return status, headers, body_bytes


def test_keep_alive_reuses_one_connection():
    async def run():
        async with GenerationService(workers=0) as service:
            async with HttpGenerationServer(service) as server:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                try:
                    status1, headers1, body1 = await _send_request(
                        reader, writer, "GET", "/healthz"
                    )
                    status2, headers2, body2 = await _send_request(
                        reader, writer, "POST", "/generate",
                        body={"source": SOURCE, "n": 2, "seed": 5},
                    )
                    # Even an error response keeps the connection usable.
                    status3, headers3, _ = await _send_request(
                        reader, writer, "GET", "/no-such-route"
                    )
                    status4, headers4, _ = await _send_request(
                        reader, writer, "GET", "/healthz", close=True
                    )
                    eof = await reader.read()
                finally:
                    writer.close()
                    await writer.wait_closed()
        return (status1, headers1, body1, status2, headers2, body2,
                status3, headers3, status4, headers4, eof)

    (status1, headers1, body1, status2, headers2, body2,
     status3, headers3, status4, headers4, eof) = asyncio.run(run())
    assert status1 == 200 and json.loads(body1)["ok"] is True
    assert headers1["connection"] == "keep-alive"
    assert status2 == 200
    response = json.loads(body2)
    assert response["ok"] is True and len(response["scenes"]) == 2
    assert headers2["connection"] == "keep-alive"
    assert status3 == 404 and headers3["connection"] == "keep-alive"
    # Connection: close is honoured: final response says so, then EOF.
    assert status4 == 200 and headers4["connection"] == "close"
    assert eof == b""


def test_malformed_json_body_keeps_connection_alive():
    async def run():
        async with GenerationService(workers=0) as service:
            async with HttpGenerationServer(service) as server:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                try:
                    answers = []
                    for body in (b"{not json at all", b'["an", "array"]'):
                        answers.append(await _send_request(
                            reader, writer, "POST", "/generate", body=body))
                        answers.append(await _send_request(reader, writer, "GET", "/healthz"))
                finally:
                    writer.close()
                    await writer.wait_closed()
        return [(status, json.loads(body)) for status, _, body in answers]

    error, alive, not_object, alive_again = asyncio.run(run())
    assert error[0] == 400 and error[1]["error"]["type"] == "JSONDecodeError"
    assert not_object[0] == 400 and "JSON object" in not_object[1]["error"]["message"]
    for status, health in (alive, alive_again):
        assert status == 200 and health["ok"] is True


def test_metrics_content_type():
    async def run():
        async with GenerationService(workers=0) as service:
            async with HttpGenerationServer(service) as server:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                try:
                    return await _send_request(
                        reader, writer, "GET", "/metrics", close=True
                    )
                finally:
                    writer.close()
                    await writer.wait_closed()

    status, headers, body = asyncio.run(run())
    assert status == 200
    assert headers["content-type"] == "text/plain; version=0.0.4"
    assert b"# TYPE repro_service_requests_total counter" in body


# ---------------------------------------------------------------------------
# Request framing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("length", ["abc", "-5", "1e3"])
def test_bad_content_length_gets_400(length):
    async def run():
        loop_errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: loop_errors.append(context)
        )
        async with GenerationService(workers=0) as service:
            async with HttpGenerationServer(service) as server:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                try:
                    writer.write(
                        f"POST /generate HTTP/1.1\r\nHost: t\r\n"
                        f"Content-Length: {length}\r\n\r\n{{}}".encode("latin-1")
                    )
                    await writer.drain()
                    answer = await asyncio.wait_for(reader.read(), timeout=30)
                finally:
                    writer.close()
                    await writer.wait_closed()
                # The server still answers a fresh connection.
                status, _, _ = await _fresh_healthz(server)
        return answer, status, loop_errors

    answer, status, loop_errors = asyncio.run(run())
    head, _, body = answer.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), answer
    assert json.loads(body) == {
        "ok": False,
        "error": {"type": "ValueError", "message": f"bad Content-Length {length!r}"},
    }
    assert status == 200
    assert loop_errors == []


async def _fresh_healthz(server):
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        return await _send_request(reader, writer, "GET", "/healthz", close=True)
    finally:
        writer.close()
        await writer.wait_closed()


def test_websocket_full_stream_still_ends_with_close():
    """A WebSocket upgrade gets a plain 404; a full stream ends with the server's close.

    ``/ws`` is not served, so an upgrade request is answered like any
    unknown route, on a connection that stays usable.  The hang-up watcher
    that guards an NDJSON stream must not break the normal path: a client
    that keeps its end open gets every frame, the terminating chunk, and
    then end-of-file from the server.
    """
    upgrade = (
        "Upgrade: websocket\r\nConnection: Upgrade\r\n"
        "Sec-WebSocket-Key: cmVwcm8td3MtZWRnZS10ZXN0cyE=\r\nSec-WebSocket-Version: 13\r\n"
    )

    async def read_chunks(reader):
        chunks = []
        while size := int(await reader.readuntil(b"\r\n"), 16):
            chunks.append((await reader.readexactly(size + 2))[:-2])
        await reader.readexactly(2)
        return chunks

    async def run():
        async with GenerationService(workers=0) as service:
            async with HttpGenerationServer(service) as server:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                try:
                    refused = await _send_request(reader, writer, "GET", "/ws", extra=upgrade)
                    status, headers, _ = await _send_request(
                        reader, writer, "POST", "/generate",
                        body={"source": SOURCE, "n": 3, "seed": 11, "stream": True},
                    )
                    chunks = await asyncio.wait_for(read_chunks(reader), timeout=30)
                    eof = await asyncio.wait_for(reader.read(), timeout=30)
                finally:
                    writer.close()
                    await writer.wait_closed()
        return refused, status, headers, chunks, eof

    refused, status, headers, chunks, eof = asyncio.run(run())
    refused_status, refused_headers, refused_body = refused
    assert refused_status == 404 and refused_headers["connection"] == "keep-alive"
    assert json.loads(refused_body)["error"]["message"] == "no such route '/ws'"
    assert status == 200 and headers["connection"] == "close"
    frames = [json.loads(chunk) for chunk in chunks]
    assert all(frame["ok"] for frame in frames)
    assert [frame["frame"] for frame in frames[:-1]] == ["block"] * (len(frames) - 1)
    assert frames[-1]["frame"] == "end" and frames[-1]["scenes"] == 3
    assert eof == b""
