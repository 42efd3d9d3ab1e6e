"""Streaming responses and front-end robustness (`repro/service/`).

Pins the service's user-visible delivery contracts:

* ``generate_stream`` frames reassemble **bit-identically** to the blocking
  response for the same request, at any worker count;
* backpressure slots survive every exit path — normal completion, shard
  failure, cancellation while *queued*, and an abandoned stream iterator
  (inline and on a process pool);
* the HTTP front end serves ``/healthz``, ``/metrics``, blocking and
  NDJSON-streaming ``POST /generate``, and ends a failed stream with an
  in-band error frame;
* on a raw TCP connection, a stream after a keep-alive request carries one
  frame per chunk and ends with the server's close, and over-cap requests
  get a structured 413 before the connection ends.
"""

import asyncio
import json
import threading
from pathlib import Path

import pytest

from repro.service import (
    GenerationFailedError,
    GenerationService,
    HttpGenerationServer,
    ServiceOverloadedError,
    http_request,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


def _source(stem):
    return (SCENARIO_DIR / f"{stem}.scenic").read_text()


def _reassemble(frames, n):
    scenes = [None] * n
    for frame in frames:
        if frame.get("frame") == "block":
            for index, record in zip(frame["indices"], frame["scenes"]):
                scenes[index] = record
    return scenes


# ---------------------------------------------------------------------------
# generate_stream == generate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [0, 2])
def test_stream_reassembles_bit_identical_to_blocking(workers):
    source = _source("two_cars")

    async def run():
        async with GenerationService(workers=workers) as service:
            blocking = await service.generate(source, n=8, seed=21, max_iterations=20000)
            frames = []
            async for frame in service.generate_stream(
                source, n=8, seed=21, max_iterations=20000
            ):
                frames.append(frame)
            return blocking, frames, service.service_stats()

    blocking, frames, stats = asyncio.run(run())
    # Both calls ran the one shard path; only the stream counts as a stream.
    assert (stats["requests"], stats["streams"]) == (2, 1)
    assert frames[-1]["frame"] == "end"
    assert frames[-1]["scenes"] == 8
    block_frames = frames[:-1]
    assert all(frame["frame"] == "block" for frame in block_frames)
    assert len(block_frames) == blocking.stats["shards"]
    assert _reassemble(frames, 8) == blocking.scenes
    # The end frame's stats roll up the same shard set as the blocking path.
    assert frames[-1]["stats"]["scenes"] == blocking.stats["scenes"]
    assert frames[-1]["stats"]["iterations"] == blocking.stats["iterations"]


def test_stream_end_frame_on_zero_scene_request():
    async def run():
        async with GenerationService(workers=0) as service:
            return [
                frame
                async for frame in service.generate_stream(_source("single_car"), n=0)
            ]

    frames = asyncio.run(run())
    assert [frame["frame"] for frame in frames] == ["end"]
    assert set(frames[0]) == {
        "frame", "fingerprint", "strategy", "seed", "derive", "scenes", "stats",
    }
    assert frames[0]["scenes"] == 0
    assert frames[0]["stats"]["shards"] == 0


def test_stream_shard_failure_raises_generation_failed():
    source = "ego = Object at 0 @ 0\nrequire ego.position.x > 1\n"

    async def run():
        async with GenerationService(workers=0) as service:
            async for _frame in service.generate_stream(source, n=1, seed=0, max_iterations=5):
                pass

    with pytest.raises(GenerationFailedError):
        asyncio.run(run())


# ---------------------------------------------------------------------------
# Backpressure accounting survives every exit path (the slot-leak fix)
# ---------------------------------------------------------------------------


def test_cancelled_queued_request_restores_full_capacity():
    """Cancel a request while it waits in the queue; capacity must return.

    The admission path claims a pending slot *before* awaiting the inflight
    semaphore; a cancellation delivered during that wait must roll the slot
    back, or the service permanently loses queue capacity.
    """
    source = _source("two_cars")

    async def run():
        async with GenerationService(workers=0, max_inflight=1, max_queue=1) as service:
            first = asyncio.create_task(
                service.generate(source, n=6, seed=3, max_iterations=20000)
            )
            await asyncio.sleep(0)  # first acquires the only inflight slot
            queued = asyncio.create_task(service.generate(source, n=1, seed=4))
            await asyncio.sleep(0)  # queued is now waiting on the semaphore
            assert service.service_stats()["pending"] == 2
            queued.cancel()
            with pytest.raises(asyncio.CancelledError):
                await queued
            assert service.service_stats()["pending"] == 1  # slot rolled back
            await first

            # Full capacity restored: one admitted + one queued fit again,
            # and only a *third* concurrent request is shed.
            second = asyncio.create_task(
                service.generate(source, n=6, seed=5, max_iterations=20000)
            )
            await asyncio.sleep(0)
            third = asyncio.create_task(service.generate(source, n=1, seed=6))
            await asyncio.sleep(0)
            with pytest.raises(ServiceOverloadedError):
                await service.generate(source, n=1, seed=7)
            await asyncio.gather(second, third)
            assert service.service_stats()["pending"] == 0
            return service.service_stats()["shed"]

    assert asyncio.run(run()) == 1


def _abandon_then_generate(**service_options):
    """Abandon a stream after its first frame; return the slot and the next request."""
    source = _source("two_cars")

    async def run():
        async with GenerationService(max_inflight=1, max_queue=0, **service_options) as service:
            stream = service.generate_stream(source, n=6, seed=9, max_iterations=20000)
            async for _frame in stream:
                break  # abandon after the first frame
            await stream.aclose()
            pending = service.service_stats()["pending"]
            # The slot is genuinely free again.
            response = await service.generate(source, n=6, seed=2, max_iterations=20000)
            return pending, response.scenes

    return asyncio.run(run())


def test_abandoned_stream_releases_its_slot():
    pending, scenes = _abandon_then_generate(workers=0)
    assert pending == 0
    assert len(scenes) == 6


def test_abandoned_stream_on_a_process_pool_releases_its_slot():
    """The same on two workers.

    The shard still running when the stream is abandoned lands unread, and
    the next request matches ``workers=0``.
    """
    pending, scenes = _abandon_then_generate(workers=2)
    assert pending == 0
    assert scenes == _abandon_then_generate(workers=0)[1]


def test_failed_request_restores_capacity():
    bad = "ego = Object at 0 @ 0\nrequire ego.position.x > 1\n"

    async def run():
        async with GenerationService(workers=0, max_inflight=1, max_queue=0) as service:
            for _attempt in range(3):
                with pytest.raises(GenerationFailedError):
                    await service.generate(bad, n=1, seed=0, max_iterations=5)
            assert service.service_stats()["pending"] == 0
            response = await service.generate(_source("single_car"), n=1, seed=0)
            return len(response.scenes)

    assert asyncio.run(run()) == 1


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------


def test_http_healthz_metrics_and_errors():
    async def run():
        service = GenerationService(workers=0)
        async with HttpGenerationServer(service, port=0) as server:
            health = await http_request("127.0.0.1", server.port, "GET", "/healthz")
            metrics = await http_request("127.0.0.1", server.port, "GET", "/metrics")
            missing = await http_request("127.0.0.1", server.port, "GET", "/nope")
            wrong_verb = await http_request("127.0.0.1", server.port, "GET", "/generate")
            bad_body = await http_request(
                "127.0.0.1", server.port, "POST", "/generate", {"n": 1}
            )
            return health, metrics, missing, wrong_verb, bad_body

    health, metrics, missing, wrong_verb, bad_body = asyncio.run(run())
    status, body = health
    assert status == 200 and json.loads(body)["ok"] is True
    status, body = metrics
    text = body.decode()
    assert status == 200
    assert "repro_service_requests_total" in text
    assert "repro_service_pending" in text
    assert missing[0] == 404
    assert wrong_verb[0] == 405
    status, body = bad_body
    assert status == 400
    assert json.loads(body)["error"]["type"] == "ValueError"


def test_http_generate_blocking_and_ndjson_stream_agree():
    source = _source("two_cars")
    request = {"source": source, "n": 6, "seed": 42, "max_iterations": 20000}

    async def run():
        service = GenerationService(workers=2)
        async with HttpGenerationServer(service, port=0) as server:
            status, body = await http_request(
                "127.0.0.1", server.port, "POST", "/generate", request
            )
            blocking = json.loads(body)
            status_stream, stream_body = await http_request(
                "127.0.0.1", server.port, "POST", "/generate", {**request, "stream": True}
            )
            frames = [json.loads(line) for line in stream_body.decode().splitlines()]
            return status, blocking, status_stream, frames

    status, blocking, status_stream, frames = asyncio.run(run())
    assert status == 200 and status_stream == 200
    assert blocking["ok"] and len(blocking["scenes"]) == 6
    assert all(frame["ok"] for frame in frames)
    assert frames[-1]["frame"] == "end"
    assert _reassemble(frames, 6) == blocking["scenes"]


def test_http_stream_of_infeasible_program_ends_in_error_frame():
    bad = "ego = Object at 0 @ 0\nrequire ego.position.x > 1\n"
    request = {"source": bad, "n": 1, "max_iterations": 5, "stream": True}

    async def run():
        async with HttpGenerationServer(GenerationService(workers=0)) as server:
            return await http_request("127.0.0.1", server.port, "POST", "/generate", request)

    status, body = asyncio.run(run())
    frames = [json.loads(line) for line in body.decode().splitlines()]
    assert status == 200  # the status line goes out before the first shard runs
    assert frames[-1]["ok"] is False and frames[-1]["frame"] == "error"
    assert frames[-1]["error"]["type"] == "GenerationFailedError"


def test_http_overload_maps_to_503(monkeypatch):
    from repro.service import service as service_module

    source = _source("two_cars")
    # Hold the blocker's shard until the 503 is back: a warm engine would
    # otherwise finish the blocker before the HTTP request lands.
    release = threading.Event()
    run_shard = service_module.run_shard

    def held_run_shard(payload):
        release.wait(timeout=60)
        return run_shard(payload)

    monkeypatch.setattr(service_module, "run_shard", held_run_shard)

    async def run():
        service = GenerationService(workers=0, max_inflight=1, max_queue=0)
        async with HttpGenerationServer(service, port=0) as server:
            blocker = asyncio.create_task(
                service.generate(source, n=6, seed=3, max_iterations=20000)
            )
            await asyncio.sleep(0)
            try:
                status, body = await http_request(
                    "127.0.0.1", server.port, "POST", "/generate",
                    {"source": source, "n": 1},
                )
            finally:
                release.set()
            await blocker
            return status, json.loads(body)

    status, payload = asyncio.run(run())
    assert status == 503
    assert payload["error"]["type"] == "ServiceOverloadedError"


def test_http_body_too_large_maps_to_413():
    async def run():
        service = GenerationService(workers=0)
        async with HttpGenerationServer(service, port=0, max_body_bytes=256) as server:
            return await http_request(
                "127.0.0.1", server.port, "POST", "/generate",
                {"source": "x" * 4096, "n": 1},
            )

    status, body = asyncio.run(run())
    assert status == 413
    assert json.loads(body)["ok"] is False


# ---------------------------------------------------------------------------
# Raw TCP connections: framing the HTTP client helper hides
# ---------------------------------------------------------------------------


async def _read_head(reader):
    """Status and lower-cased headers of one raw HTTP/1.1 response."""
    status = int((await reader.readuntil(b"\r\n")).split()[1])
    headers = {}
    while (line := await reader.readuntil(b"\r\n")) != b"\r\n":
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


async def _read_chunks(reader):
    """The chunks of a chunked body, up to its zero-length terminator."""
    chunks = []
    while size := int(await reader.readuntil(b"\r\n"), 16):
        chunks.append((await reader.readexactly(size + 2))[:-2])
    await reader.readexactly(2)
    return chunks


def test_tcp_streaming_matches_blocking():
    """Blocking, then streamed, on one keep-alive TCP connection to a 2-worker pool.

    Each chunk of the stream carries exactly one NDJSON frame, one block
    frame per shard, and the server closes the connection after the
    terminating chunk.
    """
    source = _source("two_cars")
    request = {"source": source, "n": 6, "seed": 42, "max_iterations": 20000}

    async def post(writer, body):
        payload = json.dumps(body).encode("utf-8")
        writer.write(
            f"POST /generate HTTP/1.1\r\nHost: t\r\nContent-Length: {len(payload)}\r\n\r\n"
            .encode("latin-1") + payload
        )
        await writer.drain()

    async def run():
        async with HttpGenerationServer(GenerationService(workers=2)) as server:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                await post(writer, request)
                status, headers = await _read_head(reader)
                blocking = json.loads(await reader.readexactly(int(headers["content-length"])))
                await post(writer, {**request, "stream": True})
                stream_status, stream_headers = await _read_head(reader)
                chunks = await asyncio.wait_for(_read_chunks(reader), timeout=60)
                eof = await asyncio.wait_for(reader.read(), timeout=30)
            finally:
                writer.close()
                await writer.wait_closed()
        return status, headers, blocking, stream_status, stream_headers, chunks, eof

    status, headers, blocking, stream_status, stream_headers, chunks, eof = asyncio.run(run())
    assert status == 200 and headers["connection"] == "keep-alive"
    assert blocking["ok"] and len(blocking["scenes"]) == 6
    assert stream_status == 200
    assert stream_headers["transfer-encoding"] == "chunked"
    assert stream_headers["connection"] == "close"
    assert all(chunk.endswith(b"\n") and chunk.count(b"\n") == 1 for chunk in chunks)
    frames = [json.loads(chunk) for chunk in chunks]
    assert all(frame["ok"] for frame in frames)
    assert frames[-1]["frame"] == "end" and frames[-1]["scenes"] == 6
    assert [frame["frame"] for frame in frames[:-1]] == ["block"] * blocking["stats"]["shards"]
    assert _reassemble(frames, 6) == blocking["scenes"]
    assert eof == b""


def test_tcp_oversized_request_answered_in_band():
    """Over-cap requests get a structured 413, then the connection ends.

    A body is refused from its declared ``Content-Length`` alone, before
    the client sends a byte of it; a request line or a header line longer
    than the cap is refused the same way.  The server keeps serving new
    connections.
    """

    async def refuse(server, head):
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            writer.write(head)
            await writer.drain()
            status, headers = await _read_head(reader)
            body = await reader.readexactly(int(headers["content-length"]))
            eof = await asyncio.wait_for(reader.read(), timeout=30)
        finally:
            writer.close()
            await writer.wait_closed()
        return status, headers["connection"], json.loads(body), eof

    async def run():
        service = GenerationService(workers=0)
        async with HttpGenerationServer(service, max_body_bytes=512) as server:
            body = await refuse(
                server, b"POST /generate HTTP/1.1\r\nHost: t\r\nContent-Length: 4096\r\n\r\n"
            )
            line = await refuse(server, b"GET /" + b"x" * 600 + b" HTTP/1.1\r\n")
            header = await refuse(
                server, b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"x" * 600 + b"\r\n\r\n"
            )
            health = await http_request(server.host, server.port, "GET", "/healthz")
        return body, line, header, health

    body, line, header, health = asyncio.run(run())
    assert body == (413, "close", {
        "ok": False,
        "error": {"type": "ValueError", "message": "request body exceeds 512 bytes"},
    }, b"")
    assert line == (413, "close", {
        "ok": False,
        "error": {"type": "ValueError", "message": "request line too long"},
    }, b"")
    assert header == (413, "close", {
        "ok": False,
        "error": {"type": "ValueError", "message": "header line too long"},
    }, b"")
    status, payload = health
    assert status == 200 and json.loads(payload)["ok"] is True
