"""Streaming responses and front-end robustness (`repro/service/`).

Pins the throughput-first transport's user-visible contracts:

* ``generate_stream`` frames reassemble **bit-identically** to the blocking
  response for the same request, at any worker count;
* backpressure slots survive every exit path — normal completion, shard
  failure, cancellation while *queued*, and an abandoned stream iterator;
* the TCP server answers malformed and oversized requests with structured
  error frames on a connection that keeps serving, and streams block
  frames incrementally;
* the HTTP front end serves ``/healthz``, ``/metrics``, blocking and
  NDJSON-streaming ``POST /generate``, and the ``/ws`` WebSocket.
"""

import asyncio
import json
import threading
from pathlib import Path

import pytest

from repro.service import (
    GenerationFailedError,
    GenerationServer,
    GenerationService,
    HttpGenerationServer,
    ServiceOverloadedError,
    http_request,
    request_over_tcp,
    stream_over_tcp,
    websocket_generate,
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
            return blocking, frames

    blocking, frames = asyncio.run(run())
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
    assert frames[0]["scenes"] == 0


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


def test_abandoned_stream_releases_its_slot():
    source = _source("two_cars")

    async def run():
        async with GenerationService(workers=0, max_inflight=1, max_queue=0) as service:
            stream = service.generate_stream(source, n=6, seed=9, max_iterations=20000)
            async for _frame in stream:
                break  # abandon after the first frame
            await stream.aclose()
            assert service.service_stats()["pending"] == 0
            # The slot is genuinely free again.
            response = await service.generate(source, n=1, seed=2, max_iterations=20000)
            return response.scene_count

    assert asyncio.run(run()) == 1


def test_failed_request_restores_capacity():
    bad = "ego = Object at 0 @ 0\nrequire ego.position.x > 1\n"

    async def run():
        async with GenerationService(workers=0, max_inflight=1, max_queue=0) as service:
            for _attempt in range(3):
                with pytest.raises(GenerationFailedError):
                    await service.generate(bad, n=1, seed=0, max_iterations=5)
            assert service.service_stats()["pending"] == 0
            response = await service.generate(_source("single_car"), n=1, seed=0)
            return response.scene_count

    assert asyncio.run(run()) == 1


# ---------------------------------------------------------------------------
# TCP server: streaming + robustness
# ---------------------------------------------------------------------------


async def _open_lines(host, port):
    return await asyncio.open_connection(host, port)


async def _send_line(writer, payload):
    writer.write(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    writer.write(b"\n")
    await writer.drain()


async def _read_json(reader):
    line = await reader.readline()
    assert line, "server closed the connection"
    return json.loads(line.decode())


def test_tcp_streaming_matches_blocking():
    source = _source("two_cars")

    async def run():
        service = GenerationService(workers=2)
        async with GenerationServer(service, port=0) as server:
            request = {"op": "generate", "source": source, "n": 6, "seed": 42,
                       "max_iterations": 20000}
            blocking = await request_over_tcp("127.0.0.1", server.port, request)
            frames = [
                frame
                async for frame in stream_over_tcp("127.0.0.1", server.port, request)
            ]
            return blocking, frames

    blocking, frames = asyncio.run(run())
    assert blocking["ok"] and all(frame["ok"] for frame in frames)
    assert frames[-1]["frame"] == "end"
    assert _reassemble(frames, 6) == blocking["scenes"]


def test_tcp_malformed_json_keeps_connection_alive():
    async def run():
        service = GenerationService(workers=0)
        async with GenerationServer(service, port=0) as server:
            reader, writer = await _open_lines("127.0.0.1", server.port)
            try:
                await _send_line(writer, b"{not json at all")
                error = await _read_json(reader)
                await _send_line(writer, {"op": "ping"})
                alive = await _read_json(reader)
                await _send_line(writer, b'["an", "array"]')
                not_object = await _read_json(reader)
                await _send_line(writer, {"op": "ping"})
                alive_again = await _read_json(reader)
            finally:
                writer.close()
                await writer.wait_closed()
            return error, alive, not_object, alive_again

    error, alive, not_object, alive_again = asyncio.run(run())
    assert error["ok"] is False and error["error"]["type"] == "JSONDecodeError"
    assert alive == {"ok": True, "op": "ping"}
    assert not_object["ok"] is False and "JSON object" in not_object["error"]["message"]
    assert alive_again == {"ok": True, "op": "ping"}


def test_tcp_oversized_request_answered_in_band():
    async def run():
        service = GenerationService(workers=0)
        async with GenerationServer(service, port=0, max_request_bytes=512) as server:
            reader, writer = await _open_lines("127.0.0.1", server.port)
            try:
                await _send_line(
                    writer, json.dumps({"op": "generate", "source": "x" * 4096}).encode()
                )
                error = await _read_json(reader)
                await _send_line(writer, {"op": "ping"})
                alive = await _read_json(reader)
            finally:
                writer.close()
                await writer.wait_closed()
            return error, alive

    error, alive = asyncio.run(run())
    assert error["ok"] is False
    assert error["error"]["type"] == "RequestTooLargeError"
    assert alive == {"ok": True, "op": "ping"}


def test_tcp_stream_error_frame_keeps_connection_alive():
    bad = "ego = Object at 0 @ 0\nrequire ego.position.x > 1\n"

    async def run():
        service = GenerationService(workers=0)
        async with GenerationServer(service, port=0) as server:
            reader, writer = await _open_lines("127.0.0.1", server.port)
            try:
                await _send_line(writer, {
                    "op": "generate", "source": bad, "n": 1, "max_iterations": 5,
                    "stream": True,
                })
                error = await _read_json(reader)
                await _send_line(writer, {"op": "ping"})
                alive = await _read_json(reader)
            finally:
                writer.close()
                await writer.wait_closed()
            return error, alive

    error, alive = asyncio.run(run())
    assert error["ok"] is False and error["frame"] == "error"
    assert error["error"]["type"] == "GenerationFailedError"
    assert alive == {"ok": True, "op": "ping"}


# ---------------------------------------------------------------------------
# HTTP / WebSocket front end
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
            ws_frames = []
            async for frame in websocket_generate("127.0.0.1", server.port, request):
                ws_frames.append(frame)
            return status, blocking, status_stream, frames, ws_frames

    status, blocking, status_stream, frames, ws_frames = asyncio.run(run())
    assert status == 200 and status_stream == 200
    assert blocking["ok"] and len(blocking["scenes"]) == 6
    assert frames[-1]["frame"] == "end"
    assert _reassemble(frames, 6) == blocking["scenes"]
    assert ws_frames[-1]["frame"] == "end"
    assert _reassemble(ws_frames, 6) == blocking["scenes"]


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
