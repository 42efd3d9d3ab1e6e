"""The async sharded generation service (`repro/service/`).

The smoke contract: the service sustains >= 8 concurrent ``generate``
requests whose per-shard seeds reproduce the golden corpus bit-identically,
shards are invariant to worker count, backpressure sheds excess load,
failures surface as typed errors, and the HTTP front end (start server →
publish → concurrent requests → clean shutdown, in-process and through the
``serve`` CLI) works end to end.

All tests drive the real asyncio front end via ``asyncio.run``; the
worker-pool tests use real subprocess workers (persistent across requests),
and the invariance tests cross-check against inline (``workers=0``)
execution and the in-process sampling engine.
"""

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.language import scenario_from_string
from repro.service import (
    GenerationService,
    GenerationFailedError,
    HttpGenerationServer,
    ServiceOverloadedError,
    generate_sync,
    http_request,
    scene_record,
    splitmix64,
)
from repro.service.protocol import ShardPayload, derive_scene_seeds
from repro.service.service import MAX_SCENES_PER_REQUEST

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "examples" / "scenarios"
TOLERANCE = 1e-9

#: Cheap members of the golden corpus (few candidate iterations at the
#: golden seed) — enough for 9 concurrent request/strategy pairs.
GOLDEN_REQUESTS = [
    ("two_cars", "rejection"),
    ("two_cars", "vectorized"),
    ("oncoming", "rejection"),
    ("oncoming", "vectorized"),
    ("mars_rubble_field", "rejection"),
    ("mars_rubble_field", "vectorized"),
    ("close_car", "rejection"),
    ("close_car", "vectorized"),
    ("single_car", "vectorized"),
]


def _golden(stem):
    return json.loads((GOLDEN_DIR / f"{stem}.json").read_text())


def _source(stem):
    return (SCENARIO_DIR / f"{stem}.scenic").read_text()


def _unshift(value, shift):
    """Invert ``value ^ (value >> shift)`` on 64 bits."""
    result = value
    for _ in range(64 // shift):
        result = value ^ (result >> shift)
    return result


def _request_seed(scene_seed):
    """The request seed whose scene 0 draws from ``Random(scene_seed)``.

    ``derive_scene_seeds`` gives scene 0 ``splitmix64(seed)``, a bijection
    on 64 bits; this is its inverse.
    """
    mask = (1 << 64) - 1
    value = _unshift(scene_seed, 31)
    value = _unshift(value * pow(0x94D049BB133111EB, -1, 1 << 64) & mask, 27)
    value = _unshift(value * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask, 30)
    return (value - 0x9E3779B97F4A7C15) & mask


def _assert_record_matches_golden(record, expected):
    assert record["ego_index"] == expected["ego_index"]
    assert record["iterations"] == expected["iterations"]
    assert len(record["objects"]) == len(expected["objects"])
    for got, want in zip(record["objects"], expected["objects"]):
        assert got["class"] == want["class"]
        for axis in (0, 1):
            assert abs(got["position"][axis] - want["position"][axis]) <= TOLERANCE
        for key in ("heading", "width", "height"):
            assert abs(got[key] - want[key]) <= TOLERANCE


# ---------------------------------------------------------------------------
# The headline smoke: concurrency + golden-corpus reproduction
# ---------------------------------------------------------------------------


def test_concurrent_requests_reproduce_golden_corpus():
    """>= 8 concurrent requests; each shard's output is the exact golden scene.

    Each request's seed derives the golden seed for its one scene, which the
    shard samples with ``Random(golden seed)`` exactly as
    ``Scenario.generate`` does, so the response must reproduce
    ``tests/golden/`` for every strategy.
    """

    async def run():
        async with GenerationService(workers=2) as service:
            responses = await asyncio.gather(
                *(
                    service.generate(
                        _source(stem),
                        n=1,
                        seed=_request_seed(_golden(stem)["seed"]),
                        strategy=strategy,
                        max_iterations=_golden(stem)["max_iterations"],
                    )
                    for stem, strategy in GOLDEN_REQUESTS
                )
            )
            stats = service.service_stats()
        return responses, stats

    responses, stats = asyncio.run(run())
    assert len(responses) >= 8
    for (stem, strategy), response in zip(GOLDEN_REQUESTS, responses):
        _assert_record_matches_golden(
            response.scenes[0], _golden(stem)["strategies"][strategy]
        )
        assert response.stats["scenes"] == 1
        assert response.stats["wall_seconds"] > 0
    assert stats["requests"] == len(GOLDEN_REQUESTS)
    assert stats["peak_pending"] >= 8  # genuinely concurrent admission


#: A program whose scenes carry ``param`` values.
PARAM_SOURCE = """
param weather = Uniform('sunny', 'rain')
param speed_limit = Range(10, 20)
ego = Object at Range(-3, 3) @ 0
Object at Range(-3, 3) @ 4
"""


@pytest.mark.parametrize(
    "program,strategy",
    [
        ("two_cars", "rejection"),
        ("two_cars", "vectorized"),
        ("params", "rejection"),
    ],
    ids=["rejection", "vectorized", "params"],
)
def test_sharded_splitmix_seeds_are_worker_count_invariant(program, strategy):
    """The same (seed, n) request gives the same records however it is sharded.

    Cross-checks three executions of one request — a 2-process pool, inline
    (no pool), and an in-process engine loop using the documented per-scene
    seed derivation — record for record, ``params`` and ``iterations``
    included.
    """
    source = PARAM_SOURCE if program == "params" else _source(program)
    seed, n = 424242, 10

    async def run(workers):
        async with GenerationService(workers=workers) as service:
            return await service.generate(
                source, n=n, seed=seed, strategy=strategy, max_iterations=20000
            )

    pooled = asyncio.run(run(2))
    inline = asyncio.run(run(0))
    # The pool really did spread the shards over distinct processes.
    assert len(pooled.stats["workers"]) == 2

    scenario = scenario_from_string(source)
    local = []
    for scene_seed in derive_scene_seeds(seed, n):
        scene = scenario.generate(
            max_iterations=20000, rng=random.Random(scene_seed), strategy=strategy
        )
        local.append(scene_record(scene, iterations=scenario.last_stats.iterations))

    if program == "params":
        assert all(record["params"] for record in local)
    assert len(local) == n
    assert pooled.scenes == inline.scenes == local


def test_a_request_without_a_strategy_draws_with_vectorized():
    """``vectorized`` is the default of every service front door.

    The Python API, the end frame of a stream, HTTP ``POST /generate``,
    ``generate_sync`` and the ``generate`` CLI all name it, and the scenes
    are the ones an explicit ``strategy="vectorized"`` request gets.
    """
    from repro.service.__main__ import build_parser

    source = _source("two_cars")

    async def run():
        async with GenerationService(workers=0) as service:
            implicit = await service.generate(source, n=2, seed=3)
            explicit = await service.generate(source, n=2, seed=3, strategy="vectorized")
            frames = [frame async for frame in service.generate_stream(source, n=2, seed=3)]
            async with HttpGenerationServer(service) as http:
                status, body = await http_request(
                    http.host, http.port, "POST", "/generate",
                    {"source": source, "n": 2, "seed": 3},
                )
        return implicit, explicit, frames[-1], status, json.loads(body)

    implicit, explicit, end, status, answer = asyncio.run(run())
    assert implicit.strategy == end["strategy"] == answer["strategy"] == "vectorized"
    assert implicit.scenes == explicit.scenes == answer["scenes"]
    assert status == 200
    assert generate_sync(source, n=1, seed=3).strategy == "vectorized"
    assert build_parser().parse_args(["generate", "-"]).strategy == "vectorized"


# ---------------------------------------------------------------------------
# Caching, publication, stats
# ---------------------------------------------------------------------------


def test_worker_artifact_cache_warms_across_requests():
    source = _source("two_cars")

    async def run():
        async with GenerationService(workers=1) as service:
            cold = await service.generate(source, n=2, seed=1, max_iterations=20000)
            warm = await service.generate(source, n=2, seed=2, max_iterations=20000)
        return cold, warm

    cold, warm = asyncio.run(run())
    assert cold.stats["worker_cache_hits"] == 0
    assert warm.stats["worker_cache_hits"] == warm.stats["shards"] == 1


def test_publish_then_generate_by_fingerprint():
    source = _source("single_car")

    async def run():
        async with GenerationService(workers=0) as service:
            fingerprint = service.publish(source)
            response = await service.generate(
                fingerprint, n=1, seed=_request_seed(_golden("single_car")["seed"]),
                strategy="rejection", max_iterations=20000,
            )
        return fingerprint, response

    fingerprint, response = asyncio.run(run())
    assert response.fingerprint == fingerprint
    _assert_record_matches_golden(
        response.scenes[0], _golden("single_car")["strategies"]["rejection"]
    )


def test_request_stats_roll_up_rejections():
    # close_car needs several candidates at this seed, so the rejection
    # breakdown must be non-empty and iterations >= scenes.
    async def run():
        async with GenerationService(workers=0) as service:
            return await service.generate(
                _source("close_car"), n=3, seed=5, max_iterations=20000
            )

    response = asyncio.run(run())
    stats = response.stats
    assert stats["scenes"] == stats["draws"] == 3
    assert stats["iterations"] >= 3
    assert set(stats["rejections"]) == {
        "containment", "collision", "visibility", "user", "sampling",
    }
    assert stats["sampling_seconds"] > 0


# ---------------------------------------------------------------------------
# Failure modes and backpressure
# ---------------------------------------------------------------------------


def test_infeasible_program_raises_generation_failed():
    source = "ego = Object at 0 @ 0\nrequire ego.position.x > 1\n"

    async def run():
        async with GenerationService(workers=0) as service:
            await service.generate(source, n=1, seed=0, max_iterations=10)

    with pytest.raises(GenerationFailedError) as excinfo:
        asyncio.run(run())
    assert excinfo.value.detail["type"] == "RejectionError"


#: Statically infeasible: the analysis proves that no relative heading is
#: both within 10 deg and at least 150 deg.
PROVABLY_INFEASIBLE = (
    "import gtaLib\nego = EgoCar\nc = Car\n"
    "require abs(relative heading of c) <= 10 deg\n"
    "require abs(relative heading of c) >= 150 deg\n"
)


@pytest.mark.parametrize("strategy", ["rejection", "vectorized"])
@pytest.mark.parametrize(
    "program",
    [PROVABLY_INFEASIBLE, "ego = Object at 0 @ 0\nrequire ego.position.x > 1\n"],
    ids=["provable", "unprovable"],
)
def test_infeasible_and_exhausted_requests_are_counted_failures(program, strategy):
    """An infeasible program exhausts the budget and fails the request.

    No strategy analyses the program, so both the provably and the
    unprovably infeasible one draw the whole budget and report
    ``RejectionError``.  The request counts in ``failures`` and returns its
    slot.
    """

    async def run():
        async with GenerationService(workers=0) as service:
            with pytest.raises(GenerationFailedError) as failed:
                await service.generate(
                    program, n=1, seed=0, strategy=strategy, max_iterations=50
                )
            return failed.value, service.service_stats()

    error, stats = asyncio.run(run())
    assert error.detail["type"] == "RejectionError"
    assert (stats["requests"], stats["failures"], stats["pending"]) == (1, 1, 0)


def test_compile_error_raises_generation_failed():
    async def run():
        async with GenerationService(workers=0) as service:
            await service.generate("ego = = Object\n", n=1, seed=0)

    with pytest.raises(GenerationFailedError):
        asyncio.run(run())


@pytest.mark.parametrize(
    "field,value,needle",
    [
        ("strategy", "nope", "known: rejection, vectorized"),
        ("max_iterations", 0, "max_iterations must be at least 1"),
        ("n", 2.5, "'n' must be an integer, not 2.5"),
        ("n", True, "'n' must be an integer, not true"),
        ("seed", "7", "'seed' must be an integer, not \"7\""),
        ("max_iterations", 1500.9, "'max_iterations' must be an integer, not 1500.9"),
        ("options", {"block_size": 8}, "unknown request field(s): options"),
        ("source", 123, "'source' must be a string, not 123"),
        ("source", ["ego = Object at 0 @ 0"], "'source' must be a string, not [\"ego"),
        ("fingerprint", 42, "'fingerprint' must be a string, not 42"),
        ("strategy", None, "'strategy' must be a string, not null"),
        ("derive", "splitmix", "unknown request field(s): derive"),
        ("stream", "no", "'stream' must be true or false, not \"no\""),
    ],
)
def test_bad_request_is_rejected_before_admission(field, value, needle):
    """A bad strategy, budget, field or field type is the client's error.

    HTTP answers 400 with a ``ValueError`` naming the problem; the request
    is never admitted, so no shard runs and ``failures`` does not move.
    Nothing is coerced: a number is not a string, ``"no"`` is not false.
    """
    request = {"source": _source("single_car"), "n": 1, field: value}
    _assert_rejected_before_admission(request, needle)


def test_fingerprint_only_request_is_rejected_before_admission():
    """A request naming its program by a non-string fingerprint alone is a 400 too."""
    _assert_rejected_before_admission({"fingerprint": 42, "n": 1}, "'fingerprint' must be a string")


@pytest.mark.parametrize("entry", ["http", "generate", "generate_stream"])
def test_n_above_the_ceiling_is_rejected_before_admission(entry):
    """``n`` above ``MAX_SCENES_PER_REQUEST`` is refused before admission.

    The program is infeasible, so a request that got past the gate would
    fail fast with a sampling error instead of this ``ValueError``.
    """
    n = MAX_SCENES_PER_REQUEST + 1
    needle = f"n must be at most {MAX_SCENES_PER_REQUEST}"
    if entry == "http":
        request = {"source": PROVABLY_INFEASIBLE, "n": n, "max_iterations": 5}
        _assert_rejected_before_admission(request, needle)
        return

    async def run():
        async with GenerationService(workers=0) as service:
            with pytest.raises(ValueError, match=needle):
                if entry == "generate":
                    await service.generate(PROVABLY_INFEASIBLE, n=n, max_iterations=5)
                else:
                    async for _ in service.generate_stream(
                        PROVABLY_INFEASIBLE, n=n, max_iterations=5
                    ):
                        pass
            return service.service_stats()

    stats = asyncio.run(run())
    assert (stats["requests"], stats["failures"], stats["pending"]) == (0, 0, 0)


@pytest.mark.parametrize("entry", ["generate", "generate_stream"])
@pytest.mark.parametrize(
    "overrides",
    [
        {"seed": 2.5},
        {"seed": "7"},
        {"seed": True},
        {"max_iterations": True},
        {"max_iterations": 2.5},
        {"max_iterations": "5"},
    ],
    ids=["seed-float", "seed-str", "seed-bool", "budget-bool", "budget-float", "budget-str"],
)
def test_non_integer_seed_or_budget_is_rejected_before_admission(entry, overrides):
    """Both Python entry points refuse what the HTTP front door's ``_field`` refuses.

    ``seed`` and ``max_iterations`` follow ``n``'s rule (an ``int``, not a
    ``bool``): a ``ValueError`` before admission, so nothing is counted.
    """

    async def run():
        async with GenerationService(workers=0) as service:
            with pytest.raises(ValueError, match="must be an integer"):
                if entry == "generate":
                    await service.generate(_source("two_cars"), n=2, **overrides)
                else:
                    async for _ in service.generate_stream(_source("two_cars"), n=2, **overrides):
                        pass
            return service.service_stats()

    stats = asyncio.run(run())
    assert (stats["requests"], stats["failures"], stats["pending"]) == (0, 0, 0)


def test_generate_keeps_only_the_splitmix_seed_contract():
    """``derive`` is kept for callers that name it; any other mode is a ``ValueError``."""

    async def run():
        async with GenerationService(workers=0) as service:
            with pytest.raises(ValueError, match="unknown derive mode 'direct'"):
                await service.generate(_source("two_cars"), n=2, derive="direct")
            named = await service.generate(_source("two_cars"), n=2, seed=3, derive="splitmix")
            default = await service.generate(_source("two_cars"), n=2, seed=3)
            return named, default, service.service_stats()

    named, default, stats = asyncio.run(run())
    assert named.scenes == default.scenes
    assert (stats["requests"], stats["failures"], stats["pending"]) == (2, 0, 0)


def _assert_rejected_before_admission(request, needle):
    async def run():
        async with GenerationService(workers=0) as service:
            async with HttpGenerationServer(service) as http:
                status, body = await http_request(
                    http.host, http.port, "POST", "/generate", request
                )
            return status, json.loads(body), service.service_stats()

    status, answer, stats = asyncio.run(run())
    assert status == 400
    assert not answer["ok"]
    assert answer["error"]["type"] == "ValueError"
    assert needle in answer["error"]["message"]
    assert stats["failures"] == 0
    assert stats["requests"] == 0


#: A program slow enough (~3k candidates a scene) that a 16-scene shard
#: runs for seconds.
SLOW_SOURCE = (
    "ego = Object at 0 @ 0\n"
    "other = Object at Range(-100, 100) @ Range(-100, 100)\n"
    "require (distance to other) < 2\n"
)


@pytest.mark.parametrize(
    "moment,mode", [("idle", "blocking"), ("mid-shard", "blocking"), ("mid-shard", "streaming")]
)
def test_dead_worker_fails_only_its_own_request(moment, mode):
    """SIGKILL one of two workers: the request it held fails, the service recovers.

    The failed request raises ``GenerationFailedError`` and counts in
    ``failures``, the admission slot is released, and the next request
    matches ``workers=0`` record for record.  Killed mid-shard, the request
    fails at once, while the other worker's shard still runs.
    """
    source = _source("two_cars")

    async def consume(stream):
        async for _ in stream:
            pass

    async def run():
        async with GenerationService(workers=2) as service:
            warm = await service.generate(SLOW_SOURCE, n=2, seed=0, max_iterations=10**6)
            victim = warm.stats["workers"][0]
            if moment == "idle":
                os.kill(victim, signal.SIGKILL)
                request = service.generate(source, n=8, seed=3)
            else:
                options = dict(n=32, seed=5, max_iterations=10**6)
                request = asyncio.ensure_future(
                    service.generate(SLOW_SOURCE, **options)
                    if mode == "blocking"
                    else consume(service.generate_stream(SLOW_SOURCE, **options))
                )
                await asyncio.sleep(0.3)
                os.kill(victim, signal.SIGKILL)
            with pytest.raises(GenerationFailedError) as failed:
                await request
            failed_at = time.monotonic()
            stats = service.service_stats()
            free_at = await _workers_free_at(service)
            after = await service.generate(source, n=8, seed=3)
            return (failed.value, failed_at, free_at, stats, after.scenes,
                    service.service_stats())

    error, failed_at, free_at, stats, scenes, final = asyncio.run(run())
    assert error.detail["type"] == "BrokenProcessPool"
    if moment == "mid-shard":
        # The surviving worker's 16-scene shard ran on for seconds.
        assert max(free_at) - failed_at > 0.5
    assert stats["failures"] == 1
    assert stats["pending"] == 0
    assert final["failures"] == 1
    assert scenes == generate_sync(source, n=8, seed=3).scenes


def test_replacement_worker_keeps_no_client_connection_open():
    """A worker forked to replace a dead one does not hold client sockets.

    With a keep-alive connection held open, one worker is SIGKILLed and a
    request on a second connection fails and replaces it: the replacement
    forks while both connections are open.  A ``Connection: close`` request
    on the held connection then must reach its client as end-of-file within
    a second.  No inflight slot leaks, and the next request matches
    ``workers=0`` record for record.
    """
    source = _source("two_cars")
    health = b"GET /healthz HTTP/1.1\r\nHost: t\r\n"

    async def run():
        async with GenerationService(workers=1) as service:
            async with HttpGenerationServer(service) as server:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(health + b"\r\n")
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                await reader.readexactly(int(re.search(rb"Content-Length: (\d+)", head).group(1)))
                victim = (await service.generate(source, n=1, seed=0)).stats["workers"][0]
                os.kill(victim, signal.SIGKILL)
                failed, _ = await http_request(
                    server.host, server.port, "POST", "/generate",
                    {"source": source, "n": 2, "seed": 1},
                )
                writer.write(health + b"Connection: close\r\n\r\n")
                await writer.drain()
                sent = time.monotonic()
                try:
                    tail = await asyncio.wait_for(reader.read(), timeout=2.0)
                except asyncio.TimeoutError:
                    tail = None
                waited = time.monotonic() - sent
                writer.close()
                stats = service.service_stats()
                after = await service.generate(source, n=8, seed=3)
                return failed, tail, waited, stats, after.scenes

    failed, tail, waited, stats, scenes = asyncio.run(run())
    assert failed == 500
    assert tail is not None and tail.startswith(b"HTTP/1.1 200")
    assert waited < 1.0
    assert stats["failures"] == 1
    assert stats["pending"] == 0
    assert scenes == generate_sync(source, n=8, seed=3).scenes


async def _workers_free_at(service):
    """When each worker finished the shards it held, on ``time.monotonic``'s clock.

    A worker runs its tasks in order, so a clock read submitted now runs
    once the shards already queued on that worker have landed.
    """
    return await asyncio.gather(
        *(asyncio.wrap_future(pool.submit(time.monotonic)) for pool in service._pools)
    )


def test_broken_pool_is_replaced_once_by_concurrent_shards(monkeypatch):
    """Two shards waiting on the same dead pool replace it once, and both fail."""
    replacements = []

    class Pool:
        def __init__(self):
            self.futures = []
            self.shut_down = False

        def submit(self, *args):
            self.futures.append(Future())
            return self.futures[-1]

        def shutdown(self, wait=True):
            self.shut_down = True

    def new_pool():
        replacements.append(Pool())
        return replacements[-1]

    service = GenerationService(workers=1)
    monkeypatch.setattr(service, "_new_pool", new_pool)
    payload = ShardPayload(
        fingerprint="0" * 64, source="ego = Object at 0 @ 0", strategy="rejection",
        max_iterations=10, indices=[0], seeds=[1],
    )

    async def run():
        await service.start()
        dead = service._pools[0]
        shards = [asyncio.ensure_future(service._run_payload(payload, 0)) for _ in range(2)]
        await asyncio.sleep(0)  # both shards submit to the dead pool
        for future in dead.futures:
            future.set_exception(BrokenProcessPool("planted"))
        return dead, await asyncio.gather(*shards)

    dead, outcomes = asyncio.run(run())
    assert [outcome.error["type"] for outcome in outcomes] == ["BrokenProcessPool"] * 2
    assert len(dead.futures) == 2
    assert dead.shut_down
    assert len(replacements) == 2  # start()'s pool, then exactly one replacement
    assert service._pools == [replacements[1]]


def test_backpressure_sheds_when_queue_is_full():
    source = _source("two_cars")

    async def run():
        async with GenerationService(workers=0, max_inflight=1, max_queue=0) as service:
            block = asyncio.create_task(
                service.generate(source, n=6, seed=3, max_iterations=20000)
            )
            await asyncio.sleep(0)  # let the blocking request get admitted
            with pytest.raises(ServiceOverloadedError):
                await service.generate(source, n=1, seed=4)
            response = await block  # the admitted request still completes
            shed = service.service_stats()["shed"]
        return response, shed

    response, shed = asyncio.run(run())
    assert len(response.scenes) == 6
    assert shed == 1


def test_request_failing_after_admission_returns_its_slot():
    """A request that fails anywhere after admission gives its slot back.

    With room for exactly one pending request, a single leaked slot would
    shed the request that follows.  A float ``n`` and an ``n`` above the
    ceiling are refused by the same gate as over HTTP, before admission; an
    infeasible program fails after admission and must still release its
    slot.
    """
    source = _source("single_car")

    async def run():
        async with GenerationService(workers=0, max_inflight=1, max_queue=0) as service:
            with pytest.raises(ValueError, match="n must be an integer"):
                await service.generate(source, n=2.5, seed=0)
            with pytest.raises(ValueError, match="n must be an integer"):
                async for _ in service.generate_stream(source, n=2.5, seed=0):
                    pass
            with pytest.raises(ValueError, match="n must be at most"):
                await service.generate(source, n=2**62, seed=0)
            with pytest.raises(GenerationFailedError):
                await service.generate(PROVABLY_INFEASIBLE, n=1, seed=0, max_iterations=5)
            pending = service.service_stats()["pending"]
            response = await service.generate(source, n=2, seed=0)
            return pending, response, service.service_stats()

    pending, response, stats = asyncio.run(run())
    assert pending == 0
    assert len(response.scenes) == 2
    assert stats["shed"] == 0
    assert stats["pending"] == 0


def test_zero_scene_request_is_valid():
    async def run():
        async with GenerationService(workers=0) as service:
            return await service.generate(_source("single_car"), n=0, seed=0)

    response = asyncio.run(run())
    assert response.scenes == []
    assert response.stats["scenes"] == 0


# ---------------------------------------------------------------------------
# The HTTP front end
# ---------------------------------------------------------------------------


def test_http_server_end_to_end():
    """Start server → publish → concurrent requests by fingerprint → clean shutdown."""
    source = _source("two_cars")
    golden = _golden("two_cars")

    async def run():
        async with HttpGenerationServer(GenerationService(workers=0)) as server:
            def call(method, path, body=None):
                return http_request(server.host, server.port, method, path, body)

            health = await call("GET", "/healthz")
            published = await call("POST", "/publish", {"source": source})
            fingerprint = json.loads(published[1])["fingerprint"]
            answers = await asyncio.gather(*(
                call("POST", "/generate", {
                    "fingerprint": fingerprint,
                    "n": 1,
                    "seed": _request_seed(golden["seed"]),
                    "strategy": "rejection",
                    "max_iterations": golden["max_iterations"],
                })
                for _ in range(8)
            ))
            missing = await call("GET", "/nope")
            bad = await call("POST", "/generate", {})
            metrics = await call("GET", "/metrics")
            return health, published, answers, missing, bad, metrics

    health, published, answers, missing, bad, metrics = asyncio.run(run())
    assert health[0] == 200 and json.loads(health[1])["ok"]
    assert published[0] == 200 and json.loads(published[1])["ok"]
    assert len(answers) == 8
    for status, body in answers:
        answer = json.loads(body)
        assert status == 200 and answer["ok"]
        _assert_record_matches_golden(
            answer["scenes"][0], golden["strategies"]["rejection"]
        )
    assert missing[0] == 404 and json.loads(missing[1])["error"]["type"] == "ValueError"
    assert bad[0] == 400 and not json.loads(bad[1])["ok"]
    requests = re.search(r"^repro_service_requests_total (\d+)$", metrics[1].decode(), re.M)
    assert metrics[0] == 200 and int(requests.group(1)) >= 8


def test_ndjson_hang_up_releases_its_slot_while_shards_run():
    """A stream client that hangs up before the first frame frees its slot at once.

    The server watches the connection for end-of-file while it streams, so
    the admission slot comes back within a second, while both shards still
    run: each worker stays busy well after the release.  No failure is
    counted, and the next request matches ``workers=0`` record for record.
    """
    source = _source("two_cars")
    body = json.dumps({
        "source": SLOW_SOURCE, "n": 32, "seed": 5, "max_iterations": 10**6, "stream": True,
    }).encode()

    async def run():
        async with GenerationService(workers=2) as service:
            async with HttpGenerationServer(service) as server:
                await service.generate(SLOW_SOURCE, n=2, seed=0, max_iterations=10**6)
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(
                    b"POST /generate HTTP/1.1\r\nHost: t\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
                )
                await writer.drain()
                await reader.readuntil(b"\r\n\r\n")  # the stream's headers
                await asyncio.sleep(0.3)  # both shards are running
                writer.close()
                await writer.wait_closed()
                closed = time.monotonic()
                while service.service_stats()["pending"] and time.monotonic() < closed + 5:
                    await asyncio.sleep(0.01)
                released = time.monotonic()
                landed = await _workers_free_at(service)
                after = await service.generate(source, n=8, seed=3)
                return closed, released, landed, service.service_stats(), after.scenes

    closed, released, landed, stats, scenes = asyncio.run(run())
    assert released - closed < 1.0
    # Both 16-scene shards ran on for seconds after the slot came back.
    assert len(landed) == 2 and min(landed) - released > 0.5
    assert stats["failures"] == 0
    assert stats["pending"] == 0
    assert scenes == generate_sync(source, n=8, seed=3).scenes


@pytest.mark.parametrize("connection", ["close", "keep-alive"])
def test_blocking_hang_up_releases_its_slot_while_shards_run(connection):
    """A blocking client that hangs up mid-request frees its slot at once.

    The server watches the connection while the request runs, so the slot
    comes back within a second, while both shards still run.  No failure is
    counted, and the next request matches ``workers=0`` record for record.
    """
    source = _source("two_cars")
    body = json.dumps({
        "source": SLOW_SOURCE, "n": 32, "seed": 5, "max_iterations": 10**6,
    }).encode()

    async def run():
        async with GenerationService(workers=2) as service:
            async with HttpGenerationServer(service) as server:
                await service.generate(SLOW_SOURCE, n=2, seed=0, max_iterations=10**6)
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(
                    b"POST /generate HTTP/1.1\r\nHost: t\r\n"
                    + f"Connection: {connection}\r\n".encode()
                    + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
                )
                await writer.drain()
                sent = time.monotonic()
                while not service.service_stats()["pending"] and time.monotonic() < sent + 5:
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.3)  # both shards are running
                admitted = service.service_stats()["pending"]
                writer.close()
                await writer.wait_closed()
                closed = time.monotonic()
                while service.service_stats()["pending"] and time.monotonic() < closed + 5:
                    await asyncio.sleep(0.01)
                released = time.monotonic()
                landed = await _workers_free_at(service)
                after = await service.generate(source, n=8, seed=3)
                return admitted, closed, released, landed, service.service_stats(), after.scenes

    admitted, closed, released, landed, stats, scenes = asyncio.run(run())
    assert admitted == 1
    assert released - closed < 1.0
    # Both 16-scene shards ran on for seconds after the slot came back.
    assert len(landed) == 2 and min(landed) - released > 0.5
    assert stats["failures"] == 0
    assert stats["pending"] == 0
    assert scenes == generate_sync(source, n=8, seed=3).scenes


def test_serve_cli_runs_until_sigterm():
    """``serve --port 0`` answers ``/healthz`` on the printed port and exits 0 on SIGTERM."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--port", "0", "--workers", "1"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        banner = process.stdout.readline()
        port = int(re.search(r":(\d+) ", banner).group(1))
        status, body = asyncio.run(asyncio.wait_for(
            http_request("127.0.0.1", port, "GET", "/healthz"), timeout=30))
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert status == 200 and json.loads(body)["ok"]
    assert process.returncode == 0
    assert "clean shutdown" in output


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------


def test_splitmix64_reference_values():
    """Pin the mixer against the published splitmix64 reference outputs."""
    # seed=0 stream: first three outputs of Vigna's reference implementation.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    state = 0x9E3779B97F4A7C15
    assert splitmix64(state) == 0x6E789E6AA1B965F4
    assert derive_scene_seeds(0, 3) == [splitmix64(0), splitmix64(1), splitmix64(2)]
    for scene_seed in (0, 7, 20260729, (1 << 64) - 1):
        assert derive_scene_seeds(_request_seed(scene_seed), 1) == [scene_seed]
