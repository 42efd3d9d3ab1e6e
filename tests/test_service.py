"""The async sharded generation service (`repro/service/`).

The smoke contract from the issue: the service sustains >= 8 concurrent
``generate`` requests whose per-shard seeds reproduce the golden corpus
bit-identically, shards are invariant to worker count, backpressure sheds
excess load, failures surface as typed errors, and the TCP front end
(start server → concurrent requests → clean shutdown) works end to end.

All tests drive the real asyncio front end via ``asyncio.run``; the
worker-pool tests use real subprocess workers (persistent across requests),
and the invariance tests cross-check against inline (``workers=0``)
execution and the in-process sampling engine.
"""

import asyncio
import json
import os
import random
import signal
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.sampling import SamplerEngine
from repro.language import scenario_from_string
from repro.service import (
    GenerationServer,
    GenerationService,
    GenerationFailedError,
    HttpGenerationServer,
    ServiceOverloadedError,
    generate_sync,
    http_request,
    request_over_tcp,
    scene_record,
    splitmix64,
)
from repro.service.protocol import ShardPayload, derive_scene_seeds

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "examples" / "scenarios"
TOLERANCE = 1e-9

#: Cheap members of the golden corpus (few candidate iterations at the
#: golden seed) — enough for 9 concurrent request/strategy pairs.
GOLDEN_REQUESTS = [
    ("two_cars", "rejection"),
    ("two_cars", "vectorized"),
    ("two_cars", "batch"),
    ("oncoming", "rejection"),
    ("oncoming", "batch"),
    ("mars_rubble_field", "rejection"),
    ("mars_rubble_field", "vectorized"),
    ("close_car", "rejection"),
    ("single_car", "batch"),
]


def _golden(stem):
    return json.loads((GOLDEN_DIR / f"{stem}.json").read_text())


def _source(stem):
    return (SCENARIO_DIR / f"{stem}.scenic").read_text()


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

    ``derive="direct"`` with ``n=1`` is the service's parity mode: the shard
    samples with ``Random(seed)`` exactly as ``Scenario.generate`` does, so
    the response must reproduce ``tests/golden/`` for every strategy.
    """

    async def run():
        async with GenerationService(workers=2) as service:
            responses = await asyncio.gather(
                *(
                    service.generate(
                        _source(stem),
                        n=1,
                        seed=_golden(stem)["seed"],
                        strategy=strategy,
                        max_iterations=_golden(stem)["max_iterations"],
                        derive="direct",
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


def test_sharded_splitmix_seeds_are_worker_count_invariant():
    """The same (seed, n) request is bit-identical however it is sharded.

    Cross-checks three executions of one request — a 2-process pool, inline
    (no pool), and a direct in-process engine loop using the documented
    per-scene seed derivation — all must agree exactly.
    """
    source = _source("two_cars")

    async def run(workers):
        async with GenerationService(workers=workers) as service:
            response = await service.generate(
                source, n=10, seed=424242, strategy="rejection", max_iterations=20000
            )
        return response

    pooled = asyncio.run(run(2))
    inline = asyncio.run(run(0))
    assert pooled.scenes == inline.scenes
    assert len(pooled.scenes) == 10
    # The pool really did spread the shards over distinct processes.
    assert len(pooled.stats["workers"]) == 2

    seeds = derive_scene_seeds(424242, 10)
    engine = SamplerEngine(scenario_from_string(source))
    for index, expected in enumerate(pooled.scenes):
        scene = engine.sample(max_iterations=20000, rng=random.Random(seeds[index]))
        local = scene_record(scene, iterations=engine.last_stats.iterations)
        assert local == expected


def test_direct_mode_matches_generate_batch():
    """``derive="direct"`` is draw-for-draw the classic sequential batch."""
    source = _source("mars_rubble_field")

    async def run():
        async with GenerationService(workers=0) as service:
            return await service.generate(
                source, n=4, seed=7, strategy="rejection", max_iterations=20000,
                derive="direct",
            )

    response = asyncio.run(run())
    batch = scenario_from_string(source).generate_batch(
        4, seed=7, strategy="rejection", max_iterations=20000
    )
    assert [record["objects"] for record in response.scenes] == [
        scene_record(scene)["objects"] for scene in batch
    ]


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
                fingerprint, n=1, seed=_golden("single_car")["seed"],
                strategy="rejection", max_iterations=20000, derive="direct",
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


def test_compile_error_raises_generation_failed():
    async def run():
        async with GenerationService(workers=0) as service:
            await service.generate("ego = = Object\n", n=1, seed=0)

    with pytest.raises(GenerationFailedError):
        asyncio.run(run())


@pytest.mark.parametrize(
    "field,value,needle",
    [
        ("strategy", "nope", "known: batch, direct, rejection, vectorized"),
        ("max_iterations", 0, "max_iterations must be at least 1"),
        ("options", {"backend": "numpy"}, "bad options for strategy 'rejection'"),
        ("options", {"nope": 1}, "bad options for strategy 'rejection'"),
        ("options", {"seed": 9}, "may not set request fields: seed"),
    ],
)
def test_bad_request_is_rejected_before_admission(field, value, needle):
    """A bad strategy, budget or strategy option is the client's error on both front ends.

    HTTP answers 400 and TCP a ``ValueError`` naming the problem; the request
    is never admitted, so no shard runs and ``failures`` does not move.
    """
    request = {"source": _source("single_car"), "n": 1, field: value}

    async def run():
        async with GenerationService(workers=0) as service:
            async with HttpGenerationServer(service) as http:
                status, body = await http_request(
                    http.host, http.port, "POST", "/generate", request
                )
            server = GenerationServer(service, port=0)
            await server.start()
            try:
                tcp = await request_over_tcp(
                    server.host, server.port, {"op": "generate", **request}
                )
            finally:
                await server.close()
            return status, json.loads(body), tcp, service.service_stats()

    status, http_answer, tcp_answer, stats = asyncio.run(run())
    assert status == 400
    for answer in (http_answer, tcp_answer):
        assert not answer["ok"]
        assert answer["error"]["type"] == "ValueError"
        assert needle in answer["error"]["message"]
    assert stats["failures"] == 0
    assert stats["requests"] == 0


#: A program slow enough (~1k candidates a scene) that a 32-scene shard is
#: still running a fraction of a second after it starts.
SLOW_SOURCE = (
    "ego = Object at 0 @ 0\n"
    "other = Object at Range(-100, 100) @ Range(-100, 100)\n"
    "require (distance to other) < 3\n"
)


def _shm_segments():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.mark.parametrize(
    "moment,mode", [("idle", "blocking"), ("mid-shard", "blocking"), ("mid-shard", "streaming")]
)
def test_dead_worker_fails_only_its_own_request(moment, mode):
    """SIGKILL one of two workers: the request it held fails, the service recovers.

    The failed request raises ``GenerationFailedError`` and counts in
    ``failures``; the other shard's block is discarded (every block goes
    through shared memory here), the admission slot is released, and the
    next request matches ``workers=0`` record for record.
    """
    source = _source("two_cars")

    async def consume(stream):
        async for _ in stream:
            pass

    async def run():
        async with GenerationService(workers=2, shm_threshold=0) as service:
            warm = await service.generate(SLOW_SOURCE, n=2, seed=0, max_iterations=10**6)
            victim = warm.stats["workers"][0]
            before = _shm_segments()
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
            stats = service.service_stats()
            # Queued behind any shard the failed request left running.
            after = await service.generate(source, n=8, seed=3)
            leaked = _shm_segments() - before
            return failed.value, leaked, stats, after.scenes, service.service_stats()

    error, leaked, stats, scenes, final = asyncio.run(run())
    assert error.detail["type"] == "BrokenProcessPool"
    assert leaked == set()
    assert stats["failures"] == 1
    assert stats["pending"] == 0
    assert final["failures"] == 1
    assert scenes == generate_sync(source, n=8, seed=3).scenes


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
        strategy_options={}, max_iterations=10, indices=[0], seeds=[1], master_seed=0,
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


def test_zero_scene_request_is_valid():
    async def run():
        async with GenerationService(workers=0) as service:
            return await service.generate(_source("single_car"), n=0, seed=0)

    response = asyncio.run(run())
    assert response.scenes == []
    assert response.stats["scenes"] == 0


# ---------------------------------------------------------------------------
# The TCP front end
# ---------------------------------------------------------------------------


def test_tcp_server_end_to_end():
    """Start server → concurrent socket requests → clean shutdown."""
    source = _source("two_cars")
    golden = _golden("two_cars")

    async def run():
        service = GenerationService(workers=0)
        server = GenerationServer(service, port=0)
        await server.start()
        try:
            assert (await request_over_tcp(server.host, server.port, {"op": "ping"}))["ok"]

            published = await request_over_tcp(
                server.host, server.port, {"op": "publish", "source": source}
            )
            assert published["ok"]

            requests = [
                request_over_tcp(
                    server.host,
                    server.port,
                    {
                        "op": "generate",
                        "fingerprint": published["fingerprint"],
                        "n": 1,
                        "seed": golden["seed"],
                        "strategy": "rejection",
                        "max_iterations": golden["max_iterations"],
                        "derive": "direct",
                    },
                )
                for _ in range(8)
            ]
            answers = await asyncio.gather(*requests)

            unknown = await request_over_tcp(server.host, server.port, {"op": "nope"})
            bad = await request_over_tcp(server.host, server.port, {"op": "generate"})
            stats = await request_over_tcp(server.host, server.port, {"op": "stats"})

            shutdown = await request_over_tcp(server.host, server.port, {"op": "shutdown"})
            await asyncio.wait_for(server.serve_until_shutdown(), timeout=10)
            return answers, unknown, bad, stats, shutdown
        finally:
            await server.close()

    answers, unknown, bad, stats, shutdown = asyncio.run(run())
    assert len(answers) == 8
    for answer in answers:
        assert answer["ok"]
        _assert_record_matches_golden(
            answer["scenes"][0], golden["strategies"]["rejection"]
        )
    assert not unknown["ok"] and unknown["error"]["type"] == "ValueError"
    assert not bad["ok"]
    assert stats["ok"] and stats["stats"]["requests"] >= 8
    assert shutdown["ok"]


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
    assert derive_scene_seeds(0, 3, derive="direct") is None
    with pytest.raises(ValueError):
        derive_scene_seeds(0, 3, derive="bogus")
