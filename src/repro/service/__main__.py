"""CLI for the generation service: ``python -m repro.service <command>``.

Commands
--------

``serve``
    Start the JSON-lines TCP server and run until a ``shutdown`` op (or
    Ctrl-C).  ``--port 0`` picks an ephemeral port and prints it.
    ``--http-port`` additionally serves the HTTP/WebSocket front end
    (``/healthz``, ``/metrics``, ``POST /generate``, ``/ws``);
    ``--transport shm|pickle`` picks the worker → coordinator scene
    carrier.
``smoke``
    Self-contained health check used by CI: starts a service, fires
    concurrent mixed-strategy requests at it, verifies the determinism
    contract (same request twice → identical scenes; sharded result is
    worker-count independent; streamed frames reassemble bit-identical to
    the blocking response), and shuts down cleanly.  Exits non-zero on any
    mismatch.
``parity``
    The fixed-seed streaming-parity campaign: for each strategy × worker
    count, the streamed frames must reassemble bit-identical to the
    blocking response and to inline (workers=0) execution.
``bench``
    Measure request throughput (scenes/second, warm cache) and print a
    small machine-readable JSON blob.  ``--check results/BENCH_7.json``
    turns it into a CI gate: exit non-zero unless the measured throughput
    clears ``--check-factor`` (default 10) times the BENCH_6 baseline
    recorded in the committed results file.
``generate``
    One-shot: compile a ``.scenic`` file (or ``-`` for stdin), sample ``-n``
    scenes, print the response JSON (``--stream``: NDJSON frames instead).

Examples::

    python -m repro.service serve --port 8923 --workers 2 --http-port 8924
    python -m repro.service smoke
    python -m repro.service parity --scenes 8 --seeds 2
    python -m repro.service generate examples/scenarios/two_cars.scenic -n 5 --seed 7
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from .server import GenerationServer
from .server_http import HttpGenerationServer
from .service import GenerationService


def _sample_sources() -> dict:
    """Small embedded programs so the CLI needs no repository checkout."""
    from ..experiments import scenarios

    return {
        "two_cars": scenarios.two_cars(),
        "close_car": scenarios.close_car(),
        "mars": "import mars\nego = Rover at 0 @ -2\nRock\nRock\nPipe\n",
    }


async def _cmd_serve(args: argparse.Namespace) -> int:
    service = GenerationService(
        workers=args.workers,
        cache_dir=args.cache_dir,
        transport=args.transport,
        shm_threshold=args.shm_threshold,
    )
    server = GenerationServer(
        service, host=args.host, port=args.port,
        max_request_bytes=args.max_request_bytes,
    )
    await server.start()
    print(f"repro.service listening on {server.host}:{server.port} "
          f"({args.workers} workers, transport={service.transport})", flush=True)
    http_server = None
    if args.http_port is not None:
        http_server = HttpGenerationServer(service, host=args.host, port=args.http_port)
        # The service is shared (and already started); HttpGenerationServer
        # start() is idempotent on it.
        await http_server.start()
        print(f"repro.service http on {http_server.host}:{http_server.port} "
              f"(/healthz /metrics /generate /ws)", flush=True)
    try:
        await server.serve_until_shutdown()
    except (KeyboardInterrupt, asyncio.CancelledError):
        await server.close()
    finally:
        if http_server is not None:
            await http_server.close()  # service.close() is idempotent
    print("repro.service: clean shutdown")
    return 0


async def _cmd_smoke(args: argparse.Namespace) -> int:
    """The CI smoke: concurrency + determinism + clean shutdown, end to end."""
    sources = _sample_sources()
    failures = []

    async with GenerationService(workers=args.workers) as service:
        # 1. Sustained concurrency: >= 8 simultaneous mixed requests.
        requests = []
        for index in range(args.requests):
            name = list(sources)[index % len(sources)]
            strategy = ("rejection", "vectorized", "batch", "direct")[index % 4]
            requests.append(
                service.generate(
                    sources[name], n=3, seed=1000 + index, strategy=strategy,
                    max_iterations=20000,
                )
            )
        responses = await asyncio.gather(*requests)
        total_scenes = sum(len(response.scenes) for response in responses)
        print(f"smoke: {len(responses)} concurrent requests -> {total_scenes} scenes")

        # 2. Determinism: identical request -> identical scenes.
        first = await service.generate(sources["two_cars"], n=6, seed=42, max_iterations=20000)
        second = await service.generate(sources["two_cars"], n=6, seed=42, max_iterations=20000)
        if first.scenes != second.scenes:
            failures.append("repeat of an identical request changed the scenes")

        # Constructive-strategy diagnostics must surface in merged stats:
        # the comparable candidate count and per-scene importance weights.
        direct = await service.generate(
            sources["two_cars"], n=4, seed=9, strategy="direct", max_iterations=20000
        )
        direct_stats = direct.stats
        print(
            f"smoke: direct candidates={direct_stats.get('candidates')} "
            f"mean_importance_weight={direct_stats.get('mean_importance_weight')}"
        )
        if direct_stats.get("importance_scenes", 0) != len(direct.scenes):
            failures.append("direct scenes did not all carry importance weights")
        if direct_stats.get("candidates", 0) <= 0:
            failures.append("direct request reported no drawn candidates")

        # Streaming parity: frames reassembled by index must equal the
        # blocking response for the same (seed, n) bit-for-bit.
        streamed = [None] * 6
        frame_count = 0
        async for frame in service.generate_stream(
            sources["two_cars"], n=6, seed=42, max_iterations=20000
        ):
            if frame["frame"] == "block":
                frame_count += 1
                for index, record in zip(frame["indices"], frame["scenes"]):
                    streamed[index] = record
        if streamed != first.scenes:
            failures.append("streamed frames did not reassemble to the blocking response")
        print(f"smoke: streaming parity over {frame_count} block frames OK")

        stats = service.service_stats()
        print(f"smoke: stats {json.dumps(stats, default=str)}")

    # 3. Worker-count invariance of the sharded (splitmix) path.
    async with GenerationService(workers=0) as inline_service:
        inline = await inline_service.generate(
            sources["two_cars"], n=6, seed=42, max_iterations=20000
        )
        if inline.scenes != first.scenes:
            failures.append(
                f"sharded result differs between workers={args.workers} and inline execution"
            )

    if failures:
        for failure in failures:
            print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("smoke: determinism + concurrency + clean shutdown OK")
    return 0


async def _cmd_parity(args: argparse.Namespace) -> int:
    """Fixed-seed streaming-parity campaign (the CI determinism gate).

    For every strategy × worker count × seed: the streamed frames must
    reassemble bit-identically to the blocking response, which must itself
    be bit-identical across worker counts (inline included).
    """
    sources = _sample_sources()
    failures = []
    checked = 0
    for name in ("two_cars", "close_car"):
        source = sources[name]
        for strategy in ("rejection", "vectorized", "batch"):
            for seed_offset in range(args.seeds):
                seed = 7000 + 13 * seed_offset
                reference = None
                for workers in (0, 1, 2):
                    async with GenerationService(
                        workers=workers, transport=args.transport,
                        shm_threshold=args.shm_threshold,
                    ) as service:
                        blocking = await service.generate(
                            source, n=args.scenes, seed=seed,
                            strategy=strategy, max_iterations=20000,
                        )
                        streamed = [None] * args.scenes
                        async for frame in service.generate_stream(
                            source, n=args.scenes, seed=seed,
                            strategy=strategy, max_iterations=20000,
                        ):
                            if frame["frame"] == "block":
                                for index, record in zip(frame["indices"], frame["scenes"]):
                                    streamed[index] = record
                    label = f"{name}/{strategy}/seed={seed}/workers={workers}"
                    if streamed != blocking.scenes:
                        failures.append(f"{label}: streamed != blocking")
                    if reference is None:
                        reference = blocking.scenes
                    elif blocking.scenes != reference:
                        failures.append(f"{label}: differs from workers=0 result")
                    checked += 1
    if failures:
        for failure in failures:
            print(f"PARITY FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"parity: {checked} stream/blocking/worker-count combinations bit-identical")
    return 0


async def _cmd_bench(args: argparse.Namespace) -> int:
    import time

    source = _sample_sources()["two_cars"]
    async with GenerationService(workers=args.workers) as service:
        await service.generate(source, n=2, seed=0, max_iterations=20000)  # warm the workers
        start = time.perf_counter()
        response = await service.generate(
            source, n=args.scenes, seed=7, strategy=args.strategy, max_iterations=20000
        )
        wall = time.perf_counter() - start
    measured = len(response.scenes) / wall if wall else float("inf")
    result = {
        "scenes": len(response.scenes),
        "wall_seconds": wall,
        "scenes_per_second": measured,
        "strategy": args.strategy,
        "workers": args.workers,
        "iterations": response.stats["iterations"],
        "candidates": response.stats.get("candidates", response.stats["iterations"]),
    }
    if response.stats.get("mean_importance_weight") is not None:
        result["mean_importance_weight"] = response.stats["mean_importance_weight"]
    if args.check is not None:
        # Check mode (CI): the measured throughput must clear the committed
        # BENCH_6-relative bound recorded in results/BENCH_7.json.  The
        # bound is baseline-relative rather than absolute-machine-relative,
        # so slower CI runners still pass as long as the rework's speedup
        # holds.
        committed = json.loads(Path(args.check).read_text())
        recorded = committed["benchmarks"]["service_throughput"]
        baseline = recorded["bench6_scenes_per_second"]
        required = args.check_factor * baseline
        result["check"] = {
            "committed_scenes_per_second": recorded["scenes_per_second"],
            "bench6_scenes_per_second": baseline,
            "required_scenes_per_second": required,
            "passed": measured >= required,
        }
        print(json.dumps(result, indent=1))
        if measured < required:
            print(
                f"BENCH CHECK FAILURE: {measured:.1f} scenes/s < required "
                f"{required:.1f} ({args.check_factor}x the BENCH_6 baseline "
                f"{baseline} scenes/s)",
                file=sys.stderr,
            )
            return 1
        return 0
    print(json.dumps(result, indent=1))
    return 0


async def _cmd_generate(args: argparse.Namespace) -> int:
    source = sys.stdin.read() if args.file == "-" else Path(args.file).read_text()
    async with GenerationService(workers=args.workers) as service:
        if args.stream:
            async for frame in service.generate_stream(
                source,
                n=args.n,
                seed=args.seed,
                strategy=args.strategy,
                max_iterations=args.max_iterations,
                derive=args.derive,
            ):
                print(json.dumps(frame), flush=True)
            return 0
        response = await service.generate(
            source,
            n=args.n,
            seed=args.seed,
            strategy=args.strategy,
            max_iterations=args.max_iterations,
            derive=args.derive,
        )
    print(json.dumps(response.as_dict(), indent=1))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro.service", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_transport_args(command) -> None:
        command.add_argument("--transport", default=None, choices=("shm", "pickle"),
                             help="worker -> coordinator scene carrier "
                                  "(default: shm with a pool, pickle inline)")
        command.add_argument("--shm-threshold", type=int, default=32768,
                             help="min packed block bytes before shm kicks in")

    serve = sub.add_parser("serve", help="run the JSON-lines TCP server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8923)
    serve.add_argument("--http-port", type=int, default=None,
                       help="also serve HTTP/WebSocket (healthz, metrics, generate, ws)")
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--cache-dir", default=None,
                       help="shared on-disk artifact cache directory")
    serve.add_argument("--max-request-bytes", type=int, default=1 << 20,
                       help="cap on one TCP request line (oversized lines are "
                            "answered with a structured error)")
    add_transport_args(serve)

    smoke = sub.add_parser("smoke", help="CI smoke: concurrency + determinism + shutdown")
    smoke.add_argument("--workers", type=int, default=2)
    smoke.add_argument("--requests", type=int, default=8,
                       help="concurrent generate requests to sustain (>= 8 in CI)")

    parity = sub.add_parser(
        "parity", help="fixed-seed campaign: streamed == blocking == inline, bit-identical"
    )
    parity.add_argument("--scenes", type=int, default=6)
    parity.add_argument("--seeds", type=int, default=2,
                        help="seeds per strategy/worker-count combination")
    add_transport_args(parity)

    bench = sub.add_parser("bench", help="measure warm-path request throughput")
    bench.add_argument("--scenes", type=int, default=50)
    bench.add_argument("--workers", type=int, default=2)
    bench.add_argument("--strategy", default="vectorized")
    bench.add_argument("--check", default=None, metavar="BENCH_JSON",
                       help="check mode: exit non-zero unless measured throughput "
                            "clears --check-factor x the BENCH_6 baseline recorded "
                            "in this committed results file")
    bench.add_argument("--check-factor", type=float, default=10.0,
                       help="required multiple of the recorded BENCH_6 baseline")

    generate = sub.add_parser("generate", help="one-shot generation from a .scenic file")
    generate.add_argument("file", help="path to a .scenic program, or - for stdin")
    generate.add_argument("-n", type=int, default=1)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--strategy", default="rejection")
    generate.add_argument("--max-iterations", type=int, default=20000)
    generate.add_argument("--derive", default="splitmix", choices=("splitmix", "direct"))
    generate.add_argument("--workers", type=int, default=0)
    generate.add_argument("--stream", action="store_true",
                          help="print NDJSON stream frames as shards complete")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {
        "serve": _cmd_serve,
        "smoke": _cmd_smoke,
        "parity": _cmd_parity,
        "bench": _cmd_bench,
        "generate": _cmd_generate,
    }[args.command]
    return asyncio.run(command(args))


if __name__ == "__main__":
    sys.exit(main())
