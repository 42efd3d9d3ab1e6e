"""CLI for the generation service: ``python -m repro.service <command>``.

Commands
--------

``serve``
    Start the HTTP server (``/healthz``, ``/metrics``, ``POST /publish``,
    ``POST /generate``) and run until SIGINT or SIGTERM.  ``--port 0``
    picks an ephemeral port; the bound address is printed either way.
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
``generate``
    One-shot: compile a ``.scenic`` file (or ``-`` for stdin), sample ``-n``
    scenes, print the response JSON (``--stream``: NDJSON frames instead).

Throughput is measured by ``perfbench/`` (declared in ``BENCHMARK.json``).

Examples::

    python -m repro.service serve --port 8923 --workers 2
    python -m repro.service smoke
    python -m repro.service parity --scenes 8 --seeds 2
    python -m repro.service generate examples/scenarios/two_cars.scenic -n 5 --seed 7
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

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
    service = GenerationService(workers=args.workers)
    server = HttpGenerationServer(service, host=args.host, port=args.port)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    print(f"repro.service listening on {server.host}:{server.port} "
          f"({args.workers} workers)", flush=True)
    try:
        await stop.wait()
    finally:
        await server.close()
    print("repro.service: clean shutdown", flush=True)
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
            strategy = ("rejection", "vectorized", "batch")[index % 3]
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
                    async with GenerationService(workers=workers) as service:
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

    serve = sub.add_parser("serve", help="run the HTTP server until SIGINT or SIGTERM")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8923)
    serve.add_argument("--workers", type=int, default=2)

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
        "generate": _cmd_generate,
    }[args.command]
    return asyncio.run(command(args))


if __name__ == "__main__":
    sys.exit(main())
