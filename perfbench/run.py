"""Corpus-driven benchmark of the Scenic reproduction (``repro``).

Run from the root of a checkout::

    python3 perfbench/run.py --workload inproc-easy --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
inputs once untraced and once traced and reports the per-layer metrics and
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = ROOT / ".perfbench-out"
#: Set-up is repeated in this many fresh interpreters; ``setup_s`` is the
#: median over them and the measuring process itself.
SETUP_REPEATS = 4

END_TO_END_UNITS = {
    "scenes_per_s": "scenes/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "language.compile_ms_per_program": "ms",
    "language.artifact_cache_hit_ratio": "ratio",
    "sampling.bind_ms_per_program": "ms",
    "sampling.candidates_per_scene": "count",
    "sampling.candidate_us": "us",
    "sampling.rejections.containment": "ratio",
    "sampling.rejections.collision": "ratio",
    "sampling.rejections.visibility": "ratio",
    "sampling.rejections.user": "ratio",
    "sampling.rejections.sampling": "ratio",
    "core.concretize_s_share": "ratio",
    "core.concretize_calls_per_candidate": "count",
    "core.vectorfield_lookups_per_candidate": "count",
    "core.vectorfield_s_share": "ratio",
    "core.visibility_s_share": "ratio",
    "core.user_requirements_s_share": "ratio",
    "geometry.kernel_s_share": "ratio",
    "geometry.kernel_calls_per_candidate": "count",
    "geometry.kernel_items_per_call": "count",
    "geometry.scalar_s_share": "ratio",
    "service.worker_busy_ratio": "ratio",
    "service.sampling_s_per_scene": "s",
    "service.overhead_ms_per_request": "ms",
    "service.materialize_ms_per_request": "ms",
    "service.engine_cache_hit_ratio": "ratio",
    "service.shards_per_request": "count",
}


def _process_age_s() -> float:
    """Seconds since this interpreter process started (Linux ``/proc``)."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22: starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _setup_clock():
    """A function giving seconds since process start (or since this call)."""
    try:
        age = _process_age_s()
    except (OSError, ValueError, IndexError):
        age = -1.0
    if not 0.0 <= age < 60.0:  # no /proc, or a clock from another namespace
        age = 0.0
    origin = time.perf_counter() - age
    return lambda: time.perf_counter() - origin


SINCE_START = _setup_clock()


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="work per run, as seconds on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--programs", type=int, default=None,
                        help="use only the first N corpus programs (smoke tests)")
    parser.add_argument("--plant-invalid", action="store_true",
                        help="corrupt one output to prove the correctness check")
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, print the set-up time and exit")
    return parser.parse_args(argv)


def check_checkout() -> None:
    """Refuse to run without the library and the corpus beside the benchmark."""
    missing = [
        path for path in ("src/repro/__init__.py", "corpus/manifest.json")
        if not (ROOT / path).is_file()
    ]
    if missing:
        sys.stderr.write(f"perfbench: checkout at {ROOT} lacks {', '.join(missing)}\n")
        sys.exit(2)
    # Measure the library in this checkout with its default configuration.
    for variable in ("REPRO_SCENIC_CACHE_DIR", "REPRO_GEOMETRY_BACKEND"):
        os.environ.pop(variable, None)
    sys.path.insert(0, str(ROOT / "src"))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def latency_summary(latencies_s: List[float]) -> Tuple[float, float, int]:
    """(p50 ms, tail ms, operations in the tail).

    The tail is the mean latency of the slowest tenth of the operations, and
    of at least ten of them.  A single order statistic, such as the
    11th-largest latency, sits on a gap in the corpus's latency
    distribution: on inproc-easy the 10th and 12th slowest operations differ
    by a third, so host noise on two operations moved the 11th-largest by
    26% (IQR over median, 5 seeds) where this mean moved 5%.
    """
    ordered = sorted(latencies_s)
    count = len(ordered)
    tail = ordered[-min(count, max(10, math.ceil(count / 10))):]
    return statistics.median(ordered) * 1000.0, statistics.mean(tail) * 1000.0, len(tail)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def throughput(result) -> float:
    """Validated scenes per reference-host second."""
    return _ratio(result.scenes, result.reference_wall_s())


def end_to_end(result, setup_samples: List[float], peak_rss_mb: float) -> Dict[str, float]:
    """Timings are over distinct operations, each the median of its repeats.

    A burst of host load that slows one repeat of an operation does not
    move its median.
    """
    latencies, scenes = result.operations()
    p50, tail, _ = latency_summary(latencies)
    wall = sum(latency for latency in latencies if math.isfinite(latency))
    return {
        "scenes_per_s": _ratio(scenes, wall),
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(workload, result, tracer, engine_hits: Tuple[int, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced window; 0 where a layer is not on the path."""
    factor = result.probe.factor()
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    operations = result.attempted - result.failed
    metrics["sampling.candidates_per_scene"] = _ratio(result.candidates, result.scenes)
    for cause in ("containment", "collision", "visibility", "user", "sampling"):
        metrics[f"sampling.rejections.{cause}"] = _ratio(
            result.rejections.get(cause, 0), result.iterations
        )
    if workload.kind == "inproc":
        window = result.wall_s

        def share(name: str) -> float:
            return _ratio(tracer.self_time(name), window)

        def per_candidate(count: float) -> float:
            return _ratio(count, result.candidates)

        metrics.update({
            "language.compile_ms_per_program":
                _ratio(tracer.total("language.compile") * factor * 1e3, operations),
            "sampling.bind_ms_per_program":
                _ratio(tracer.total("sampling.bind") * factor * 1e3, operations),
            "sampling.candidate_us": per_candidate(
                (tracer.total("sampling.generate") - tracer.total("sampling.bind")) * factor * 1e6
            ),
            "core.concretize_s_share": share("core.concretize"),
            "core.concretize_calls_per_candidate": per_candidate(tracer.calls("core.concretize")),
            "core.vectorfield_lookups_per_candidate":
                per_candidate(tracer.calls("core.vectorfield")),
            "core.vectorfield_s_share": share("core.vectorfield"),
            "core.visibility_s_share": share("core.visibility"),
            "core.user_requirements_s_share": share("core.user_requirements"),
            "geometry.kernel_s_share": share("geometry.kernel"),
            "geometry.kernel_calls_per_candidate": per_candidate(tracer.calls("geometry.kernel")),
            "geometry.kernel_items_per_call":
                _ratio(tracer.items("geometry.kernel"), tracer.calls("geometry.kernel")),
            "geometry.scalar_s_share": share("geometry.scalar"),
        })
    else:
        hits, lookups = engine_hits
        overheads = sorted(result.overheads_s)
        metrics.update({
            "language.artifact_cache_hit_ratio": _ratio(result.worker_cache_hits, result.shards),
            "sampling.candidate_us": _ratio(result.sampling_s * factor * 1e6, result.candidates),
            "service.worker_busy_ratio":
                _ratio(result.sampling_s, result.wall_s * workload.workers),
            "service.sampling_s_per_scene": _ratio(result.sampling_s * factor, result.scenes),
            "service.overhead_ms_per_request":
                statistics.median(overheads) * factor * 1e3 if overheads else 0.0,
            "service.materialize_ms_per_request": _ratio(
                (tracer.total("service.take_block") + tracer.total("service.scenes"))
                * factor * 1e3,
                operations,
            ),
            "service.engine_cache_hit_ratio": _ratio(hits, lookups),
            "service.shards_per_request": _ratio(result.shards, operations),
        })
    return metrics


# ---------------------------------------------------------------------------
# Driving the workloads
# ---------------------------------------------------------------------------


def repeat_setup(args: argparse.Namespace) -> List[float]:
    """Set up again in fresh interpreters; returns their set-up times."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    if args.programs is not None:
        command += ["--programs", str(args.programs)]
    samples = []
    for _ in range(SETUP_REPEATS):
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                   timeout=120, check=True)
        samples.append(float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def drive_inproc(workload, args, report: Dict[str, Any]) -> None:
    from workloads import normalized_setup_s

    workload.setup(ROOT, args.programs)
    report["setup_s"] = normalized_setup_s(SINCE_START())
    if args.setup_only:
        return
    # A traced run only needs the per-layer split: one pass untraced, one traced.
    passes = 1 if args.trace else workload.size(args.seconds)
    report["size"] = {"passes": passes, "scenes_per_program": workload.scenes_per_program}
    plan = workload.plan(args.seed, passes)
    report["result"] = workload.run(plan, plant=args.plant_invalid)
    report["peak_rss_mb"] = own_peak_rss_mb()
    if args.trace:
        from tracing import Tracer, install_inproc

        tracer = Tracer()
        install_inproc(tracer)
        tracer.on[0] = True
        try:
            report["traced"] = workload.run(plan, tracer=tracer)
        finally:
            tracer.uninstall()
        report["tracer"] = tracer


async def drive_service(workload, args, report: Dict[str, Any]) -> None:
    from workloads import normalized_setup_s, worker_peak_rss_mb

    workload.setup(ROOT, args.programs)
    service = await workload.start()
    try:
        report["setup_s"] = normalized_setup_s(SINCE_START())
        if args.setup_only:
            return
        requests = workload.size(args.seconds / 2 if args.trace else args.seconds)
        report["size"] = {"requests": requests, "workers": workload.workers}
        plans = workload.plan(args.seed, requests)
        result = report["result"] = await workload.run(service, plans, plant=args.plant_invalid)
        parts = {"benchmark process": own_peak_rss_mb(),
                 "largest worker": worker_peak_rss_mb(result.worker_pids)}
        report["peak_rss_mb"] = max(parts.values())
        report["peak_rss_parts"] = parts
    finally:
        await service.close()
    await workload.replay(result)
    if args.trace:
        from tracing import Tracer, install_service

        # A fresh pool, so the traced half starts as cold as the untraced one.
        service = await workload.start()
        before = service.service_stats()
        tracer = Tracer()
        install_service(tracer)
        tracer.on[0] = True
        try:
            report["traced"] = await workload.run(service, plans, tracer=tracer)
        finally:
            tracer.uninstall()
            after = service.service_stats()
            await service.close()
        hits = after["engine_cache_hits"] - before["engine_cache_hits"]
        misses = after["engine_cache_misses"] - before["engine_cache_misses"]
        report["engine_hits"] = (hits, hits + misses)
        report["tracer"] = tracer


def workload_manifest(workload, args, report: Dict[str, Any]) -> Dict[str, Any]:
    """What was measured: inputs, defaults and environment."""
    import inspect

    import numpy
    from repro.core.scenario import Scenario
    from repro.geometry import backends
    from repro.service import GenerationService

    def default(function) -> str:
        return inspect.signature(function).parameters["strategy"].default

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": report["size"],
        "corpus": [[program.id, program.fingerprint] for program in workload.programs],
        "default_strategy": {
            "Scenario.generate_batch": default(Scenario.generate_batch),
            "Scenario.generate": default(Scenario.generate),
            "GenerationService.generate": default(GenerationService.generate),
        },
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "geometry_backends": {"available": backends.available_backends(),
                              "active": backends.active_backend().name},
    }


def untraced_report(result, report, args) -> Dict[str, float]:
    """The end-to-end metrics, with the raw figures behind them."""
    setup_samples = [report["setup_s"]] + repeat_setup(args)
    metrics = end_to_end(result, setup_samples, report["peak_rss_mb"])
    raw_p50, raw_tail, _ = latency_summary(result.latencies_s)
    latencies, _ = result.operations()
    _, _, slowest = latency_summary(latencies)
    print(f"latency_tail_ms is the mean of the slowest {slowest} of {len(latencies)} operations, "
          f"each the median of {result.attempted / len(latencies):g} repeat(s)")
    print(f"setup_s samples: {', '.join(f'{value:.4f}' for value in setup_samples)}")
    for name, value in report.get("peak_rss_parts", {}).items():
        print(f"peak_rss_mb of {name}: {value:.1f} MiB")
    print(f"host speed factor {result.probe.factor():.4f} ({len(result.probe.samples)} probes); "
          f"raw host-time figures: scenes_per_s {_ratio(result.scenes, result.wall_s):.4f}, "
          f"latency_p50_ms {raw_p50:.4f}, latency_tail_ms {raw_tail:.4f}")
    print(f"metric failed_ratio = {_ratio(result.failed, result.attempted):.6f} ratio")
    return metrics


def traced_report(workload, report, output) -> Optional[Dict[str, float]]:
    """Per-layer metrics, the coverage guard and the tracing overhead.

    Returns ``None`` when the coverage guard fails.
    """
    from tracing import INPROC_SPANS, SERVICE_SPANS, missing_spans

    tracer, traced, untraced = report["tracer"], report["traced"], report["result"]
    output["spans"] = tracer.spans
    output["span_summary"] = tracer.summary()
    for name, entry in output["span_summary"].items():
        print(f"span {name}: calls={entry['calls']} total={entry['total_s']:.4f}s "
              f"self={entry['self_s']:.4f}s")
    expected = INPROC_SPANS if workload.kind == "inproc" else SERVICE_SPANS
    missing = missing_spans(tracer, expected)
    if missing:
        print(f"coverage guard FAILED: no calls recorded for {', '.join(missing)}")
        return None
    print(f"coverage guard ok: all {len(expected)} expected spans recorded calls")
    untraced_rate, traced_rate = throughput(untraced), throughput(traced)
    print(f"tracing overhead: untraced {untraced_rate:.4f} scenes/s, traced "
          f"{traced_rate:.4f} scenes/s ({_ratio(untraced_rate, traced_rate) * 100 - 100:+.1f}%)")
    # Both halves count towards correctness.
    untraced.attempted += traced.attempted
    untraced.failed += traced.failed
    untraced.failures.extend(traced.failures)
    return per_layer(workload, traced, tracer, report.get("engine_hits", (0, 0)))


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    check_checkout()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    report: Dict[str, Any] = {}
    if workload.kind == "inproc":
        drive_inproc(workload, args, report)
    else:
        asyncio.run(drive_service(workload, args, report))
    if args.setup_only:
        print(json.dumps({"setup_s": report["setup_s"]}))
        return 0

    result = report["result"]
    manifest = workload_manifest(workload, args, report)
    print("manifest: " + json.dumps(manifest, sort_keys=True))
    output: Dict[str, Any] = {"manifest": manifest}
    if args.trace:
        metrics, units = traced_report(workload, report, output), PER_LAYER_UNITS
        if metrics is None:
            return 3
    else:
        metrics, units = untraced_report(result, report, args), END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    correct = result.failed == 0
    print(f"correctness: {'ok' if correct else 'FAILED'} "
          f"({result.failed} of {result.attempted} operations failed)")
    for failure in result.failures:
        print(f"  failure: {failure}")
    output.update({
        "metrics": metrics,
        "failures": result.failures,
        "operations": list(zip(result.starts_s, result.latencies_s)),
        "speed_probes": result.probe.samples,
    })
    OUTPUT_DIR.mkdir(exist_ok=True)
    out_path = OUTPUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(output, indent=1, sort_keys=True, default=str) + "\n")
    print(f"wrote {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
