"""The benchmark's workloads: corpus programs sampled in process or served.

A workload's operations -- which programs, how many scenes, which sampling
seeds -- are fixed by its size; the workload seed draws the order in which
they are issued.  Sampling seeds stay out of the workload seed on purpose:
candidate counts are heavy-tailed (one hard program averages ~980
candidates per scene and drew a 6137-candidate scene among 16), so per-seed
sampling moved throughput by 11% on inproc-easy and 31% on inproc-hard (IQR
over median, 5 seeds), more than any regression bound could absorb.

Timing covers the calls a user makes (compile + ``generate_batch``, or
``generate`` + reading ``response.scenes``); the correctness checks run
outside the timed spans.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy

_perf = time.perf_counter

#: A program outside the corpus, used for warm-up so that no workload
#: program starts warm.
WARMUP_SOURCE = "ego = Object at 0 @ 0\n"

#: Candidate budget per scene.  The hardest corpus entry averages ~1700
#: candidates per scene and some medium entries have heavy tails, so the
#: library's default of 2000 fails a few scenes per run; at 100000 a failure
#: is astronomically unlikely, and a failure still counts against the run.
MAX_ITERATIONS = 100_000

#: Request sizes of the service mix and their weights.
SERVICE_SIZES = (1, 4, 16, 64)
SERVICE_SIZE_WEIGHTS = (0.4, 0.3, 0.2, 0.1)
ZIPF_EXPONENT = 1.1
#: The popularity ranking (which program is the Zipf head) is part of the
#: workload, not of a run: a seed-dependent ranking would swing the mix's
#: per-scene cost several-fold between seeds.
POPULARITY_SEED = 0
#: Requests whose records are replayed through an inline service.
REPLAYED_REQUESTS = 6


def sampling_seed(*key: Any) -> int:
    """A sampling seed that depends only on *key*."""
    return random.Random(":".join(map(str, key))).getrandbits(32)


@dataclass
class Program:
    id: str
    fingerprint: str
    world: str
    objects: int
    source: str


def load_programs(root: Path, tiers: Tuple[str, ...], limit: Optional[int]) -> List[Program]:
    """The corpus entries of *tiers*, id-sorted, optionally the first *limit*."""
    from repro.evals.corpus import Manifest

    manifest = Manifest.load(root / "corpus" / "manifest.json")
    entries = sorted(
        (entry for entry in manifest.entries if entry.difficulty in tiers),
        key=lambda entry: entry.id,
    )
    if limit is not None:
        entries = entries[:limit]
    return [
        Program(entry.id, entry.fingerprint, entry.world, entry.objects, entry.source(root))
        for entry in entries
    ]


def load_worlds(programs: List[Program]) -> None:
    """Load every world library the programs import (part of set-up)."""
    from repro.worlds.registry import load_world

    for world in sorted({program.world for program in programs}):
        if world != "inline":
            load_world(world)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x, self.y = x, y

    def rotated(self, angle: float) -> "_Point":
        cos, sin = math.cos(angle), math.sin(angle)
        return _Point(cos * self.x - sin * self.y, sin * self.x + cos * self.y)


def _calibration_loop() -> float:
    """Fixed work shaped like the library's: small objects, dicts, floats, numpy."""
    rng = random.Random(7)
    points = [_Point(rng.random(), rng.random()) for _ in range(300)]
    total, table = 0.0, {}
    for index, point in enumerate(points):
        turned = point.rotated(0.3)
        table[index % 97] = (turned.x, turned.y)
        total += math.hypot(turned.x, turned.y)
    coordinates = numpy.array([(point.x, point.y) for point in points])
    return total + float((coordinates @ coordinates.T).sum())


class SpeedProbe:
    """Tracks how fast the host runs Python right now.

    Shared hosts change speed by up to 1.8x between 5-second windows.  A
    fixed loop shaped like the library's work, timed between operations,
    slows down with them: over 2.7-second windows of a fixed sampling job,
    dividing by the loop's time cut the spread from 13% to 7%.  Scaling a
    measured interval by ``REFERENCE_S / (loop time around it)`` reports it
    in reference-host seconds.
    """

    #: The loop's typical time on the reference host.
    REFERENCE_S = 0.8e-3
    #: Samples this close to an interval (seconds) describe the host during it.
    MARGIN_S = 1.0

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (when, loop seconds)

    def sample(self) -> None:
        start = _perf()
        for _ in range(3):
            _calibration_loop()
        self.samples.append((start, (_perf() - start) / 3))

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Multiply a time measured in ``[start, end]`` by this."""
        near = [loop for when, loop in self.samples
                if start - self.MARGIN_S <= when <= end + self.MARGIN_S]
        # The median shrugs off a sample hit by a page fault or a collection.
        return self.REFERENCE_S / statistics.median(near or [loop for _, loop in self.samples])


def normalized_setup_s(raw_s: float) -> float:
    """A set-up time in reference-host seconds, probed right after set-up."""
    probe = SpeedProbe()
    for _ in range(5):
        probe.sample()
    return raw_s * probe.factor()


@dataclass
class RunResult:
    """What one timed window produced; times are raw, see :attr:`probe`."""

    wall_s: float = 0.0  # operations run back to back: the sum of their latencies
    starts_s: List[float] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    scenes: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    candidates: int = 0
    iterations: int = 0
    rejections: Dict[str, int] = field(default_factory=dict)
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    #: Per attempt: which operation it repeats, and its validated scenes.
    keys: List[Any] = field(default_factory=list)
    scene_counts: List[int] = field(default_factory=list)
    # Service only.
    sampling_s: float = 0.0
    shards: int = 0
    worker_cache_hits: int = 0
    overheads_s: List[float] = field(default_factory=list)
    worker_pids: set = field(default_factory=set)
    replay: List[Tuple[Any, List[Dict[str, Any]]]] = field(default_factory=list)

    def succeed(self, key: Any, start_s: float, latency_s: float, scenes: int) -> None:
        self.attempted += 1
        self.scenes += scenes
        self.keys.append(key)
        self.scene_counts.append(scenes)
        self.starts_s.append(start_s)
        self.latencies_s.append(latency_s)

    def fail(self, key: Any, start_s: float, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        # A failed operation misses every latency limit.
        self.keys.append(key)
        self.scene_counts.append(0)
        self.starts_s.append(start_s)
        self.latencies_s.append(math.inf)
        if len(self.failures) < 20:
            self.failures.append(message)

    def reference_latencies_s(self) -> List[float]:
        """Operation latencies in reference-host seconds."""
        return [
            latency * self.probe.factor(start, start + latency) if math.isfinite(latency)
            else latency
            for start, latency in zip(self.starts_s, self.latencies_s)
        ]

    def operations(self) -> Tuple[List[float], int]:
        """Reference latencies of the distinct operations, and their validated scenes.

        Attempts with one key are repeats of one operation: it counts once,
        with the median of their latencies (infinite if any failed) and the
        fewest scenes any of them validated.
        """
        repeats: Dict[Any, List[Tuple[float, int]]] = {}
        for key, latency, scenes in zip(self.keys, self.reference_latencies_s(),
                                        self.scene_counts):
            repeats.setdefault(key, []).append((latency, scenes))
        latencies, scenes = [], 0
        for attempts in repeats.values():
            times = [latency for latency, _ in attempts]
            latencies.append(statistics.median(times) if all(map(math.isfinite, times))
                             else math.inf)
            scenes += min(count for _, count in attempts)
        return latencies, scenes

    def reference_wall_s(self) -> float:
        """The timed wall in reference-host seconds."""
        return sum(latency for latency in self.reference_latencies_s() if math.isfinite(latency))

    def add_rejections(self, breakdown: Dict[str, int]) -> None:
        for cause, count in breakdown.items():
            self.rejections[cause] = self.rejections.get(cause, 0) + int(count)


def _span(tracer, name: str, request_id: Optional[int] = None):
    return tracer.span(name, request_id) if tracer is not None else nullcontext()


class _Untraced:
    """Switches the tracer off while correctness checks run."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def __enter__(self) -> None:
        if self.tracer is not None:
            self.saved, self.tracer.on[0] = self.tracer.on[0], False

    def __exit__(self, *exc) -> None:
        if self.tracer is not None:
            self.tracer.on[0] = self.saved


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


class InprocWorkload:
    """Compile each program cold and sample a batch at the default strategy."""

    kind = "inproc"

    def __init__(self, name: str, tiers: Tuple[str, ...], scenes_per_program: int,
                 reference_pass_s: float):
        self.name = name
        self.tiers = tiers
        self.scenes_per_program = scenes_per_program
        #: Seconds one pass over the programs took on the reference machine
        #: (2-core x86-64, Python 3.11); turns ``--seconds`` into passes.
        self.reference_pass_s = reference_pass_s
        self.programs: List[Program] = []

    def setup(self, root: Path, limit: Optional[int]) -> None:
        from repro.language import compile_scenario

        self.programs = load_programs(root, self.tiers, limit)
        load_worlds(self.programs)
        compile_scenario(WARMUP_SOURCE, cache=None).scenario().generate_batch(2, seed=0)

    def size(self, seconds: float) -> int:
        """Whole passes per timed window (the same for every seed)."""
        return max(1, round(seconds / self.reference_pass_s))

    def plan(self, seed: int, passes: int) -> List[Tuple[Program, int]]:
        """Each pass visits every program once, in an order drawn from *seed*.

        A program's sampling seed depends on the program only (see the
        module docstring), so every seed does the same work and every pass
        repeats the same operations.
        """
        rng = random.Random(f"{self.name}:{seed}")
        operations = []
        for _ in range(passes):
            order = list(self.programs)
            rng.shuffle(order)
            operations.extend((program, sampling_seed(program.id)) for program in order)
        return operations

    def run(self, plan, tracer=None, plant: bool = False) -> RunResult:
        from repro.fuzz.oracles import recheck_scene
        from repro.core.vectors import Vector
        from repro.language import compile_scenario

        result = RunResult()
        count = self.scenes_per_program
        for program, sample_seed in plan:
            result.probe.sample()
            start = _perf()
            try:
                with _span(tracer, "program"):
                    with _span(tracer, "language.compile"):
                        scenario = compile_scenario(program.source, cache=None).scenario()
                    with _span(tracer, "sampling.generate"):
                        batch = scenario.generate_batch(
                            count, max_iterations=MAX_ITERATIONS, seed=sample_seed
                        )
            except Exception as exc:  # noqa: BLE001 - a failed operation, reported
                result.fail(program.id, start, f"{program.id}: {type(exc).__name__}: {exc}")
                continue
            latency = _perf() - start
            with _Untraced(tracer):
                if plant and not scenario.workspace.is_unbounded and batch:
                    batch[0].objects[-1]._assign_property("position", Vector(1e9, 1e9))
                    plant = False
                problems = [] if len(batch) == count else [f"{len(batch)} of {count} scenes"]
                for index, scene in enumerate(batch):
                    problems.extend(
                        f"scene {index}: {problem}" for problem in recheck_scene(scenario, scene)
                    )
            if problems:
                result.fail(program.id, start, f"{program.id}: {problems[0]}")
                continue
            result.succeed(program.id, start, latency, len(batch))
            result.wall_s += latency
            result.candidates += batch.stats.total_candidates
            result.iterations += batch.stats.total_iterations
            result.add_rejections(batch.stats.rejection_breakdown())
        result.probe.sample()  # the host during the last operation
        return result


# ---------------------------------------------------------------------------
# The service workload
# ---------------------------------------------------------------------------


@dataclass
class Request:
    id: int
    program: Program
    n: int
    seed: int
    replay: bool = False


def _records_problems(records: List[Dict[str, Any]], n: int, objects: int) -> List[str]:
    """n records, each with the program's object count and finite fields."""
    if len(records) != n:
        return [f"{len(records)} records for n={n}"]
    problems = []
    for index, record in enumerate(records):
        if len(record["objects"]) != objects:
            problems.append(f"record {index}: {len(record['objects'])} objects, want {objects}")
        for item in record["objects"]:
            values = (*item["position"], item["heading"], item["width"], item["height"])
            if not all(math.isfinite(value) for value in values):
                problems.append(f"record {index}: non-finite object field")
                break
    return problems


class ServiceWorkload:
    """One closed-loop client against ``GenerationService`` worker processes.

    The client sends its next request when the previous one has returned
    and its records are read.  A second concurrent client was tried and
    dropped: small requests then queue behind 64-scene shards, and which
    requests overlap depends on the order, so the tail latency spread 26%
    and the median 13% over 5 seeds (one client: 12% and 5%).
    """

    kind = "service"
    tiers = ("easy", "medium")

    def __init__(self, name: str, workers: int, reference_requests_per_s: float):
        self.name = name
        self.workers = workers
        #: Requests per second on the reference machine; turns ``--seconds``
        #: into a request count.
        self.reference_requests_per_s = reference_requests_per_s
        self.programs: List[Program] = []

    def setup(self, root: Path, limit: Optional[int]) -> None:
        self.programs = load_programs(root, self.tiers, limit)
        random.Random(POPULARITY_SEED).shuffle(self.programs)  # index 0 = most popular
        # Worlds load inside the workers, with the first program that needs them.

    async def start(self):
        """Start the pool and send one warm-up request that reaches every worker."""
        from repro.service import GenerationService

        service = GenerationService(workers=self.workers)
        await service.start()
        await service.generate(WARMUP_SOURCE, n=max(1, self.workers), seed=0)
        return service

    def size(self, seconds: float) -> int:
        """Requests per timed window (the same for every seed)."""
        return max(1, round(seconds * self.reference_requests_per_s))

    def mix(self, total: int) -> List[Tuple[Program, int]]:
        """*total* (program, n) pairs in the Zipf x size proportions.

        Systematic sampling over the (popularity rank, size) cells gives every
        cell its expected count rounded up or down, so each window carries
        the same mix.  Independent draws per seed would not: the 64-scene
        requests of the few costly popular programs take a large share of
        the sampling time, and their count swung throughput between 60 and
        120 scenes/s over 5 seeds.
        """
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(self.programs))]
        scale = total / sum(weights)
        pairs, covered = [], 0.0
        for program, weight in zip(self.programs, weights):
            for n, share in zip(SERVICE_SIZES, SERVICE_SIZE_WEIGHTS):
                low, covered = covered, covered + weight * scale * share
                pairs.extend([(program, n)] * (math.ceil(covered - 0.5) - math.ceil(low - 0.5)))
        return pairs

    def plan(self, seed: int, total: int) -> List[Request]:
        """The mix in an order drawn from *seed*."""
        occurrences: Dict[Tuple[str, int], int] = {}
        requests = []
        for program, n in self.mix(total):
            occurrence = occurrences[program.id, n] = occurrences.get((program.id, n), -1) + 1
            requests.append((program, n, sampling_seed(f"{program.id}:{n}", occurrence)))
        rng = random.Random(f"{self.name}:{seed}")
        rng.shuffle(requests)
        requests = [Request(index, *request) for index, request in enumerate(requests)]
        # Replays run on one inline thread, so keep them to the cheaper sizes.
        cheap = [request for request in requests if request.n <= 16]
        for request in rng.sample(cheap, min(REPLAYED_REQUESTS, len(cheap))):
            request.replay = True
        return requests

    async def run(self, service, plan, tracer=None, plant: bool = False) -> RunResult:
        """Send the requests of *plan* in turn, each once.

        Unlike the in-process passes, requests are not repeated: engine
        caches warm over the window, so a repeat is a different operation.
        Splitting the window into three parts and taking medians over them
        was tried: the first part ran at 70% of the others' throughput and
        the median spread 13% over 5 seeds, against 3% for the whole window.
        """
        result = RunResult()
        for request in plan:
            result.probe.sample()  # between requests the workers are idle
            start = _perf()
            try:
                with _span(tracer, "service.request", request.id):
                    response = await service.generate(
                        request.program.source, n=request.n, seed=request.seed,
                        max_iterations=MAX_ITERATIONS, derive="splitmix",
                    )
                    records = response.scenes
            except Exception as exc:  # noqa: BLE001 - a failed operation, reported
                result.fail(request.id, start, f"request {request.id} "
                            f"({request.program.id}): {type(exc).__name__}: {exc}")
                continue
            latency = _perf() - start
            if plant:
                records[0]["objects"][0]["position"][0] = math.nan
                plant = False
            problems = _records_problems(records, request.n, request.program.objects)
            if problems:
                result.fail(request.id, start, f"request {request.id} ({request.program.id}): "
                            f"{problems[0]}")
                continue
            stats = response.stats
            result.succeed(request.id, start, latency, request.n)
            result.wall_s += latency
            result.candidates += stats["candidates"]
            result.iterations += stats["iterations"]
            result.add_rejections(stats["rejections"])
            result.sampling_s += stats["sampling_seconds"]
            result.shards += stats["shards"]
            result.worker_cache_hits += stats["worker_cache_hits"]
            result.worker_pids.update(stats["workers"])
            result.overheads_s.append(latency - stats["sampling_seconds"] / stats["shards"])
            if request.replay:
                result.replay.append((request, records))
        result.probe.sample()
        return result

    async def replay(self, result: RunResult) -> None:
        """Replay the kept requests inline; any record difference fails the request.

        This is the splitmix64 contract: a request's scenes depend only on
        its seed, never on the worker count or shard boundaries.
        """
        from repro.service import GenerationService

        async with GenerationService(workers=0) as inline:
            for request, records in result.replay:
                response = await inline.generate(
                    request.program.source, n=request.n, seed=request.seed,
                    max_iterations=MAX_ITERATIONS, derive="splitmix",
                )
                if response.scenes != records:
                    result.failed += 1
                    result.scenes -= request.n
                    result.failures.append(
                        f"request {request.id} ({request.program.id}): inline replay differs"
                    )


def worker_peak_rss_mb(pids) -> float:
    """Largest peak RSS (VmHWM) among live worker processes, in MiB."""
    peak = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    return peak


WORKLOADS = {
    "inproc-easy": lambda: InprocWorkload("inproc-easy", ("easy", "medium"), 4, 6.0),
    "inproc-hard": lambda: InprocWorkload("inproc-hard", ("hard",), 1, 6.0),
    "service-mixed": lambda: ServiceWorkload(
        "service-mixed", workers=min(2, os.cpu_count() or 1), reference_requests_per_s=7.3,
    ),
}
