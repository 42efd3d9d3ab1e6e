"""In-memory span tracing around the layer boundaries of ``repro``.

The benchmark measures the library as shipped, so nothing here edits
``src/``: a :class:`Tracer` rebinds public functions and methods to timing
wrappers for the length of a traced window and restores them afterwards.

Two kinds of span exist:

* *kept* spans (one per program, request, compile, ...) are stored whole --
  name, start, end, parent and request id -- and written to the trace file;
* hot boundaries (``concretize``, vector-field lookups, kernel calls, ...)
  run hundreds of times per candidate, so they are only aggregated: calls,
  inclusive time and self time per name.

A span's self time is its duration minus the time its child spans cover.
The current span lives in a :class:`contextvars.ContextVar`, so spans opened
inside asyncio tasks nest under the request that started them.  Boundaries
wrapped with ``outermost=True`` (recursive ones such as ``concretize`` or
``bind``) time only their outermost call per name and count the nested
ones; that depth counter is process-global, which is sound because those
boundaries only run in single-threaded in-process sampling.
"""

from __future__ import annotations

import contextvars
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

_perf = time.perf_counter

# Aggregate slots: [calls, inclusive seconds, self seconds, items, open depth].
CALLS, TOTAL, SELF, ITEMS, DEPTH = range(5)
# A frame of the current-span chain: [time covered by children, id of the
# nearest kept span, request id].


class Tracer:
    """Records spans in memory; see the module docstring."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self.spans: List[Dict[str, Any]] = []
        self.on = [False]  # a list cell, read by every wrapper closure
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------------

    def _slot(self, name: str) -> List[float]:
        slot = self.stats.get(name)
        if slot is None:
            slot = self.stats[name] = [0, 0.0, 0.0, 0, 0]
        return slot

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None) -> Iterator[None]:
        """A kept span around a call site in the benchmark itself."""
        if not self.on[0]:
            yield
            return
        slot = self._slot(name)
        parent = self._current.get()
        if request_id is None and parent is not None:
            request_id = parent[2]
        span_id = len(self.spans)
        record = {"name": name, "parent": None if parent is None else parent[1],
                  "request_id": request_id}
        self.spans.append(record)
        frame = [0.0, span_id, request_id]
        token = self._current.set(frame)
        start = _perf()
        try:
            yield
        finally:
            end = _perf()
            self._current.reset(token)
            duration = end - start
            record["start"], record["end"] = start, end
            slot[CALLS] += 1
            slot[TOTAL] += duration
            slot[SELF] += duration - frame[0]
            if parent is not None:
                parent[0] += duration

    def wrapper(
        self,
        function: Callable,
        name: str,
        outermost: bool = False,
        items: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """A timing wrapper for *function*, aggregated under *name*."""
        slot = self._slot(name)
        current = self._current
        on = self.on

        def timed(*args, **kwargs):
            if not on[0]:
                return function(*args, **kwargs)
            slot[CALLS] += 1
            if items is not None:
                slot[ITEMS] += items(*args, **kwargs)
            if outermost and slot[DEPTH]:
                return function(*args, **kwargs)
            parent = current.get()
            frame = [0.0, None, None] if parent is None else [0.0, parent[1], parent[2]]
            token = current.set(frame)
            slot[DEPTH] += 1
            start = _perf()
            try:
                return function(*args, **kwargs)
            finally:
                duration = _perf() - start
                slot[DEPTH] -= 1
                current.reset(token)
                slot[TOTAL] += duration
                slot[SELF] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration

        return timed

    # -- installing wrappers -----------------------------------------------------

    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        """Rebind ``owner.attribute`` until :meth:`uninstall`."""
        had_own = attribute in vars(owner) if isinstance(owner, type) else (
            attribute in getattr(owner, "__dict__", {})
        )
        self._patches.append((owner, attribute, had_own, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def wrap_attribute(self, owner: Any, attribute: str, name: str, **options: Any) -> None:
        original = vars(owner)[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self.patch(owner, attribute, self.wrapper(original, name, **options))

    def wrap_aliases(self, function: Callable, name: str, skip_home: bool = False,
                     **options: Any) -> None:
        """Rebind every ``repro`` module-global alias of *function*.

        Call sites such as ``from ..core.distributions import concretize``
        hold their own binding, so wrapping only the defining module would
        miss them.  *skip_home* leaves the defining module's own binding
        alone, so that its internal recursion stays uncounted.
        """
        wrapped = self.wrapper(function, name, **options)
        for module_name, module in sorted(sys.modules.items()):
            if not module_name.startswith("repro"):
                continue
            if skip_home and module_name == function.__module__:
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self.patch(module, attribute, wrapped)

    def wrap_method_family(self, base: type, method: str, name: str, **options: Any) -> None:
        """Wrap *method* on *base* and every loaded subclass that defines its own."""
        pending, seen = [base], set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            if method in vars(klass) and callable(vars(klass)[method]):
                self.wrap_attribute(klass, method, name, **options)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        self.on[0] = False
        while self._patches:
            owner, attribute, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # -- reading -----------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, [0])[CALLS])

    def total(self, name: str) -> float:
        return float(self.stats.get(name, [0, 0.0])[TOTAL])

    def self_time(self, name: str) -> float:
        return float(self.stats.get(name, [0, 0.0, 0.0])[SELF])

    def items(self, name: str) -> int:
        return int(self.stats.get(name, [0, 0.0, 0.0, 0])[ITEMS])

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"calls": int(slot[CALLS]), "total_s": slot[TOTAL],
                   "self_s": slot[SELF], "items": int(slot[ITEMS])}
            for name, slot in sorted(self.stats.items())
        }


def _kernel_items(method: str) -> Callable[..., int]:
    """Object boxes (or points) one kernel call processes."""
    if method == "points_in_polygon":
        return lambda vertices, points, *rest, **kw: len(points)
    if method == "objects_contained":
        return lambda region, corners, *rest, **kw: int(corners.shape[0])
    if method == "batch_collision_free":
        return lambda corners, *rest, **kw: int(corners.shape[0] * corners.shape[1])
    return lambda corners, *rest, **kw: int(corners.shape[0])


KERNEL_METHODS = ("points_in_polygon", "objects_contained", "pairwise_collisions",
                  "batch_collision_free")

#: Boundaries the in-process workloads must reach; a zero count means a
#: wrapper missed a binding (or the layer stopped being called).  The scalar
#: geometry path (``geometry.scalar``) is traced but not expected: the
#: default ``vectorized`` strategy sends every containment and collision
#: check through the kernel.
INPROC_SPANS = (
    "program", "language.compile", "sampling.generate", "sampling.bind",
    "core.concretize", "core.vectorfield", "core.visibility",
    "core.user_requirements", "geometry.kernel",
)
SERVICE_SPANS = ("service.request", "service.take_block", "service.scenes")


def install_inproc(tracer: Tracer) -> None:
    """Wrap the sampling, core and geometry boundaries of in-process runs."""
    from repro.core import distributions, objects, regions, vectorfields
    from repro.geometry import backends
    from repro.sampling import strategies

    tracer.wrap_aliases(distributions.concretize, "core.concretize", skip_home=True,
                        outermost=True)
    tracer.wrap_aliases(strategies.all_required_visible, "core.visibility")
    tracer.wrap_aliases(strategies.check_user_requirements, "core.user_requirements")
    tracer.wrap_method_family(vectorfields.VectorField, "value_at", "core.vectorfield",
                              outermost=True)
    tracer.wrap_method_family(strategies.SamplingStrategy, "bind", "sampling.bind",
                              outermost=True)
    tracer.wrap_method_family(regions.Region, "contains_object", "geometry.scalar",
                              outermost=True)
    tracer.wrap_attribute(objects.Object, "intersects", "geometry.scalar", outermost=True)
    backend = backends.active_backend()
    for method in KERNEL_METHODS:
        tracer.patch(backend, method, tracer.wrapper(
            getattr(backend, method), "geometry.kernel", items=_kernel_items(method)))


def install_service(tracer: Tracer) -> None:
    """Wrap the coordinator-side materialisation boundaries of the service.

    They run a few times per request, so they are kept spans: each is stored
    under its request's span, with the request id.
    """
    from repro.service import protocol

    def kept(function: Callable, name: str) -> Callable:
        def call(*args, **kwargs):
            with tracer.span(name):
                return function(*args, **kwargs)

        return call

    take_block = vars(protocol.ShardOutcome)["take_block"]
    tracer.patch(protocol.ShardOutcome, "take_block", kept(take_block, "service.take_block"))
    scenes = vars(protocol.GenerateResponse)["scenes"]
    tracer.patch(protocol.GenerateResponse, "scenes",
                 property(kept(scenes.fget, "service.scenes"), scenes.fset))


def missing_spans(tracer: Tracer, expected) -> List[str]:
    """The coverage guard: expected boundaries that recorded zero calls."""
    return [name for name in expected if tracer.calls(name) == 0]
