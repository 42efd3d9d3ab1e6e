"""Seeded, grammar-driven generation of random Scenic programs.

The generator walks the same construct space as the AST of
:mod:`repro.language.ast_nodes`: class definitions with default-value
expressions (including ``self``-dependent ones), object instantiations with
random specifier combinations, the distribution constructors of Table 1,
``param`` / ``require`` / ``mutate`` statements, helper functions, and
concrete control flow (``if`` / ``for`` / ``while``).  Every program is a
pure function of its seed, so a fuzz campaign is reproducible from
``(master seed, index)`` alone.

Three modes are exposed:

* :func:`generate_program` — a well-formed program together with a
  *check plan*: ground-truth assertions the generator knows must hold of any
  accepted scene (used by the requirement re-check oracle).
* :func:`generate_invalid_program` — a program corrupted in one of many
  deliberate ways; compiling it must raise a :class:`~repro.core.errors.ScenicError`
  (never an ``IndexError`` / ``KeyError`` / ``RecursionError`` / ...).
* :func:`mutate_program` — perturbs an existing corpus program (line
  shuffling/duplication/deletion, numeric tweaks), for coverage beyond what
  the grammar walk reaches.

Design note on ``mutate``: mutation noise is applied to the *concrete*
objects after the joint sample is drawn, while ``require`` conditions
concretize the unmutated property distributions.  Planned re-checks compare
against concrete scene positions, so the generator never plans a check for
an object that may be mutated.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..worlds.profile import EgoSpec, FuzzProfile

# ---------------------------------------------------------------------------
# Generated-program containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlannedCheck:
    """A ground-truth assertion about any accepted scene of the program.

    ``object_index`` is the object's position in ``Scenario.objects``
    (creation order; the ego is object 0).  Bounds are in the engine's
    native units (metres / radians).
    """

    kind: str  # 'max_distance' | 'min_distance' | 'max_abs_rel_heading'
    object_index: int
    bound: float


@dataclass
class GeneratedProgram:
    seed: int
    source: str
    world: Optional[str]  # canonical registered world name | None (inline classes)
    checks: List[PlannedCheck] = field(default_factory=list)
    has_mutation: bool = False
    object_count: int = 0
    features: Tuple[str, ...] = ()

    def describe(self) -> str:
        world = self.world or "inline"
        return f"seed={self.seed} world={world} objects={self.object_count} features={','.join(self.features)}"


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    """A short, re-parseable literal for *value*."""
    rounded = round(float(value), 3)
    if rounded == int(rounded):
        return str(int(rounded))
    return repr(rounded)


_INLINE_CLASS_NAMES = ("Box", "Crate", "Drone", "Buoy", "Kiosk", "Totem")
_VAR_NAMES = ("a", "b", "gap", "wiggle", "spread", "shift", "k", "scale")

#: Tuning for inline (no-import) programs.  Registered worlds carry their
#: own :class:`FuzzProfile` (``worlds/<name>/profile.py``); inline programs
#: have an unbounded workspace, so they exercise specifiers and
#: distributions without feasibility pressure from workspace containment.
_INLINE_PROFILE = FuzzProfile(
    weight=5,
    magnitudes={
        "size": (0.6, 2.6),
        "by": (0.5, 6.0),
        "span": (-18.0, 18.0),
        "forward": (-18.0, 18.0),
        "beyond": (2.0, 8.0),
        "lateral": (-2.0, 2.0),
    },
    ego=EgoSpec(classes=()),  # inline egos use the generated classes
    class_bases=("Object",),
    object_pool=(),
    generous_distance=(60.0, 140.0),
)


class _ProgramBuilder:
    """Accumulates source lines plus the generator's ground-truth bookkeeping."""

    def __init__(
        self, seed: int, world: Optional[str], rng: random.Random, profile: FuzzProfile
    ):
        self.seed = seed
        self.world = world
        self.profile = profile
        self.rng = rng
        self.lines: List[str] = []
        self.object_vars: List[Tuple[str, int]] = []  # (variable, object index)
        self.scalar_vars: List[str] = []
        self.distribution_vars: List[str] = []
        self.heading_vars: List[str] = []
        self.classes: List[str] = []
        self.checks: List[PlannedCheck] = []
        self.features: List[str] = []
        self.object_count = 0
        self.has_mutation = False
        self.mutated_indices: set = set()

    def emit(self, line: str = "") -> None:
        self.lines.append(line)

    def feature(self, name: str) -> None:
        if name not in self.features:
            self.features.append(name)

    def new_object_index(self) -> int:
        index = self.object_count
        self.object_count += 1
        return index

    def source(self) -> str:
        return "\n".join(self.lines).rstrip() + "\n"


class ProgramGenerator:
    """Grammar walk over the Scenic construct space, seeded and world-aware."""

    #: Relative likelihood of inline mode; each registered world supplies
    #: its own weight through its :class:`FuzzProfile`.
    INLINE_WEIGHT = 5

    def generate(self, seed: int, world: Optional[str] = None) -> GeneratedProgram:
        """Generate one program; *world* pins the world (``"inline"``, a
        canonical registered name, or ``None`` for the weighted draw)."""
        from ..worlds.registry import fuzz_profiles

        rng = random.Random(seed)
        profiles = fuzz_profiles()
        if world is None:
            table = [("inline", self.INLINE_WEIGHT)]
            table.extend((name, profile.weight) for name, profile in profiles.items())
            world = self._pick_weighted(rng, table)
        if world == "inline":
            world_name: Optional[str] = None
            profile = _INLINE_PROFILE
        else:
            if world not in profiles:
                known = ", ".join(["inline", *profiles])
                raise ValueError(f"unknown fuzz world {world!r} (known: {known})")
            world_name = world
            profile = profiles[world]
        builder = _ProgramBuilder(seed, world_name, rng, profile)

        builder.emit(f"# fuzz-generated scenario (seed {seed})")
        if world_name is not None:
            builder.emit(f"import {world_name}")

        self._emit_helper_assignments(builder)
        self._emit_classes(builder)
        helper = self._emit_helper_function(builder)
        self._emit_ego(builder)
        self._emit_objects(builder, helper)
        self._emit_params(builder)
        self._emit_mutate(builder)
        self._emit_requires(builder)

        return GeneratedProgram(
            seed=seed,
            source=builder.source(),
            world=world_name,
            checks=builder.checks,
            has_mutation=builder.has_mutation,
            object_count=builder.object_count,
            features=tuple(builder.features),
        )

    # -- pieces -----------------------------------------------------------------

    @staticmethod
    def _pick_weighted(rng: random.Random, table) -> str:
        total = sum(weight for _, weight in table)
        roll = rng.uniform(0, total)
        for value, weight in table:
            roll -= weight
            if roll <= 0:
                return value
        return table[-1][0]

    # scalar / distribution expressions ----------------------------------------

    def _number(self, rng: random.Random, low: float, high: float) -> str:
        return _fmt(rng.uniform(low, high))

    def _range_expr(self, rng: random.Random, low: float, high: float) -> str:
        a = rng.uniform(low, high)
        b = rng.uniform(low, high)
        lo, hi = sorted((a, b))
        if hi - lo < 1e-3:
            hi = lo + 0.5
        if rng.random() < 0.5:
            return f"({_fmt(lo)}, {_fmt(hi)})"
        return f"Range({_fmt(lo)}, {_fmt(hi)})"

    def _scalar_expr(self, builder: _ProgramBuilder, low: float, high: float) -> str:
        """A possibly-random scalar expression with value roughly in [low, high]."""
        rng = builder.rng
        roll = rng.random()
        if roll < 0.35:
            return self._number(rng, low, high)
        if roll < 0.65:
            return self._range_expr(rng, low, high)
        if roll < 0.75:
            mid = (low + high) / 2
            spread = max((high - low) / 6, 0.05)
            builder.feature("Normal")
            return f"TruncatedNormal({_fmt(mid)}, {_fmt(spread)}, {_fmt(low)}, {_fmt(high)})"
        if roll < 0.85:
            values = ", ".join(self._number(rng, low, high) for _ in range(rng.randint(2, 4)))
            builder.feature("Uniform")
            return f"Uniform({values})"
        if roll < 0.92 and builder.distribution_vars:
            builder.feature("resample")
            return f"resample({rng.choice(builder.distribution_vars)})"
        # A small arithmetic combination.
        left = self._number(rng, low, high)
        right = self._number(rng, 0.1, 1.9)
        operator = rng.choice(("+", "*", "-"))
        return f"({left} {operator} {right})"

    def _vector_expr(self, builder: _ProgramBuilder, span: float) -> str:
        x = self._scalar_expr(builder, -span, span)
        y = self._scalar_expr(builder, -span, span)
        return f"{x} @ {y}"

    def _heading_expr(self, builder: _ProgramBuilder, limit_degrees: float = 180.0) -> str:
        rng = builder.rng
        roll = rng.random()
        small = min(limit_degrees, 40.0)
        if roll < 0.3 and builder.heading_vars:
            return rng.choice(builder.heading_vars)
        if roll < 0.6:
            a = rng.uniform(-small, 0)
            b = rng.uniform(0, small)
            return f"({_fmt(a)} deg, {_fmt(b)} deg)"
        if roll < 0.8:
            return f"{_fmt(rng.uniform(-limit_degrees, limit_degrees))} deg"
        if builder.profile.orientation_field is not None:
            builder.feature("relative to")
            inner = f"({_fmt(rng.uniform(-20, 0))} deg, {_fmt(rng.uniform(0, 20))} deg)"
            return f"{inner} relative to {builder.profile.orientation_field}"
        return f"({_fmt(rng.uniform(0, 2 * limit_degrees))}) deg"

    # statement emitters ---------------------------------------------------------

    def _emit_helper_assignments(self, builder: _ProgramBuilder) -> None:
        rng = builder.rng
        for _ in range(rng.randint(0, 2)):
            name = rng.choice([v for v in _VAR_NAMES if v not in builder.scalar_vars] or ["extra"])
            roll = rng.random()
            if roll < 0.4:
                angle = rng.uniform(3, 25)
                builder.emit(f"{name} = (-{_fmt(angle)} deg, {_fmt(angle)} deg)")
                builder.heading_vars.append(name)
                builder.distribution_vars.append(name)
                builder.feature("deg")
            elif roll < 0.7:
                builder.emit(f"{name} = {self._range_expr(rng, 1, 6)}")
                builder.distribution_vars.append(name)
            else:
                builder.emit(f"{name} = {self._number(rng, 1, 5)}")
                builder.scalar_vars.append(name)

    def _emit_classes(self, builder: _ProgramBuilder) -> None:
        rng = builder.rng
        if builder.world is None:
            count = rng.randint(1, 2)
            bases = ["Object"]
        elif rng.random() < 0.45 and builder.profile.class_bases:
            count = 1
            bases = list(builder.profile.class_bases)
        else:
            return
        for _ in range(count):
            available = [n for n in _INLINE_CLASS_NAMES if n not in builder.classes]
            if not available:
                break
            name = rng.choice(available)
            base = rng.choice(bases + builder.classes)
            size_low, size_high = builder.profile.magnitudes["size"]
            builder.emit(f"class {name}({base}):")
            body_lines = 0
            if builder.world is None or rng.random() < 0.5:
                builder.emit(f"    width: {self._range_expr(rng, size_low, size_high)}")
                builder.emit(f"    height: {self._range_expr(rng, size_low, size_high * 1.2)}")
                body_lines += 2
            if rng.random() < 0.4:
                builder.emit("    halfWidth: self.width / 2")
                builder.feature("self-default")
                body_lines += 1
            if rng.random() < 0.3:
                builder.emit(f"    shade: Uniform('red', 'green', 'blue')")
                body_lines += 1
            if body_lines == 0:
                builder.emit("    pass")
            builder.classes.append(name)
            builder.feature("class")
            # Nested subclassing: a class deriving from a just-defined class.
            if builder.world is None and rng.random() < 0.35 and len(builder.classes) < 3:
                sub = rng.choice([n for n in _INLINE_CLASS_NAMES if n not in builder.classes])
                builder.emit(f"class {sub}({name}):")
                builder.emit(f"    height: {self._range_expr(rng, size_low, size_high * 0.7)}")
                builder.classes.append(sub)
                builder.feature("nested-class")

    def _object_class(self, builder: _ProgramBuilder) -> str:
        rng = builder.rng
        if builder.world is None:
            return rng.choice(builder.classes)
        return rng.choice(list(builder.profile.object_pool) + builder.classes)

    def _emit_helper_function(self, builder: _ProgramBuilder) -> Optional[str]:
        rng = builder.rng
        if rng.random() > 0.35:
            return None
        cls = self._object_class(builder)
        by_low, by_high = builder.profile.magnitudes["by"]
        gap_default = self._number(rng, (by_low + by_high) / 2, by_high)
        direction = rng.choice(("ahead of", "behind", "left of", "right of"))
        relax = ", with requireVisible False" if builder.profile.relax_visibility else ""
        builder.emit(f"def placeNear(anchor, gap={gap_default}):")
        builder.emit(f"    return {cls} {direction} anchor by gap{relax}")
        builder.feature("def")
        builder.feature(direction)
        return cls

    def _emit_ego(self, builder: _ProgramBuilder) -> None:
        rng = builder.rng
        index = builder.new_object_index()
        if builder.world is None:
            cls = rng.choice(builder.classes)
            heading = ""
            if rng.random() < 0.5:
                heading = f", facing {self._heading_expr(builder)}"
                builder.feature("facing")
            builder.emit(f"ego = {cls} at 0 @ 0{heading}")
        else:
            ego_spec = builder.profile.ego
            cls = rng.choice(ego_spec.classes)
            specifiers: List[str] = []
            if ego_spec.placement is not None:
                (x_low, x_high), (y_low, y_high) = ego_spec.placement
                specifiers.append(
                    f"at {self._number(rng, x_low, x_high)} @ {self._number(rng, y_low, y_high)}"
                )
            if ego_spec.visible_distance is not None and rng.random() < 0.5:
                specifiers.append(f"with visibleDistance {_fmt(ego_spec.visible_distance)}")
                builder.feature("with")
            elif (
                ego_spec.allow_deviation
                and builder.profile.deviation_property is not None
                and rng.random() < 0.5
                and builder.heading_vars
            ):
                specifiers.append(
                    f"with {builder.profile.deviation_property} {rng.choice(builder.heading_vars)}"
                )
                builder.feature("with")
            suffix = f" {', '.join(specifiers)}" if specifiers else ""
            builder.emit(f"ego = {cls}{suffix}")
        builder.object_vars.append(("ego", index))

    # -- object placement --------------------------------------------------------

    def _position_specifier(self, builder: _ProgramBuilder) -> Tuple[str, str]:
        """Returns (specifier source, feature label)."""
        rng = builder.rng
        ref = rng.choice(builder.object_vars)[0]
        tuning = builder.profile.magnitudes
        span = tuning["span"]
        forward = tuning["forward"]
        choices = ["at", "offset by", "left of", "right of", "ahead of", "behind", "beyond"]
        choices += [f"on {region}" for region in builder.profile.on_regions]
        if builder.profile.supports_visible:
            choices.append("visible")
        if builder.profile.orientation_field is not None:
            choices.append("following")
        kind = rng.choice(choices)
        if kind == "at":
            if builder.profile.avoid_absolute:
                # Absolute placement is feasibility-hostile in workspaces
                # that are mostly illegal region (road map, racked floor);
                # place relative to the ego instead.
                kind = "offset by"
            else:
                x = self._scalar_expr(builder, *span)
                y = self._scalar_expr(builder, *span)
                return f"at {x} @ {y}", "at"
        if kind == "offset by":
            x = self._scalar_expr(builder, *span)
            y = self._scalar_expr(builder, *forward) if builder.world else self._scalar_expr(builder, *span)
            return f"offset by {x} @ {y}", "offset by"
        if kind in ("left of", "right of", "ahead of", "behind"):
            # Always keep a strictly positive gap: ``by 0`` (the default)
            # makes two *objects* touch exactly, an ill-conditioned
            # configuration where scalar and vectorized geometry may
            # legitimately disagree within 1 ulp (see docs/fuzzing.md).
            return f"{kind} {ref} by {self._scalar_expr(builder, *tuning['by'])}", kind
        if kind == "beyond":
            vec = (
                f"{self._scalar_expr(builder, *tuning['lateral'])} @ "
                f"{self._scalar_expr(builder, *tuning['beyond'])}"
            )
            suffix = ""
            if rng.random() < 0.3 and ref != "ego":
                suffix = " from ego"
            return f"beyond {ref} by {vec}{suffix}", "beyond"
        if kind.startswith("on "):
            return kind, "on"
        if kind == "visible":
            return "visible", "visible"
        if kind == "following":
            distance = self._scalar_expr(builder, *builder.profile.following_distance)
            return f"following {builder.profile.orientation_field} for {distance}", "following"
        raise AssertionError(kind)

    def _heading_specifier(self, builder: _ProgramBuilder) -> Tuple[str, str]:
        rng = builder.rng
        roll = rng.random()
        if builder.profile.deviation_property is not None and roll < 0.35:
            return (
                f"with {builder.profile.deviation_property} "
                f"{self._heading_expr(builder, limit_degrees=30)}",
                "with",
            )
        if roll < 0.55:
            return f"facing {self._heading_expr(builder)}", "facing"
        if roll < 0.7:
            return f"facing toward {self._vector_expr(builder, 10)}", "facing toward"
        if roll < 0.85:
            return f"facing away from {self._vector_expr(builder, 10)}", "facing away from"
        return f"apparently facing {self._heading_expr(builder)}", "apparently facing"

    def _with_specifier(
        self, builder: _ProgramBuilder, used_properties: set
    ) -> Optional[Tuple[str, str, str]]:
        """Returns (specifier source, feature label, property name)."""
        rng = builder.rng
        options = [name for name in ("width", "height", "allowCollisions", "requireVisible", "cargo")
                   if name not in used_properties]
        if not options:
            return None
        prop = rng.choice(options)
        size_low, size_high = builder.profile.magnitudes["size"]
        if prop == "width":
            return f"with width {self._range_expr(rng, size_low, size_high)}", "with", prop
        if prop == "height":
            return f"with height {self._range_expr(rng, size_low, size_high * 1.3)}", "with", prop
        if prop == "allowCollisions":
            return "with allowCollisions True", "allowCollisions", prop
        if prop == "requireVisible":
            return "with requireVisible False", "with", prop
        builder.feature("Discrete")
        return "with cargo Discrete({1: 2, 2: 1})", "with", prop

    def _object_creation(self, builder: _ProgramBuilder, *, named: bool) -> str:
        rng = builder.rng
        cls = self._object_class(builder)
        specifiers: List[str] = []
        used_properties: set = set()
        position, feature = self._position_specifier(builder)
        specifiers.append(position)
        builder.feature(feature)
        if (
            builder.profile.relax_visibility
            and feature not in ("visible", "ahead of")
            and rng.random() < builder.profile.relax_probability
        ):
            # The ego's view cone plus the default requireVisible makes
            # placements beside/behind the ego near-infeasible without
            # lifting it.  Keep a fraction visibility-constrained (like the
            # paper's examples), relax the rest.
            specifiers.append("with requireVisible False")
            used_properties.add("requireVisible")
        if rng.random() < 0.55:
            heading, feature = self._heading_specifier(builder)
            specifiers.append(heading)
            builder.feature(feature)
            deviation_property = builder.profile.deviation_property
            if deviation_property is not None and heading.startswith(f"with {deviation_property}"):
                used_properties.add(deviation_property)
        for _ in range(rng.randint(0, 2)):
            choice = self._with_specifier(builder, used_properties)
            if choice is None:
                continue
            with_spec, feature, prop = choice
            specifiers.append(with_spec)
            used_properties.add(prop)
            builder.feature(feature)
        return f"{cls} {', '.join(specifiers)}"

    def _emit_objects(self, builder: _ProgramBuilder, helper: Optional[str]) -> None:
        rng = builder.rng
        budget = rng.randint(1, 4)
        while budget > 0:
            roll = rng.random()
            if roll < 0.12 and helper is not None:
                index = builder.new_object_index()
                var = f"obj{index}"
                anchor = rng.choice(builder.object_vars)[0]
                by_low, by_high = builder.profile.magnitudes["by"]
                if rng.random() < 0.5:
                    builder.emit(f"{var} = placeNear({anchor})")
                else:
                    builder.emit(
                        f"{var} = placeNear({anchor}, gap={self._number(rng, (by_low + by_high) / 2, by_high)})"
                    )
                builder.object_vars.append((var, index))
                budget -= 1
                continue
            if roll < 0.24 and budget >= 2:
                count = rng.randint(2, min(3, budget))
                unit = builder.profile.unit
                spacing = self._number(rng, 3 * unit, 6 * unit)
                base = self._number(rng, 4 * unit, 9 * unit)
                cls = self._object_class(builder)
                relax = ", with requireVisible False" if builder.profile.relax_visibility else ""
                builder.emit(f"for i in range({count}):")
                builder.emit(
                    f"    {cls} offset by (i * {spacing} - {base}) @ "
                    f"({base}, {_fmt(float(base) + 8 * unit)}){relax}"
                )
                for _ in range(count):
                    builder.new_object_index()
                builder.feature("for")
                budget -= count
                continue
            if roll < 0.32:
                threshold = rng.randint(1, 4)
                pivot = rng.randint(1, 4)
                index = builder.new_object_index()
                builder.emit(f"if {pivot} >= {threshold}:")
                builder.emit(f"    {self._object_creation(builder, named=False)}")
                builder.emit("else:")
                builder.emit(f"    {self._object_creation(builder, named=False)}")
                builder.feature("if")
                budget -= 1
                continue
            if roll < 0.38 and budget >= 2:
                count = 2
                cls = self._object_class(builder)
                unit = builder.profile.unit
                relax = ", with requireVisible False" if builder.profile.relax_visibility else ""
                builder.emit("j = 0")
                builder.emit(f"while j < {count}:")
                builder.emit(
                    f"    {cls} left of ego by {self._number(rng, 2 * unit, 4 * unit)} + j * {_fmt(3 * unit)}{relax}"
                )
                builder.emit("    j = j + 1")
                for _ in range(count):
                    builder.new_object_index()
                builder.feature("while")
                budget -= count
                continue
            index = builder.new_object_index()
            creation = self._object_creation(builder, named=True)
            if rng.random() < 0.7:
                var = f"obj{index}"
                builder.emit(f"{var} = {creation}")
                builder.object_vars.append((var, index))
            else:
                builder.emit(creation)
            budget -= 1

    def _emit_params(self, builder: _ProgramBuilder) -> None:
        rng = builder.rng
        for _ in range(rng.randint(0, 2)):
            roll = rng.random()
            if roll < 0.3:
                builder.emit("param weather = Uniform('RAIN', 'CLEAR', 'SNOW')")
            elif roll < 0.6:
                builder.emit(f"param time = {self._range_expr(rng, 0, 24)} * 60")
            elif roll < 0.8:
                builder.emit(f"param quality = {self._range_expr(rng, 0, 1)}")
            else:
                builder.emit("param label = 'fuzz'")
            builder.feature("param")

    def _emit_mutate(self, builder: _ProgramBuilder) -> None:
        rng = builder.rng
        if rng.random() > 0.2:
            return
        named = [entry for entry in builder.object_vars if entry[0] != "ego"]
        if named and rng.random() < 0.6:
            var, index = rng.choice(named)
            scale = _fmt(rng.uniform(0.1, 0.8))
            builder.emit(f"mutate {var} by {scale}")
            builder.mutated_indices.add(index)
        else:
            builder.emit("mutate")
            builder.mutated_indices.update(index for _, index in builder.object_vars)
            builder.mutated_indices.update(range(builder.object_count))
        builder.has_mutation = True
        builder.feature("mutate")

    def _emit_requires(self, builder: _ProgramBuilder) -> None:
        rng = builder.rng
        named = [entry for entry in builder.object_vars if entry[0] != "ego"]
        if not named:
            return
        generous_distance = builder.profile.generous_distance
        for _ in range(rng.randint(0, 2)):
            var, index = rng.choice(named)
            plannable = index not in builder.mutated_indices and 0 not in builder.mutated_indices
            soft = rng.random() < 0.12
            prefix = "require"
            if soft:
                probability = _fmt(rng.uniform(0.3, 0.9))
                prefix = f"require[{probability}]"
                builder.feature("soft-require")
            roll = rng.random()
            if roll < 0.55:
                bound = rng.uniform(*generous_distance)
                builder.emit(f"{prefix} (distance to {var}) <= {_fmt(bound)}")
                if plannable and not soft:
                    builder.checks.append(PlannedCheck("max_distance", index, float(_fmt(bound))))
            elif roll < 0.8:
                bound = rng.uniform(0.5, 2.5) * builder.profile.min_distance_scale
                builder.emit(f"{prefix} (distance to {var}) >= {_fmt(bound)}")
                if plannable and not soft:
                    builder.checks.append(PlannedCheck("min_distance", index, float(_fmt(bound))))
            else:
                degrees = rng.uniform(90, 180)
                builder.emit(f"{prefix} abs(relative heading of {var}) <= {_fmt(degrees)} deg")
                if plannable and not soft:
                    builder.checks.append(
                        PlannedCheck("max_abs_rel_heading", index, math.radians(float(_fmt(degrees))))
                    )
            builder.feature("require")


# ---------------------------------------------------------------------------
# Invalid-program generation
# ---------------------------------------------------------------------------

#: Hand-written programs hitting specific error paths; each must raise a
#: ScenicError when compiled (they are also the seeds of the regression
#: corpus for the error-path hardening work).
_INVALID_TEMPLATES: Sequence[str] = (
    "x = (1 + 2\n",  # unclosed bracket
    "x = 'unterminated\n",
    "x = 1 ? 2\n",  # unexpected character
    "ego = Object at 0 @ 0\n    y = 2\n",  # unexpected indent
    "require\n",  # missing expression
    "Object sideways of ego\n",  # unknown specifier
    "x = undefinedName + 1\n",
    "x = 1 + 'a'\n",  # type error in concrete arithmetic
    "x = 1 / 0\n",
    "x = [1, 2][10]\n",
    "x = {1: 2}[3]\n",
    "import noSuchWorld\n",
    "break\n",  # break outside a loop
    "continue\n",
    "return 5\n",
    "def f():\n    return f()\nx = f()\n",  # unbounded recursion
    "x = " + "(" * 400 + "1" + ")" * 400 + "\n",  # deep expression nesting
    "x = " + "-" * 400 + "1\n",
    "x = " + "not " * 400 + "True\n",
    "class C(NotAClass):\n    pass\nego = C at 0 @ 0\n",
    "x = int('zzz')\n",  # ValueError from a builtin call
    "x = 5\nx.y = 3\n",  # attribute store on a number
    "x = [1]\nx['a'] = 2\n",  # bad subscript store
    "mutate 5\n",
    "for i in (0, 1):\n    pass\n",  # random loop iterable
    "param p = q\n",
)


def generate_invalid_program(seed: int) -> str:
    """A program expected to fail compilation with a ScenicError.

    Half the time a hand-written template is used; otherwise a valid
    generated program is corrupted at a random location (character
    deletion/insertion, line truncation, keyword damage), which explores
    error paths the templates do not reach.
    """
    rng = random.Random(seed)
    if rng.random() < 0.5:
        return rng.choice(_INVALID_TEMPLATES)
    base = ProgramGenerator().generate(rng.getrandbits(32)).source
    return _corrupt(base, rng)


def _corrupt(source: str, rng: random.Random) -> str:
    lines = source.splitlines()
    attack = rng.randrange(6)
    if attack == 0 and source:
        position = rng.randrange(len(source))
        return source[:position] + source[position + 1:]
    if attack == 1:
        position = rng.randrange(len(source) + 1)
        junk = rng.choice("?$!;`~\\([{'\"")
        return source[:position] + junk + source[position:]
    if attack == 2 and lines:
        index = rng.randrange(len(lines))
        line = lines[index]
        lines[index] = line[: rng.randrange(len(line) + 1)]
        return "\n".join(lines) + "\n"
    if attack == 3 and lines:
        index = rng.randrange(len(lines))
        lines[index] = "        " + lines[index]
        return "\n".join(lines) + "\n"
    if attack == 4:
        for keyword in ("require", "class", "def", "facing", "with", "param"):
            if keyword in source:
                return source.replace(keyword, keyword[:-1], 1)
        return source + "x = $\n"
    return source + rng.choice(_INVALID_TEMPLATES)


# ---------------------------------------------------------------------------
# Corpus mutation mode
# ---------------------------------------------------------------------------


def mutate_program(source: str, seed: int) -> str:
    """Perturb an existing (typically corpus) program.

    Mutations are conservative enough that many outputs still compile —
    those run through the full oracle set — while the rest must fail with a
    proper ScenicError, exercising the front end's error paths on realistic
    near-miss programs.
    """
    rng = random.Random(seed)
    lines = source.splitlines()
    if not lines:
        return source
    for _ in range(rng.randint(1, 3)):
        attack = rng.randrange(5)
        if attack == 0:  # duplicate an object-like line
            candidates = [
                line
                for line in lines
                if line and not line.startswith(("#", "import", "class", "def", " "))
            ]
            if candidates:
                lines.append(rng.choice(candidates))
        elif attack == 1 and len(lines) > 2:  # delete a non-structural line
            index = rng.randrange(1, len(lines))
            if not lines[index].startswith(("import", "ego")):
                del lines[index]
        elif attack == 2:  # tweak a number
            index = rng.randrange(len(lines))
            lines[index] = _tweak_numbers(lines[index], rng)
        elif attack == 3:  # widen/narrow a distribution by appending arithmetic
            index = rng.randrange(len(lines))
            if "(" in lines[index] and "=" in lines[index] and not lines[index].lstrip().startswith("#"):
                lines[index] = lines[index] + " "  # whitespace-only (keeps it compiling)
        else:  # swap two lines
            if len(lines) > 3:
                i = rng.randrange(1, len(lines))
                j = rng.randrange(1, len(lines))
                lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


def _tweak_numbers(line: str, rng: random.Random) -> str:
    out: List[str] = []
    index = 0
    while index < len(line):
        character = line[index]
        if character.isdigit():
            end = index
            while end < len(line) and (line[end].isdigit() or line[end] == "."):
                end += 1
            try:
                value = float(line[index:end])
                value *= rng.choice((0.5, 0.9, 1.1, 2.0))
                out.append(_fmt(value))
            except ValueError:
                out.append(line[index:end])
            index = end
        else:
            out.append(character)
            index += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------

_DEFAULT_GENERATOR = ProgramGenerator()


def generate_program(seed: int, world: Optional[str] = None) -> GeneratedProgram:
    """Generate one well-formed program (a pure function of *seed*).

    *world* pins the world mode: ``"inline"`` or a canonical registered
    world name skips the weighted draw (the ``--world`` campaign flag);
    ``None`` keeps the default world mix.
    """
    return _DEFAULT_GENERATOR.generate(seed, world=world)


__all__ = [
    "PlannedCheck",
    "GeneratedProgram",
    "ProgramGenerator",
    "generate_program",
    "generate_invalid_program",
    "mutate_program",
]
