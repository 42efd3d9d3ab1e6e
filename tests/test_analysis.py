"""Unit tests for the static requirement analyzer (src/repro/analysis/).

Three layers under test:

* circular-interval arithmetic — in particular the ±π branch-cut pins of
  the bugfix sweep (wrap-straddling intervals must not collapse to empty
  or full circles);
* ``analyze_program`` — what bounds the analyzer derives from specifiers
  and requirements, and when it (soundly) refuses to map;
* the artifact integration — bounds cached on ``CompiledScenario``,
  shipped through pickling, consumed automatically by ``prune_scenario``.
"""

import math

import pytest

from repro.analysis import CircularInterval, Interval, PruneBounds, analyze_program
from repro.analysis.bounds import HeadingConstraint, ObjectBounds
from repro.core.errors import InfeasibleScenarioError
from repro.core.pruning import bounds_for_scenario, prune_scenario
from repro.language import compile_scenario
from repro.sampling import STRATEGIES

DEG = math.pi / 180.0


def bounds_of(source: str) -> PruneBounds:
    artifact = compile_scenario(source, cache=None)
    return artifact.prune_bounds()


# ---------------------------------------------------------------------------
# Interval arithmetic
# ---------------------------------------------------------------------------


class TestInterval:
    def test_basic_arithmetic(self):
        a = Interval(-2.0, 3.0)
        b = Interval(1.0, 4.0)
        assert (a + b) == Interval(-1.0, 7.0)
        assert (a - b) == Interval(-6.0, 2.0)
        assert (-a) == Interval(-3.0, 2.0)
        assert (a * b) == Interval(-8.0, 12.0)
        assert a.abs() == Interval(0.0, 3.0)
        assert Interval(-5.0, -1.0).abs() == Interval(1.0, 5.0)

    def test_magnitudes(self):
        assert Interval(-2.0, 3.0).magnitude == 3.0
        assert Interval(-2.0, 3.0).min_magnitude == 0.0
        assert Interval(2.0, 3.0).min_magnitude == 2.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_division_by_zero_straddling_divisor(self):
        assert Interval(1.0, 2.0).divided_by(Interval(-1.0, 1.0)) is None
        assert Interval(2.0, 4.0).divided_by(Interval(2.0, 2.0)) == Interval(1.0, 2.0)


class TestCircularInterval:
    """The ±π branch-cut pins (bugfix satellite)."""

    def test_wrap_straddling_unnormalized_endpoints(self):
        # (170°, 190°): a 20°-wide arc through π — not its 340° complement.
        arc = CircularInterval.from_sweep(170 * DEG, 190 * DEG)
        assert arc.half_width == pytest.approx(10 * DEG)
        assert abs(arc.center) == pytest.approx(math.pi)
        assert arc.contains(math.pi)
        assert arc.contains(-175 * DEG)
        assert arc.contains(175 * DEG)
        assert not arc.contains(0.0)
        assert not arc.contains(90 * DEG)

    def test_wrap_straddling_normalized_endpoints(self):
        # The same arc written with normalized endpoints (170°, -170°) must
        # not collapse: the naive midpoint (0°) is exactly wrong.
        arc = CircularInterval.from_sweep(170 * DEG, -170 * DEG)
        assert arc.half_width == pytest.approx(10 * DEG)
        assert arc.contains(math.pi)
        assert not arc.contains(0.0)

    def test_plain_arc(self):
        arc = CircularInterval.from_sweep(-0.1, 0.1)
        assert arc.center == pytest.approx(0.0)
        assert arc.contains(0.05) and not arc.contains(0.2)

    def test_full_circle(self):
        assert CircularInterval.from_sweep(0.0, 2 * math.pi).is_full
        assert CircularInterval.full().contains(1.234)

    def test_degenerate_point_arc(self):
        arc = CircularInterval.from_sweep(0.3, 0.3)
        assert arc.half_width == 0.0
        assert arc.contains(0.3) and not arc.contains(0.31)

    def test_intersection_of_one_sided_arcs(self):
        # rh >= 60° (arc [60°, 180°]) ∧ rh <= 120° (arc [-180°, 120°])
        # must give [60°, 120°] — the far-side touching point at ±180 must
        # not make the intersection balloon back to a one-sided arc.
        ge = CircularInterval.from_sweep(60 * DEG, math.pi)
        le = CircularInterval.from_sweep(-math.pi, 120 * DEG)
        arc = ge.intersect(le)
        assert arc.center == pytest.approx(90 * DEG)
        assert arc.half_width == pytest.approx(30 * DEG)

    def test_intersection_disjoint_is_none(self):
        near_zero = CircularInterval.from_sweep(-10 * DEG, 10 * DEG)
        oncoming = CircularInterval.from_sweep(150 * DEG, 210 * DEG)
        assert near_zero.intersect(oncoming) is None

    def test_intersection_nested(self):
        outer = CircularInterval.from_sweep(160 * DEG, 220 * DEG)  # through pi
        inner = CircularInterval.from_sweep(175 * DEG, 185 * DEG)
        assert outer.intersect(inner) == inner
        assert inner.intersect(outer) == inner

    def test_intersection_overlap_through_branch_cut(self):
        a = CircularInterval.from_sweep(150 * DEG, 200 * DEG)
        b = CircularInterval.from_sweep(170 * DEG, 240 * DEG)
        arc = a.intersect(b)
        assert arc.contains(math.pi) and arc.contains(190 * DEG)
        assert not arc.contains(145 * DEG)
        assert not arc.contains(245 * DEG - 2 * math.pi)

    def test_negated_and_shifted(self):
        arc = CircularInterval.from_sweep(60 * DEG, 120 * DEG)
        mirrored = arc.negated()
        assert mirrored.contains(-90 * DEG) and not mirrored.contains(90 * DEG)
        assert arc.shifted(math.pi).contains(-90 * DEG)
        assert arc.widened(10 * DEG).contains(125 * DEG)


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------


class TestAnalyzer:
    def test_visibility_gives_distance_bounds(self):
        bounds = bounds_of("import gtaLib\nego = EgoCar\nCar\n")
        assert bounds.mapped
        car = bounds.for_object(1)
        # requireVisible: ego's 30 m view distance plus the largest model's
        # corner radius.
        assert car.max_distance == pytest.approx(30.0 + math.hypot(2.55, 11.0) / 2.0)
        assert car.min_radius == pytest.approx(1.80 / 2.0)

    def test_class_shadowing_its_base_chains_to_the_earlier_binding(self):
        # ``class Crate(Crate):`` extends the world's Crate, as in the
        # interpreter; a second redefinition extends the first one.
        bounds = bounds_of(
            "import warehouse\n"
            "class Crate(Crate):\n    width: 0.8\n"
            "ego = Robot on aisle\n"
            "Crate on aisle, with requireVisible False\n"
            "class Crate(Crate):\n    height: 1.0\n"
            "Crate on aisle, with requireVisible False\n"
        )
        assert bounds.mapped
        # The world Crate is 0.35-0.6 on each side.
        assert bounds.for_object(1).min_radius == pytest.approx(0.35 / 2.0)
        assert bounds.for_object(2).min_radius == pytest.approx(0.8 / 2.0)

    def test_distance_requirement_tightens_bound(self):
        bounds = bounds_of(
            "import gtaLib\nego = EgoCar\nc = Car\nrequire (distance to c) <= 12\n"
        )
        assert bounds.for_object(1).max_distance == pytest.approx(12.0)

    def test_relative_heading_arc_both_directions(self):
        bounds = bounds_of(
            "import gtaLib\n"
            "ego = EgoCar\n"
            "c = Car\n"
            "require (relative heading of c) >= 60 deg\n"
            "require (relative heading of c) <= 120 deg\n"
        )
        ego_constraint = bounds.for_object(0).heading_constraints[0]
        car_constraint = bounds.for_object(1).heading_constraints[0]
        assert ego_constraint.partner == 1
        assert ego_constraint.center == pytest.approx(90 * DEG)
        assert ego_constraint.half_width == pytest.approx(30 * DEG)
        # For the partner the arc is mirrored (heading(ego) - heading(c)).
        assert car_constraint.center == pytest.approx(-90 * DEG)
        assert car_constraint.half_width == pytest.approx(30 * DEG)

    def test_abs_relative_heading_oncoming_arc(self):
        bounds = bounds_of(
            "import gtaLib\nego = EgoCar\nc = Car\n"
            "require abs(relative heading of c) >= 150 deg\n"
        )
        constraint = bounds.for_object(0).heading_constraints[0]
        assert abs(constraint.center) == pytest.approx(math.pi)
        assert constraint.half_width == pytest.approx(30 * DEG)

    def test_oncoming_pattern_from_offset_and_can_see(self):
        bounds = bounds_of(
            "import gtaLib\n"
            "ego = Car\n"
            "car2 = Car offset by (-10, 10) @ (20, 40), with viewAngle 30 deg\n"
            "require car2 can see ego\n"
        )
        constraint = bounds.for_object(0).heading_constraints[0]
        corner = math.hypot(2.55, 11.0) / 2.0
        expected_half = math.atan2(10, 20) + 15 * DEG + math.asin(corner / 20.0)
        assert abs(constraint.center) == pytest.approx(math.pi)
        assert constraint.half_width == pytest.approx(expected_half)
        assert constraint.max_distance == pytest.approx(30.0 + corner)

    def test_road_deviation_feeds_total_deviation(self):
        bounds = bounds_of(
            "import gtaLib\n"
            "ego = EgoCar with roadDeviation (-10 deg, 10 deg)\n"
            "c = Car with roadDeviation (-5 deg, 5 deg)\n"
            "require abs(relative heading of c) <= 20 deg\n"
        )
        constraint = bounds.for_object(0).heading_constraints[0]
        assert constraint.deviation == pytest.approx(15 * DEG)

    def test_soft_requirements_never_prune(self):
        bounds = bounds_of(
            "import gtaLib\nego = EgoCar\nc = Car\n"
            "require[0.5] (relative heading of c) >= 60 deg\n"
        )
        assert not bounds.has_orientation_constraints

    def test_facing_override_disables_field_alignment(self):
        bounds = bounds_of(
            "import gtaLib\nego = EgoCar\nc = Car facing 10 deg\n"
            "require (relative heading of c) >= 60 deg\n"
        )
        assert not bounds.has_orientation_constraints

    def test_facing_relative_to_field_keeps_alignment(self):
        bounds = bounds_of(
            "import gtaLib\nego = EgoCar\n"
            "c = Car facing (-5 deg, 5 deg) relative to roadDirection\n"
            "require abs(relative heading of c) >= 150 deg\n"
        )
        constraint = bounds.for_object(0).heading_constraints[0]
        assert constraint.deviation == pytest.approx(5 * DEG)

    def test_heading_cone_one_sided_box_reaches_near_zero_at_far_edge(self):
        # For a box entirely right of the centreline (x in [2,4], y in
        # [10,20]) the heading closest to 0 is attained at the *far* edge
        # (offset (2, 20)); using y.low for both endpoints under-covered
        # the cone and made the derived can-see arc unsound.
        from repro.analysis.analyzer import VecInterval

        cone = VecInterval(Interval(2.0, 4.0), Interval(10.0, 20.0)).heading_cone()
        assert cone.low == pytest.approx(math.atan2(-4.0, 10.0))
        assert cone.high == pytest.approx(math.atan2(-2.0, 20.0))
        # Every corner's heading lies inside the cone.
        for x in (2.0, 4.0):
            for y in (10.0, 20.0):
                assert cone.low - 1e-12 <= math.atan2(-x, y) <= cone.high + 1e-12
        mirrored = VecInterval(Interval(-4.0, -2.0), Interval(10.0, 20.0)).heading_cone()
        assert mirrored.low == pytest.approx(math.atan2(2.0, 20.0))
        assert mirrored.high == pytest.approx(math.atan2(4.0, 10.0))

    def test_oncoming_cone_is_sound_for_one_sided_offset_boxes(self):
        bounds = bounds_of(
            "import gtaLib\n"
            "ego = Car\n"
            "car2 = Car offset by (2, 4) @ (10, 20), with viewAngle 30 deg\n"
            "require car2 can see ego\n"
        )
        constraint = bounds.for_object(0).heading_constraints[0]
        corner = math.hypot(2.55, 11.0) / 2.0
        slack = 15 * DEG + math.asin(corner / math.hypot(2.0, 10.0))
        # The relative heading realized by a viewer at the box's far inner
        # corner (offset (2, 20)) facing straight back at the ego.
        realized = math.pi + math.atan2(-2.0, 20.0)
        from repro.analysis import CircularInterval

        arc = CircularInterval(constraint.center, constraint.half_width)
        assert arc.contains(realized, slack=1e-9)
        assert arc.contains(math.pi + math.atan2(-4.0, 10.0), slack=slack + 1e-9)

    def test_rebinding_under_control_flow_drops_the_object_binding(self):
        # After ``if 1 > 0: c = d`` the name c refers to object 2 at
        # runtime; the analyzer must not attribute the requirement to the
        # stale object 1 binding (that pruned an unconstrained object).
        bounds = bounds_of(
            "import gtaLib\n"
            "ego = EgoCar\n"
            "c = Car\n"
            "d = Car\n"
            "if 1 > 0:\n"
            "    c = d\n"
            "require (relative heading of c) >= 60 deg\n"
            "require (relative heading of c) <= 120 deg\n"
        )
        assert bounds.mapped
        assert not bounds.has_orientation_constraints

    def test_plain_reassignment_drops_the_object_binding(self):
        bounds = bounds_of(
            "import gtaLib\n"
            "ego = EgoCar\n"
            "c = Car\n"
            "c = 3\n"
            "require (relative heading of c) >= 60 deg\n"
            "require (relative heading of c) <= 120 deg\n"
        )
        assert not bounds.has_orientation_constraints

    def test_alias_assignment_keeps_the_binding(self):
        bounds = bounds_of(
            "import gtaLib\n"
            "ego = EgoCar\n"
            "c = Car\n"
            "other = c\n"
            "require (relative heading of other) >= 60 deg\n"
            "require (relative heading of other) <= 120 deg\n"
        )
        assert bounds.has_orientation_constraints
        assert bounds.for_object(1).heading_constraints[0].partner == 0

    def test_ego_rebinding_under_control_flow_bails(self):
        bounds = bounds_of(
            "import gtaLib\n"
            "ego = EgoCar\n"
            "c = Car\n"
            "if 1 > 0:\n"
            "    ego = c\n"
        )
        assert not bounds.mapped

    def test_dynamic_creation_bails_to_unmapped(self):
        from repro.experiments import scenarios

        bounds = bounds_of(scenarios.bumper_to_bumper())
        assert not bounds.mapped
        assert bounds.objects == ()
        assert any("mapping abandoned" in note for note in bounds.notes)

    def test_helper_oriented_points_are_not_objects(self):
        from repro.experiments import scenarios

        bounds = bounds_of(scenarios.badly_parked_car())
        assert bounds.mapped
        assert len(bounds.objects) == 2  # the spot OrientedPoint is skipped

    def test_unknown_model_drops_dimension_knowledge(self):
        bounds = bounds_of(
            "import gtaLib\nego = EgoCar\ntable = CarModel.models\n"
            "Car with model table['BUS']\n"
        )
        assert bounds.for_object(1).min_radius == 0.0

    def test_named_model_gives_exact_dimensions(self):
        bounds = bounds_of(
            "import gtaLib\nego = EgoCar\nCar with model CarModel.models['BUS']\n"
        )
        assert bounds.for_object(1).min_radius == pytest.approx(2.55 / 2.0)

    def test_containment_only_strips_orientation_and_size(self):
        bounds = bounds_of(
            "import gtaLib\nego = EgoCar\nc = Car\n"
            "require (relative heading of c) >= 60 deg\n"
            "require (relative heading of c) <= 120 deg\n"
        )
        stripped = bounds.containment_only()
        assert bounds.has_orientation_constraints
        assert not stripped.has_orientation_constraints
        assert stripped.for_object(1).min_radius == bounds.for_object(1).min_radius
        assert stripped.for_object(1).min_configuration_width is None


# ---------------------------------------------------------------------------
# Artifact integration
# ---------------------------------------------------------------------------


class TestArtifactIntegration:
    SOURCE = (
        "import gtaLib\nego = EgoCar\nc = Car\n"
        "require (relative heading of c) >= 60 deg\n"
        "require (relative heading of c) <= 120 deg\n"
    )

    def test_bounds_cached_on_artifact(self):
        artifact = compile_scenario(self.SOURCE, cache=None)
        first = artifact.prune_bounds()
        assert artifact.prune_bounds() is first

    def test_scenarios_resolve_their_bounds(self):
        artifact = compile_scenario(self.SOURCE, cache=None)
        scenario = artifact.scenario(fresh=True)
        resolved = bounds_for_scenario(scenario)
        assert resolved is artifact.prune_bounds()

    def test_python_built_scenarios_have_no_bounds(self):
        import random

        from repro.core import At, Facing, In, Object, ScenarioBuilder, Workspace
        from repro.core.regions import CircularRegion

        with ScenarioBuilder() as builder:
            builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            Object(In(CircularRegion((0, 0), 5.0)), requireVisible=False)
        scenario = builder.scenario()
        assert bounds_for_scenario(scenario) is None
        prune_scenario(scenario)  # still works, containment-only
        scenario.generate(rng=random.Random(0))

    def test_statically_infeasible_scenario_raises(self):
        source = (
            "import gtaLib\nego = EgoCar\nc = Car\n"
            "require abs(relative heading of c) <= 10 deg\n"
            "require abs(relative heading of c) >= 150 deg\n"
        )
        scenario = compile_scenario(source, cache=None).scenario(fresh=True)
        with pytest.raises(InfeasibleScenarioError):
            prune_scenario(scenario)

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_pruned_scenario_samples_inside_pruned_regions(self, strategy):
        """Pruning is a pass, not a strategy: any strategy then samples the pruned regions."""
        from repro.core.regions import PointInRegionDistribution
        from repro.core.vectors import Vector
        from repro.fuzz.oracles import recheck_scene

        scenario = compile_scenario(self.SOURCE, cache=None).scenario(fresh=True)
        report = prune_scenario(scenario)
        assert report.area_ratio < 1.0
        regions = {
            index: scenic_object.properties["position"].region
            for index, scenic_object in enumerate(scenario.objects)
            if isinstance(scenic_object.properties.get("position"), PointInRegionDistribution)
        }
        assert regions
        batch = scenario.generate_batch(5, seed=1, max_iterations=50000, strategy=strategy)
        for scene in batch:
            assert recheck_scene(scenario, scene, checks=()) == []
            for index, region in regions.items():
                assert region.contains_point(Vector.from_any(scene.objects[index].position))

    def test_manual_bounds_override_analysis(self):
        artifact = compile_scenario(self.SOURCE, cache=None)
        scenario = artifact.scenario(fresh=True)
        manual = PruneBounds(
            objects=(ObjectBounds(index=0, min_radius=0.5), ObjectBounds(index=1)),
            mapped=True,
        )
        report = prune_scenario(scenario, manual)
        assert "orientation" not in report.techniques
