"""Unit tests for the pruning algorithms (Sec. 5.2, Algorithms 2-3).

The key property throughout is *soundness*: pruning may only shrink the
sampling region in ways that keep every position that could appear in a
valid scene.  We check this by comparing the scenes produced with and
without pruning and by direct containment arguments.
"""

import math
import random
from pathlib import Path

import pytest

from repro.core import At, Facing, In, Object, ScenarioBuilder, Workspace
from repro.core.pruning import (
    prune_by_containment,
    prune_by_orientation,
    prune_by_size,
    prune_scenario,
)
from repro.core.regions import PolygonalRegion
from repro.core.vectorfields import PolygonalVectorField
from repro.core.vectors import Vector
from repro.geometry.polygon import Polygon


def strip(x0: float, x1: float, y0: float, y1: float) -> Polygon:
    return Polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


class TestContainmentPruning:
    def test_restriction_is_inside_eroded_container(self):
        region_polygons = [strip(0, 100, 0, 10)]
        container = [strip(0, 100, 0, 10)]
        pruned = prune_by_containment(region_polygons, container, min_radius=2.0)
        assert pruned
        for polygon in pruned:
            for vertex in polygon.vertices:
                assert 2.0 - 1e-6 <= vertex.y <= 8.0 + 1e-6

    def test_all_valid_centres_survive(self, rng):
        # Any centre at distance >= min_radius from the container boundary must
        # remain in the pruned region (soundness).
        region_polygons = [strip(0, 50, 0, 10)]
        container = [strip(0, 50, 0, 10)]
        pruned = prune_by_containment(region_polygons, container, min_radius=1.0)
        pruned_region = PolygonalRegion(pruned)
        for _ in range(200):
            x = rng.uniform(1.0, 49.0)
            y = rng.uniform(1.0, 9.0)
            assert pruned_region.contains_point((x, y))

    def test_too_large_radius_empties_region(self):
        pruned = prune_by_containment([strip(0, 10, 0, 4)], [strip(0, 10, 0, 4)], min_radius=3.0)
        assert pruned == []


class TestOrientationPruning:
    def test_oncoming_constraint_keeps_only_paired_carriageways(self):
        # An "oncoming" constraint (relative heading about pi) keeps only the
        # parts of the map near an opposite-direction cell; the isolated cell
        # with no oncoming partner within range disappears entirely.
        cells = [
            (strip(0, 20, 0, 10), 0.0),
            (strip(0, 20, 15, 25), math.pi),
            (strip(1000, 1020, 0, 10), 0.0),
        ]
        pruned = prune_by_orientation(
            cells, (math.pi - 0.1, math.pi + 0.1), max_distance=30.0, total_deviation=0.0
        )
        pruned_region = PolygonalRegion(pruned)
        assert pruned_region.contains_point((10, 5))
        assert pruned_region.contains_point((10, 20))
        assert not pruned_region.contains_point((1010, 5))

    def test_aligned_constraint_is_a_sound_no_op(self):
        # Every cell is a compatible partner for itself when 0 is allowed, so
        # nothing may be removed (only possibly restricted to reachable parts).
        cells = [(strip(0, 20, 0, 10), 0.0), (strip(0, 20, 15, 25), 0.0)]
        pruned = prune_by_orientation(cells, (-0.1, 0.1), max_distance=30.0, total_deviation=0.0)
        pruned_region = PolygonalRegion(pruned)
        assert pruned_region.contains_point((10, 5))
        assert pruned_region.contains_point((10, 20))

    def test_deviation_bound_relaxes_the_constraint(self):
        cells = [
            (strip(0, 20, 0, 10), 0.0),
            (strip(0, 20, 15, 25), math.pi - 0.5),
        ]
        constraint = (math.pi - 0.1, math.pi + 0.1)
        strict = prune_by_orientation(cells, constraint, max_distance=30.0, total_deviation=0.0)
        relaxed = prune_by_orientation(cells, constraint, max_distance=30.0, total_deviation=0.5)
        strict_region = PolygonalRegion(strict) if strict else None
        relaxed_region = PolygonalRegion(relaxed)
        # With 0.5 rad of total slack the (pi - 0.5)-heading cell becomes compatible.
        assert relaxed_region.contains_point((10, 20))
        if strict_region is not None:
            assert not strict_region.contains_point((10, 20))


class TestContainmentBoundarySoundness:
    """The polygon-cell boundary bugfix: erosion per container piece must
    never exclude a centre that is valid in the container *union*."""

    def test_straddling_two_container_pieces_keeps_the_seam(self):
        # Two adjacent 10x10 workspace pieces; a region strip across their
        # shared boundary.  An object of radius 1 centred at (10, 5) fits in
        # the union, but lies in *neither* piece's erosion — clipping per
        # piece (the old behaviour) would wrongly exclude it.
        region_polygons = [strip(8, 12, 0, 10)]
        containers = [strip(0, 10, 0, 10), strip(10, 20, 0, 10)]
        pruned = prune_by_containment(region_polygons, containers, min_radius=1.0)
        pruned_region = PolygonalRegion(pruned)
        assert pruned_region.contains_point((10.0, 5.0))
        assert pruned_region.contains_point((9.5, 5.0))
        assert pruned_region.contains_point((10.5, 5.0))

    def test_near_but_not_touching_second_piece_is_kept_whole(self):
        # The region polygon touches only the left piece but comes within
        # min_radius of the right one: an object centred in the gap can
        # straddle into the right piece, so clipping to the left erosion
        # alone would be unsound.
        region_polygons = [strip(0, 9.5, 0, 10)]
        containers = [strip(0, 10, 0, 10), strip(10, 20, 0, 10)]
        pruned = prune_by_containment(region_polygons, containers, min_radius=1.0)
        pruned_region = PolygonalRegion(pruned)
        assert pruned_region.contains_point((9.4, 5.0))

    def test_isolated_single_piece_still_erodes(self):
        region_polygons = [strip(0, 10, 0, 10)]
        containers = [strip(0, 10, 0, 10), strip(100, 110, 0, 10)]
        pruned = prune_by_containment(region_polygons, containers, min_radius=2.0)
        pruned_region = PolygonalRegion(pruned)
        assert pruned_region.contains_point((5, 5))
        assert not pruned_region.contains_point((0.5, 5))

    def test_region_outside_every_container_is_dropped(self):
        pruned = prune_by_containment(
            [strip(50, 60, 0, 10)], [strip(0, 10, 0, 10)], min_radius=1.0
        )
        assert pruned == []


class TestOrientationWrapRegression:
    """Arcs straddling ±π passed with normalized endpoints (bugfix pin)."""

    CELLS = [
        (strip(0, 20, 0, 10), 0.0),          # northbound
        (strip(0, 20, 15, 25), math.pi),     # oncoming partner
        (strip(1000, 1020, 0, 10), 0.0),     # northbound, isolated
        (strip(1000, 1020, 15, 25), 0.0),    # same-heading neighbour pair
    ]

    def test_normalized_endpoints_do_not_collapse_to_complement(self):
        # (pi - 0.1, -(pi - 0.1)) is the same 0.2-rad oncoming arc as
        # (pi - 0.1, pi + 0.1).  The old midpoint arithmetic read it as a
        # near-full arc centred at 0 and kept the same-heading pair.
        wrapped = prune_by_orientation(
            self.CELLS,
            (math.pi - 0.1, -(math.pi - 0.1)),
            max_distance=30.0,
            total_deviation=0.0,
        )
        unnormalized = prune_by_orientation(
            self.CELLS,
            (math.pi - 0.1, math.pi + 0.1),
            max_distance=30.0,
            total_deviation=0.0,
        )
        for pruned in (wrapped, unnormalized):
            region = PolygonalRegion(pruned)
            assert region.contains_point((10, 5))     # has an oncoming partner
            assert region.contains_point((10, 20))
            assert not region.contains_point((1010, 5))   # same-heading pair only
            assert not region.contains_point((1010, 20))

    def test_degenerate_equal_endpoints_is_a_point_not_a_full_circle(self):
        pruned = prune_by_orientation(
            self.CELLS, (math.pi, math.pi), max_distance=30.0, total_deviation=0.0
        )
        region = PolygonalRegion(pruned)
        assert region.contains_point((10, 5))
        assert not region.contains_point((1010, 5))


class TestOrientationPartnerCells:
    def test_partner_cells_restrict_to_reachable_partner_headings(self):
        # The pruned object's cells all face north; the partner can only sit
        # on the distant eastbound cell, so only the northern cell within M
        # of it survives a "partner is 90 deg to my right" constraint.
        cells = [
            (strip(0, 10, 0, 10), 0.0),
            (strip(100, 110, 0, 10), 0.0),
        ]
        partner_cells = [(strip(95, 105, 20, 30), -math.pi / 2)]
        pruned = prune_by_orientation(
            cells,
            (-math.pi / 2 - 0.1, -math.pi / 2 + 0.1),
            max_distance=30.0,
            total_deviation=0.0,
            partner_cells=partner_cells,
        )
        region = PolygonalRegion(pruned)
        assert region.contains_point((105, 5))
        assert not region.contains_point((5, 5))

    def test_total_deviation_replaces_doubled_bound(self):
        cells = [(strip(0, 10, 0, 10), 0.0)]
        partner_cells = [(strip(0, 10, 15, 25), 0.35)]
        constraint = (-0.1, 0.1)
        tight = prune_by_orientation(cells, constraint, 30.0, 0.2, partner_cells=partner_cells)
        loose = prune_by_orientation(cells, constraint, 30.0, 0.3, partner_cells=partner_cells)
        assert tight == []  # 0.35 > 0.1 + 0.2
        assert loose  # 0.35 <= 0.1 + 0.3


class TestSizePruning:
    def test_narrow_isolated_cells_are_dropped(self):
        cells = [
            (strip(0, 100, 0, 10), 0.0),       # wide
            (strip(1000, 1100, 0, 2), 0.0),    # narrow, isolated
            (strip(0, 100, 12, 14), 0.0),      # narrow but near the wide cell
        ]
        pruned = prune_by_size(cells, max_distance=20.0, min_width=5.0)
        pruned_region = PolygonalRegion(pruned)
        assert pruned_region.contains_point((50, 5))
        assert pruned_region.contains_point((50, 13))
        assert not pruned_region.contains_point((1050, 1))


class TestScenarioPruning:
    def _build_scenario(self, road_region, workspace_region):
        with ScenarioBuilder(workspace=Workspace(workspace_region)) as builder:
            builder.set_ego(Object(At((50.0, 5.0)), Facing(-math.pi / 2), width=2, height=4))
            Object(In(road_region), Facing(-math.pi / 2), width=2.0, height=4.0,
                   requireVisible=False)
        return builder.scenario()

    def _road(self):
        cells = [(strip(0, 100, 0, 10), -math.pi / 2)]
        field = PolygonalVectorField("dir", cells)
        return PolygonalRegion([polygon for polygon, _ in cells], orientation=field)

    def test_prune_scenario_shrinks_area_and_stays_sound(self):
        road = self._road()
        workspace_region = PolygonalRegion([strip(0, 100, 0, 10)])
        scenario = self._build_scenario(road, workspace_region)
        report = prune_scenario(scenario)
        assert report.objects_pruned == 1
        assert report.area_after < report.area_before
        assert "containment" in report.techniques
        # Scenes can still be generated and all objects stay on the road.
        rng = random.Random(0)
        for _ in range(5):
            scene = scenario.generate(rng=rng)
            for scenic_object in scene.objects:
                assert workspace_region.contains_object(scenic_object)

    def test_pruning_reduces_rejections(self):
        road = self._road()
        workspace_region = PolygonalRegion([strip(0, 100, 0, 10)])

        unpruned = self._build_scenario(road, workspace_region)
        rng = random.Random(1)
        unpruned_iterations = 0
        for _ in range(20):
            unpruned.generate(rng=rng)
            unpruned_iterations += unpruned.last_stats.iterations

        pruned = self._build_scenario(self._road(), workspace_region)
        prune_scenario(pruned)
        rng = random.Random(1)
        pruned_iterations = 0
        for _ in range(20):
            pruned.generate(rng=rng)
            pruned_iterations += pruned.last_stats.iterations

        # The 4-m-long car on a 10-m-wide road straddles the edge often enough
        # that erosion noticeably reduces wasted samples.
        assert pruned_iterations < unpruned_iterations


class TestBoundsDrivenPruning:
    """prune_scenario consuming a static-analysis ``PruneBounds`` artifact."""

    def _field_and_road(self, cells):
        field = PolygonalVectorField("dir", cells)
        return field, PolygonalRegion([polygon for polygon, _ in cells], orientation=field)

    def _two_object_scenario(self, road, workspace_region):
        with ScenarioBuilder(workspace=Workspace(workspace_region)) as builder:
            builder.set_ego(
                Object(In(road), Facing(0.0), width=1, height=1, requireVisible=False)
            )
            Object(In(road), Facing(0.0), width=1, height=1, requireVisible=False)
        return builder.scenario()

    def test_orientation_constraint_from_bounds(self):
        from repro.analysis.bounds import HeadingConstraint, ObjectBounds, PruneBounds

        # One-way map: two northbound strips and one distant southbound one.
        cells = [
            (strip(0, 20, 0, 10), 0.0),
            (strip(0, 20, 15, 25), math.pi),
            (strip(500, 520, 0, 10), 0.0),
        ]
        field, road = self._field_and_road(cells)
        workspace_region = PolygonalRegion([polygon for polygon, _ in cells])
        scenario = self._two_object_scenario(road, workspace_region)
        bounds = PruneBounds(
            objects=(
                ObjectBounds(
                    index=0,
                    heading_constraints=(
                        HeadingConstraint(
                            partner=1, center=math.pi, half_width=0.1, max_distance=30.0
                        ),
                    ),
                ),
                ObjectBounds(index=1),
            ),
            mapped=True,
        )
        report = prune_scenario(scenario, bounds)
        assert "orientation" in report.techniques
        region = scenario.objects[0].properties["position"].region
        assert region.contains_point((10, 5))
        assert region.contains_point((10, 20))
        assert not region.contains_point((510, 5))  # no oncoming partner in range
        # The partner object's own region is untouched by object 0's bounds.
        assert scenario.objects[1].properties["position"].region.contains_point((510, 5))

    def test_empty_heading_constraint_raises_infeasible(self):
        from repro.analysis.bounds import HeadingConstraint, ObjectBounds, PruneBounds
        from repro.core.errors import InfeasibleScenarioError

        cells = [(strip(0, 20, 0, 10), 0.0)]
        field, road = self._field_and_road(cells)
        workspace_region = PolygonalRegion([polygon for polygon, _ in cells])
        scenario = self._two_object_scenario(road, workspace_region)
        bounds = PruneBounds(
            objects=(
                ObjectBounds(
                    index=0,
                    heading_constraints=(
                        HeadingConstraint(
                            partner=1, center=0.0, half_width=-1.0, max_distance=30.0
                        ),
                    ),
                ),
            ),
            mapped=True,
        )
        with pytest.raises(InfeasibleScenarioError):
            prune_scenario(scenario, bounds)

    def test_size_pruning_from_bounds(self):
        from repro.analysis.bounds import ObjectBounds, PruneBounds

        cells = [
            (strip(0, 100, 0, 10), 0.0),       # wide
            (strip(1000, 1100, 0, 2), 0.0),    # narrow, isolated
            (strip(0, 100, 12, 14), 0.0),      # narrow but near the wide cell
        ]
        field, road = self._field_and_road(cells)
        workspace_region = PolygonalRegion([polygon for polygon, _ in cells])
        scenario = self._two_object_scenario(road, workspace_region)
        bounds = PruneBounds(
            objects=(
                ObjectBounds(
                    index=0, min_configuration_width=5.0, narrowness_distance=20.0
                ),
                ObjectBounds(index=1),
            ),
            mapped=True,
        )
        report = prune_scenario(scenario, bounds)
        assert "size" in report.techniques
        region = scenario.objects[0].properties["position"].region
        assert region.contains_point((50, 5))
        assert region.contains_point((50, 13))
        assert not region.contains_point((1050, 1))

    def test_size_pruning_skipped_without_coverage_proof(self):
        from repro.analysis.bounds import ObjectBounds, PruneBounds

        cells = [(strip(1000, 1100, 0, 2), 0.0)]
        field, road = self._field_and_road(cells)
        # Workspace extends beyond the region's cells: the isolation
        # argument does not hold, so size pruning must not fire.
        workspace_region = PolygonalRegion([strip(0, 1200, 0, 10)])
        scenario = self._two_object_scenario(road, workspace_region)
        bounds = PruneBounds(
            objects=(
                ObjectBounds(
                    index=0, min_configuration_width=5.0, narrowness_distance=20.0
                ),
            ),
            mapped=True,
        )
        report = prune_scenario(scenario, bounds)
        assert "size" not in report.techniques
        assert any("size pruning skipped" in note for note in report.notes)

    def test_mutated_objects_are_never_pruned(self):
        cells = [(strip(0, 100, 0, 10), 0.0)]
        field, road = self._field_and_road(cells)
        workspace_region = PolygonalRegion([polygon for polygon, _ in cells])
        with ScenarioBuilder(workspace=Workspace(workspace_region)) as builder:
            ego = Object(In(road), Facing(0.0), width=2, height=4, requireVisible=False)
            builder.set_ego(ego)
            ego._assign_property("mutationScale", 1.0)
        scenario = builder.scenario()
        report = prune_scenario(scenario)
        assert report.objects_skipped_mutation == 1
        assert report.objects_pruned == 0
        # The region is untouched.
        assert scenario.objects[0].properties["position"].region is road

    def test_containment_infeasible_raises(self):
        from repro.core.errors import InfeasibleScenarioError

        road = PolygonalRegion([strip(0, 100, 0, 4)])
        workspace_region = PolygonalRegion([strip(0, 100, 0, 4)])
        with ScenarioBuilder(workspace=Workspace(workspace_region)) as builder:
            builder.set_ego(
                Object(In(road), Facing(0.0), width=12, height=12, requireVisible=False)
            )
        scenario = builder.scenario()
        with pytest.raises(InfeasibleScenarioError):
            prune_scenario(scenario)

    def test_report_area_ratio_explicit_when_nothing_prunable(self):
        with ScenarioBuilder() as builder:
            builder.set_ego(Object(At((0, 0)), Facing(0.0)))
        scenario = builder.scenario()
        report = prune_scenario(scenario)
        assert report.area_ratio == 1.0
        assert not report.applied
        assert report.objects_pruned == 0


EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples" / "scenarios"

SLOW_SCENARIOS = {"perception_stress", "platoon"}


@pytest.mark.parametrize(
    "stem",
    [
        pytest.param(stem, marks=[pytest.mark.slow] if stem in SLOW_SCENARIOS else [])
        for stem in sorted(path.stem for path in EXAMPLES_DIR.glob("*.scenic"))
    ],
)
def test_pruned_region_triangle_areas_sum_to_polygon_area(stem):
    """Corpus-wide property: pruned regions triangulate exactly (to 1e-9).

    Every polygonal position region left by the automatic pruning pass over
    the example gallery must triangulate into triangles whose areas sum to
    the region's polygon areas: uniform sampling from the pruned region
    (``TriangulatedSampler``) would otherwise under- or over-cover it.
    """
    from repro.core.regions import PointInRegionDistribution
    from repro.geometry.triangulation import _triangle_area, triangulate
    from repro.language import scenario_from_file

    scenario = scenario_from_file(EXAMPLES_DIR / f"{stem}.scenic")
    prune_scenario(scenario)
    for scenic_object in scenario.objects:
        position = scenic_object.properties.get("position")
        if not isinstance(position, PointInRegionDistribution):
            continue
        region = position.region
        if not isinstance(region, PolygonalRegion):
            continue
        for polygon in region.polygons:
            total = sum(_triangle_area(*t) for t in triangulate(polygon))
            assert abs(total - polygon.area) <= 1e-9 * max(1.0, polygon.area), (
                f"{stem}: triangulated area {total} != polygon area {polygon.area}"
            )
