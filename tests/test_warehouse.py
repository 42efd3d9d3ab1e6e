"""Unit tests for the indoor warehouse world (src/repro/worlds/warehouse/).

The world is a pure WorldProfile plugin, so these tests cover the three
things the plugin promises: a geometrically consistent floor plan, the
field-aligned object library, and an end-to-end gauntlet slice — compile,
sample under every strategy, analyze, and survive the differential
oracles.
"""

import math

import pytest

from repro.core.distributions import Sample, needs_sampling
from repro.core.pruning import prune_scenario
from repro.core.vectors import Vector
from repro.evals.golden import GOLDEN_RUNS
from repro.language import compile_scenario, scenario_from_string
from repro.worlds.registry import get_world, load_world
from repro.worlds.warehouse import (
    Crate,
    Pallet,
    Robot,
    Shelf,
    WarehouseObject,
    Worker,
    default_layout,
)
from repro.worlds.warehouse.layout import (
    AISLE_COUNT,
    AISLE_LENGTH,
    AISLE_WIDTH,
    BUILDING_HALF_LENGTH,
    BUILDING_HALF_WIDTH,
    CROSS_AISLE_DEPTH,
    aisle_centers,
)


class TestLayout:
    def test_aisle_centers_span_the_building(self):
        centers = aisle_centers()
        assert len(centers) == AISLE_COUNT
        assert centers == sorted(centers)
        assert centers[0] == pytest.approx(-BUILDING_HALF_WIDTH + AISLE_WIDTH / 2)
        assert centers[-1] == pytest.approx(BUILDING_HALF_WIDTH - AISLE_WIDTH / 2)

    def test_regions_partition_the_floor(self, rng):
        layout = default_layout()
        for _ in range(60):
            point = layout.floor.uniform_point(rng)
            on_aisle = layout.aisle.contains_point(point)
            on_cross = layout.cross_aisle.contains_point(point)
            assert on_aisle or on_cross
            # The racks are obstacles, never navigable floor.
            assert not layout.racks.contains_point(point)

    def test_aisle_direction_follows_the_cells(self, rng):
        layout = default_layout()
        for _ in range(30):
            point = layout.aisle.uniform_point(rng)
            assert layout.aisle_direction.value_at(point) == pytest.approx(0.0)
        for _ in range(30):
            point = layout.cross_aisle.uniform_point(rng)
            assert layout.aisle_direction.value_at(point) == pytest.approx(-math.pi / 2)

    def test_racks_sit_between_aisles(self):
        layout = default_layout()
        centers = aisle_centers()
        for left, right in zip(centers, centers[1:]):
            midpoint = Vector((left + right) / 2.0, 0.0)
            assert layout.racks.contains_point(midpoint)
            assert not layout.floor.contains_point(midpoint)

    def test_workspace_bounds(self):
        layout = default_layout()
        assert layout.workspace.contains_point(Vector(0.0, BUILDING_HALF_LENGTH - 0.1))
        assert not layout.workspace.contains_point(Vector(0.0, BUILDING_HALF_LENGTH + 0.1))
        cross_y = AISLE_LENGTH / 2 + CROSS_AISLE_DEPTH / 2
        assert layout.workspace.contains_point(Vector(BUILDING_HALF_WIDTH - 0.1, cross_y))


class TestObjects:
    def test_default_placement_is_on_the_floor(self, rng):
        concrete = Pallet()._concretize(Sample(rng))
        assert default_layout().floor.contains_point(concrete.position)

    def test_heading_is_field_aligned(self, rng):
        layout = default_layout()
        for _ in range(10):
            concrete = Crate()._concretize(Sample(rng))
            expected = layout.aisle_direction.value_at(concrete.position)
            assert concrete.heading == pytest.approx(expected)

    def test_aisle_deviation_offsets_the_field(self, rng):
        deviation = math.radians(15.0)
        concrete = Worker(aisleDeviation=deviation)._concretize(Sample(rng))
        expected = default_layout().aisle_direction.value_at(concrete.position) + deviation
        assert concrete.heading == pytest.approx(expected)

    def test_footprints(self):
        assert Robot._property_defaults()["width"]() == pytest.approx(0.6)
        assert Pallet._property_defaults()["width"]() == pytest.approx(1.2)
        assert Shelf._property_defaults()["height"]() == pytest.approx(1.8)
        assert needs_sampling(Crate._property_defaults()["width"]())
        # A pallet nearly fills an aisle — the tight-clearance pressure.
        assert AISLE_WIDTH - Pallet._property_defaults()["width"]() < 1.0

    def test_robot_view_follows_visible_distance(self, rng):
        concrete = Robot(visibleDistance=8.0)._concretize(Sample(rng))
        assert concrete.viewDistance == pytest.approx(8.0)
        assert concrete.viewAngle == pytest.approx(math.radians(120.0))

    def test_all_classes_share_the_base(self):
        for cls in (Robot, Pallet, Crate, Shelf, Worker):
            assert issubclass(cls, WarehouseObject)


class TestGauntlet:
    SOURCE = (
        "import warehouse\n"
        "ego = Robot on aisle, with aisleDeviation (-5, 5) deg\n"
        "Pallet ahead of ego by (2, 6)\n"
        "Crate on aisle, with requireVisible False\n"
    )

    def test_import_binds_namespace_and_workspace(self):
        namespace, workspace = load_world("warehouse")
        assert {"Robot", "Pallet", "floor", "aisle", "aisleDirection"} <= set(namespace)
        assert workspace is not None
        scenario = scenario_from_string(self.SOURCE)
        assert scenario.workspace is not None
        assert len(scenario.objects) == 3

    @pytest.mark.parametrize("strategy", list(GOLDEN_RUNS))
    def test_samples_under_every_strategy(self, strategy):
        scenario = compile_scenario(self.SOURCE).scenario(fresh=True)
        registered, prune_first = GOLDEN_RUNS[strategy]
        if prune_first:
            prune_scenario(scenario)
        scene = scenario.generate(seed=7, max_iterations=5000, strategy=registered)
        layout = default_layout()
        for scenic_object in scene.objects:
            assert layout.floor.contains_point(Vector.from_any(scenic_object.position))
            assert not layout.racks.contains_point(Vector.from_any(scenic_object.position))

    def test_analysis_maps_with_profile_facts(self):
        artifact = compile_scenario(self.SOURCE, cache=None)
        bounds = artifact.prune_bounds()
        assert bounds.mapped
        by_class = {b.class_name: b for b in bounds.objects}
        assert by_class["Pallet"].min_radius == pytest.approx(0.4)
        # The ego and the pallet are chained through visibility and the
        # ahead-of specifier, so their reach from the ego stays bounded.
        assert by_class["Robot"].max_distance < 100.0
        assert by_class["Pallet"].max_distance < 100.0

    def test_profile_registration_is_complete(self):
        profile = get_world("warehouse")
        assert profile is not None and profile.name == "warehouse"
        assert profile.fuzz is not None and profile.analysis is not None
        assert profile.fuzz.missing_magnitudes() == []
        assert profile.bucket == "warehouse"

    def test_oracles_pass_on_a_warehouse_program(self):
        from repro.fuzz.oracles import run_oracles

        report = run_oracles(self.SOURCE, seed=11, max_iterations=600)
        assert report.verdict in ("pass", "skip")
        assert not report.failures
