"""Randomized equivalence tests for the vectorized geometry kernel.

The kernel's contract is that batch results are identical to the scalar
implementations: for every built-in Region subclass, ``contains_points_batch``
must agree with ``contains_point`` point for point, and
``pairwise_collisions`` must reproduce the scalar double loop pair for pair.

The module functions call the predicates through one instance
(``repro.geometry.kernel.KERNEL``, also returned by
``repro.geometry.backends.active_backend()``).  The last classes pin that
contract: a fault planted on the instance must reach the kernel oracle, and
both sampling entry points must go through it.
"""

import math
import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objects import Object
from repro.core.regions import (
    CircularRegion,
    DifferenceRegion,
    EmptyRegion,
    EverywhereRegion,
    IntersectionRegion,
    PointSetRegion,
    PolygonalRegion,
    PolylineRegion,
    RectangularRegion,
    SectorRegion,
    Region,
)
from repro.geometry import backends, kernel
from repro.geometry.polygon import Polygon, polygons_intersect
from repro.geometry.spatial_index import SpatialGrid

POINT_COUNT = 1000


def _concave_polygon():
    return Polygon([(0, 0), (4, 0), (4, 4), (2, 4), (2, 1.5), (0, 1.5)])


def region_fixtures():
    """One representative instance per built-in Region subclass."""
    return {
        "everywhere": EverywhereRegion(),
        "empty": EmptyRegion(),
        "circle": CircularRegion((1.0, -2.0), 4.5),
        "sector": SectorRegion((0.5, 0.5), 6.0, heading=0.8, angle=1.3),
        "sector-degenerate-disc": SectorRegion((0.0, 0.0), 5.0, heading=0.0, angle=7.0),
        "rectangle": RectangularRegion((1.0, 2.0), 0.6, 5.0, 2.5),
        "polygonal": PolygonalRegion(
            [_concave_polygon(), Polygon([(-5, -5), (-2, -5), (-3.5, -2)])]
        ),
        "polygonal-gridded": PolygonalRegion(
            [
                Polygon([(x, y), (x + 0.9, y), (x + 0.9, y + 0.9), (x, y + 0.9)])
                for x in range(-5, 5)
                for y in range(-5, 5)
            ]
        ),
        "polyline": PolylineRegion([[(-4, -4), (0, 0), (4, -1), (4, 4)]]),
        "points": PointSetRegion([(0, 0), (2, 2), (-3, 1)], tolerance=0.4),
        "intersection": IntersectionRegion(
            CircularRegion((0, 0), 5.0), RectangularRegion((0, 0), 0.3, 6.0, 4.0)
        ),
        "difference": DifferenceRegion(
            CircularRegion((0, 0), 5.0), CircularRegion((2, 0), 2.0)
        ),
    }


def seeded_points(seed, count=POINT_COUNT, span=8.0):
    rng = random.Random(seed)
    return [(rng.uniform(-span, span), rng.uniform(-span, span)) for _ in range(count)]


class TestContainsPointsEquivalence:
    @pytest.mark.parametrize("name", sorted(region_fixtures()))
    def test_batch_matches_scalar_on_random_points(self, name):
        region = region_fixtures()[name]
        points = seeded_points(seed=zlib.crc32(name.encode()))  # stable across runs
        scalar = np.array([region.contains_point(point) for point in points])
        batch = region.contains_points_batch(np.array(points))
        assert batch.dtype == bool
        mismatches = np.flatnonzero(scalar != batch)
        assert len(mismatches) == 0, f"{name}: first mismatches at {mismatches[:5]}"

    @pytest.mark.parametrize("name", sorted(region_fixtures()))
    def test_empty_batch(self, name):
        region = region_fixtures()[name]
        result = region.contains_points_batch(np.zeros((0, 2)))
        assert result.shape == (0,)

    def test_batch_accepts_vector_likes(self):
        region = CircularRegion((0, 0), 1.0)
        from repro.core.vectors import Vector

        result = region.contains_points_batch([Vector(0.5, 0), (5.0, 5.0)])
        assert result.tolist() == [True, False]

    def test_scalar_fallback_for_third_party_regions(self):
        class HalfPlane(Region):
            """A custom region that only implements the scalar protocol."""

            def __init__(self):
                super().__init__("half-plane")

            def contains_point(self, point):
                return point[0] >= 0

        region = HalfPlane()
        points = np.array([(1.0, 0.0), (-1.0, 0.0), (0.5, 3.0)])
        assert region.contains_points_batch(points).tolist() == [True, False, True]
        assert kernel.contains_points(region, points).tolist() == [True, False, True]

    def test_boundary_points_count_as_inside(self):
        region = PolygonalRegion([Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])])
        boundary = np.array([(0.0, 1.0), (1.0, 0.0), (2.0, 2.0), (1.0, 1.0), (3.0, 1.0)])
        assert region.contains_points_batch(boundary).tolist() == [
            True,
            True,
            True,
            True,
            False,
        ]


def random_objects(rng, count):
    return [
        Object._make(
            position=(rng.uniform(-12, 12), rng.uniform(-12, 12)),
            heading=rng.uniform(-math.pi, math.pi),
            width=rng.uniform(0.3, 5.0),
            height=rng.uniform(0.3, 5.0),
            allowCollisions=False,
        )
        for _ in range(count)
    ]


def scalar_collision_pairs(objects):
    pairs = []
    for i in range(len(objects)):
        for j in range(i + 1, len(objects)):
            if polygons_intersect(objects[i].bounding_polygon, objects[j].bounding_polygon):
                pairs.append((i, j))
    return pairs


class TestPairwiseCollisionEquivalence:
    @pytest.mark.parametrize("count", [2, 5, 12, 30])
    def test_matches_scalar_loop(self, count):
        rng = random.Random(1000 + count)
        for _ in range(20):
            objects = random_objects(rng, count)
            corners = kernel.corners_array(objects)
            got = [tuple(pair) for pair in kernel.pairwise_collisions(corners)]
            assert got == scalar_collision_pairs(objects)

    def test_grid_and_bruteforce_paths_agree(self):
        rng = random.Random(7)
        objects = random_objects(rng, 40)
        corners = kernel.corners_array(objects)
        gridded = kernel.pairwise_collisions(corners, grid_threshold=2)
        brute = kernel.pairwise_collisions(corners, grid_threshold=10**9)
        assert gridded.tolist() == brute.tolist()

    def test_collidable_mask_excludes_objects(self):
        rng = random.Random(8)
        objects = random_objects(rng, 10)
        corners = kernel.corners_array(objects)
        collidable = np.array([index % 2 == 0 for index in range(10)])
        pairs = kernel.pairwise_collisions(corners, collidable)
        for i, j in pairs:
            assert collidable[i] and collidable[j]

    def test_empty_and_single_inputs(self):
        assert kernel.pairwise_collisions(np.zeros((0, 4, 2))).shape == (0, 2)
        one = kernel.corners_array(random_objects(random.Random(0), 1))
        assert kernel.pairwise_collisions(one).shape == (0, 2)

    def test_touching_quads_count_as_colliding(self):
        # Two unit squares sharing an edge: the scalar polygon test treats
        # boundary contact as intersection, so the SAT kernel must too.
        a = np.array([[(0, 0), (1, 0), (1, 1), (0, 1)]], dtype=float)
        b = np.array([[(1, 0), (2, 0), (2, 1), (1, 1)]], dtype=float)
        assert kernel.quads_overlap(a, b).tolist() == [True]

    def test_batch_collision_free(self):
        rng = random.Random(9)
        scenes = [random_objects(rng, 6) for _ in range(25)]
        corners = np.stack([kernel.corners_array(objs) for objs in scenes])
        free = kernel.batch_collision_free(corners)
        for index, objs in enumerate(scenes):
            assert free[index] == (len(scalar_collision_pairs(objs)) == 0)


class TestObjectsContained:
    def test_matches_contains_object(self):
        region = PolygonalRegion([_concave_polygon()])
        rng = random.Random(11)
        objects = random_objects(rng, 200)
        corners = kernel.corners_array(objects)
        batch = kernel.objects_contained(region, corners)
        scalar = [region.contains_object(obj) for obj in objects]
        assert batch.tolist() == scalar

    def test_empty(self):
        region = CircularRegion((0, 0), 1.0)
        assert kernel.objects_contained(region, np.zeros((0, 4, 2))).shape == (0,)


class TestSpatialGrid:
    def test_query_box_is_conservative(self):
        rng = random.Random(5)
        boxes = []
        for _ in range(60):
            x, y = rng.uniform(-20, 20), rng.uniform(-20, 20)
            boxes.append((x, y, x + rng.uniform(0.2, 3), y + rng.uniform(0.2, 3)))
        boxes = np.array(boxes)
        grid = SpatialGrid(boxes)
        for _ in range(50):
            x, y = rng.uniform(-20, 20), rng.uniform(-20, 20)
            query = (x, y, x + 2.0, y + 2.0)
            candidates = set(grid.query_box(query).tolist())
            for index, box in enumerate(boxes):
                truly_intersects = not (
                    box[2] < query[0]
                    or query[2] < box[0]
                    or box[3] < query[1]
                    or query[3] < box[1]
                )
                if truly_intersects:
                    assert index in candidates  # may over-approximate, never miss

    def test_candidate_pairs_cover_all_intersecting_pairs(self):
        rng = random.Random(6)
        objects = random_objects(rng, 25)
        corners = kernel.corners_array(objects)
        grid = SpatialGrid(kernel.aabbs_of(corners))
        pairs = {tuple(pair) for pair in grid.candidate_pairs()}
        assert set(scalar_collision_pairs(objects)) <= pairs

    def test_empty_grid(self):
        grid = SpatialGrid(np.zeros((0, 4)))
        assert len(grid) == 0
        assert grid.candidate_pairs().shape == (0, 2)
        assert grid.query_box((0, 0, 1, 1)).shape == (0,)


class TestBatchPredicateProperties:
    """The batch predicates agree with each other and with the scalar loop."""

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        object_count=st.integers(min_value=1, max_value=10),
        scene_count=st.integers(min_value=1, max_value=8),
    )
    def test_batch_equals_pairwise_conjunction(self, seed, object_count, scene_count):
        rng = random.Random(seed)
        scenes = [random_objects(rng, object_count) for _ in range(scene_count)]
        corners = np.stack([kernel.corners_array(objects) for objects in scenes])
        free = kernel.batch_collision_free(corners)
        expected = [
            len(kernel.pairwise_collisions(scene_corners)) == 0 for scene_corners in corners
        ]
        assert free.tolist() == expected

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        object_count=st.integers(min_value=2, max_value=12),
    )
    def test_pairwise_matches_scalar_double_loop(self, seed, object_count):
        objects = random_objects(random.Random(seed), object_count)
        pairs = [tuple(pair) for pair in kernel.pairwise_collisions(kernel.corners_array(objects))]
        assert pairs == scalar_collision_pairs(objects)


KERNEL_METHODS = (
    "points_in_polygon",
    "objects_contained",
    "pairwise_collisions",
    "batch_collision_free",
)


def plant_ulp_bias(monkeypatch):
    """Pull every corner one ulp toward its quad's centroid in both collision predicates.

    Exactly-touching quads stop touching, so any differential check with
    boundary-contact cases must flag the planted fault.
    """
    instance = backends.active_backend()

    def biased(method):
        def call(corners, *args, **kwargs):
            corners = np.asarray(corners, dtype=float)
            centroids = np.broadcast_to(corners.mean(axis=-2, keepdims=True), corners.shape)
            return method(np.nextafter(corners, centroids), *args, **kwargs)

        return call

    for name in ("pairwise_collisions", "batch_collision_free"):
        monkeypatch.setattr(instance, name, biased(getattr(instance, name)))


def touching_scenario_and_scene():
    """Two fixed 2x2 squares sharing the edge x = 1 (contact, zero overlap)."""
    from repro.core import At, Facing, ScenarioBuilder, Vector
    from repro.core import Object as BuilderObject

    with ScenarioBuilder() as builder:
        ego = BuilderObject(
            At(Vector(0, 0)), Facing(0.0), width=2.0, height=2.0, allowCollisions=True
        )
        builder.set_ego(ego)
        BuilderObject(
            At(Vector(2, 0)), Facing(0.0), width=2.0, height=2.0, allowCollisions=True
        )
    scenario = builder.scenario()
    return scenario, scenario.generate(seed=0)


class TestPlantedUlpBias:
    """The differential checks have teeth at 1-ulp resolution."""

    def test_oracle_flags_the_bias_until_restored(self, monkeypatch):
        from repro.fuzz.oracles import check_kernel_equivalence

        scenario, scene = touching_scenario_and_scene()
        # Sanity: the scene really has boundary contact, the hardest case.
        assert polygons_intersect(
            scene.objects[0].bounding_polygon, scene.objects[1].bounding_polygon
        )
        plant_ulp_bias(monkeypatch)
        problems = check_kernel_equivalence(scenario, scene, seed=9)
        assert any("pairwise_collisions mismatch" in problem for problem in problems), problems
        monkeypatch.undo()
        assert check_kernel_equivalence(scenario, scene, seed=9) == []

    def test_unpatched_kernel_survives_the_touching_scene(self):
        from repro.fuzz.oracles import check_kernel_equivalence

        scenario, scene = touching_scenario_and_scene()
        assert check_kernel_equivalence(scenario, scene, seed=9) == []

    def test_kernel_level_check_catches_the_bias(self, monkeypatch):
        a = np.array([[(0, 0), (1, 0), (1, 1), (0, 1)]], dtype=float)
        b = np.array([[(1, 0), (2, 0), (2, 1), (1, 1)]], dtype=float)
        corners = np.concatenate([a, b])
        assert len(kernel.pairwise_collisions(corners)) == 1
        assert kernel.batch_collision_free(corners[None]).tolist() == [False]
        plant_ulp_bias(monkeypatch)
        assert len(kernel.pairwise_collisions(corners)) == 0  # the planted miss
        assert kernel.batch_collision_free(corners[None]).tolist() == [True]


def plant_off_by_delta(monkeypatch):
    """Move every edge line of every new ``PolygonTable`` 2δ outward.

    The certified decision then calls a point up to δ outside an edge
    "inside", where the scalar ray cast says outside: the boundary probes
    of the kernel oracle must flag it.
    """
    build = kernel.PolygonTable.__init__

    def shifted(table, vertex_lists):
        build(table, vertex_lists)
        table._planes[:, 2] += 2 * np.tile(table._margins[:, 0], table._width)

    monkeypatch.setattr(kernel.PolygonTable, "__init__", shifted)


class TestPlantedOffByDelta:
    """The boundary probes catch a certified verdict that is off by δ."""

    def test_oracle_flags_an_off_by_delta_workspace(self, monkeypatch):
        from repro.fuzz.oracles import check_kernel_equivalence

        scenario = four_object_scenario()
        scene = scenario.generate(seed=0)
        assert check_kernel_equivalence(scenario, scene, seed=9) == []
        plant_off_by_delta(monkeypatch)
        monkeypatch.setattr(scenario.workspace.region, "_table", None)  # rebuilt, shifted
        problems = check_kernel_equivalence(scenario, scene, seed=9)
        assert any("contains_points mismatch on PolygonalRegion" in p for p in problems), problems

    def test_oracle_flags_an_off_by_delta_road_map(self, monkeypatch):
        from repro.fuzz.oracles import run_oracles
        from repro.worlds.registry import load_world

        program = "import gtaLib\nego = Car\n"
        assert run_oracles(program, seed=3).verdict == "pass"
        plant_off_by_delta(monkeypatch)
        region = load_world("gta")[1].region
        monkeypatch.setattr(region, "_table", None)
        monkeypatch.setattr(region.orientation, "_tables", None)
        details = [failure.detail for failure in run_oracles(program, seed=3).failures]
        assert any("contains_points mismatch on PolygonalRegion" in d for d in details), details
        assert any("value_at_points mismatch on roadDirection" in d for d in details), details


def four_object_scenario(box: float = 1.0):
    """Ego plus four *box*-wide boxes inside a polygonal workspace: every kernel path applies."""
    from repro.core import At, Facing, In, ScenarioBuilder, Workspace
    from repro.core import Object as BuilderObject

    half = 15.0
    workspace = Workspace(
        PolygonalRegion([Polygon([(-half, -half), (half, -half), (half, half), (-half, half)])])
    )
    with ScenarioBuilder(workspace=workspace) as builder:
        builder.set_ego(BuilderObject(At((0, 0)), Facing(0.0)))
        for _ in range(4):
            BuilderObject(
                In(CircularRegion((0.0, 0.0), 14.0)), width=box, height=box, requireVisible=False
            )
    return builder.scenario()


class TestKernelInstance:
    """The module functions and both sampling entry points use the one instance."""

    def test_shim_returns_the_one_instance(self):
        instance = backends.active_backend()
        assert instance is kernel.KERNEL
        assert instance.name == "numpy"
        assert backends.available_backends() == ["numpy"]
        for method in KERNEL_METHODS:
            assert callable(getattr(instance, method))

    @pytest.mark.parametrize(
        "strategy,collision_methods",
        [
            ("vectorized", ("batch_collision_free",)),
            ("rejection", ("pairwise_collisions",)),
        ],
        ids=["vectorized", "rejection"],
    )
    def test_sampling_goes_through_the_instance(self, monkeypatch, strategy, collision_methods):
        """Counted the way ``perfbench/tracing.py`` times the ``geometry.kernel`` span.

        ``vectorized`` checks every block, its first block of one candidate
        included, in one verdict pass (``objects_contained``, then
        ``batch_collision_free``); ``rejection`` checks candidate by
        candidate through the chain (``pairwise_collisions`` from 4
        objects).  The boxes are 4 m wide, so about two thirds of
        candidates are rejected and most scenes need more than one block.
        """
        instance = backends.active_backend()
        calls = dict.fromkeys(KERNEL_METHODS, 0)

        def counting(name, method):
            def call(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            return call

        for name in KERNEL_METHODS:
            monkeypatch.setattr(instance, name, counting(name, getattr(instance, name)))
        scenario = four_object_scenario(box=4.0)
        if strategy == "vectorized":
            scenario.generate_batch(8, seed=1, strategy=strategy)
        else:
            scenario.generate(seed=1, strategy=strategy)
        assert calls["objects_contained"] > 0
        for method in collision_methods:
            assert calls[method] > 0, method
