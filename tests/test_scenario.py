"""Unit tests for scenarios, scenes, requirements and the rejection sampler."""

import math
import random

import pytest

from repro.core import (
    At,
    Facing,
    In,
    Object,
    Range,
    RejectionError,
    Requirement,
    ScenarioBuilder,
    Scenario,
    Vector,
    Workspace,
    With,
    can_see,
    distance_between,
)
from repro.core.errors import InvalidScenarioError
from repro.core.regions import CircularRegion, PolygonalRegion
from repro.geometry.polygon import Polygon


def small_workspace(size: float = 40.0) -> Workspace:
    half = size / 2
    return Workspace(
        PolygonalRegion([Polygon([(-half, -half), (half, -half), (half, half), (-half, half)])])
    )


class TestScenarioBasics:
    def test_requires_an_ego(self):
        with ScenarioBuilder() as builder:
            Object(At((0, 0)))
        with pytest.raises(InvalidScenarioError):
            builder.scenario()

    def test_ego_added_to_objects_if_missing(self):
        ego = Object(At((0, 0)))
        scenario = Scenario(objects=[], ego=ego)
        assert ego in scenario.objects

    def test_generation_produces_concrete_scene(self):
        with ScenarioBuilder() as builder:
            ego = builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            Object(At((Range(3, 6), Range(3, 6))), width=1, height=1)
        scene = builder.scenario().generate(seed=0)
        assert len(scene.objects) == 2
        other = scene.non_ego_objects[0]
        assert 3 <= Vector.from_any(other.position).x <= 6
        assert not isinstance(other.properties["position"], Range)

    def test_scene_queries(self, simple_scene):
        assert len(simple_scene) == 2
        assert simple_scene.closest_object_to(simple_scene.ego) is not None
        assert not simple_scene.has_collisions()
        exported = simple_scene.to_dict()
        assert len(exported["objects"]) == 2
        assert isinstance(simple_scene.ascii_render(), str)


class TestBuiltinRequirements:
    def test_collisions_are_rejected(self):
        # Two objects forced to overlap can never produce a valid scene.
        with ScenarioBuilder() as builder:
            builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            Object(At((0.2, 0.2)), Facing(0.0))
        with pytest.raises(RejectionError):
            builder.scenario().generate(max_iterations=50, seed=0)

    def test_allow_collisions_escape_hatch(self):
        with ScenarioBuilder() as builder:
            builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            Object(At((0.2, 0.2)), Facing(0.0), allowCollisions=True)
        scene = builder.scenario().generate(max_iterations=50, seed=0)
        assert len(scene.objects) == 2

    def test_visibility_requirement(self):
        # The second object sits behind a narrow-view ego and is never visible.
        with ScenarioBuilder() as builder:
            builder.set_ego(
                Object(At((0, 0)), Facing(0.0), With("viewAngle", math.radians(30)))
            )
            Object(At((0, -10)), Facing(0.0))
        with pytest.raises(RejectionError):
            builder.scenario().generate(max_iterations=50, seed=0)

    def test_require_visible_false_disables_the_check(self):
        with ScenarioBuilder() as builder:
            builder.set_ego(
                Object(At((0, 0)), Facing(0.0), With("viewAngle", math.radians(30)))
            )
            Object(At((0, -10)), Facing(0.0), requireVisible=False)
        scene = builder.scenario().generate(max_iterations=50, seed=0)
        assert len(scene.objects) == 2

    def test_workspace_containment(self):
        workspace = small_workspace(10.0)
        with ScenarioBuilder(workspace=workspace) as builder:
            builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            Object(At((20, 20)), Facing(0.0), requireVisible=False)
        with pytest.raises(RejectionError):
            builder.scenario().generate(max_iterations=50, seed=0)

    def test_rejection_statistics_recorded(self):
        region = CircularRegion((0, 0), 15.0)
        with ScenarioBuilder(workspace=small_workspace()) as builder:
            builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            Object(In(region), width=1, height=1)
        scenario = builder.scenario()
        scenario.generate(seed=3)
        stats = scenario.last_stats
        assert stats.iterations >= 1
        assert stats.total_rejections == stats.iterations - 1


class TestUserRequirements:
    def test_hard_requirement_filters_scenes(self):
        region = CircularRegion((0, 0), 20.0)
        with ScenarioBuilder(workspace=small_workspace(100)) as builder:
            ego = builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            other = Object(In(region), width=0.5, height=0.5)
            builder.require(distance_between(ego.position, other.properties["position"]) <= 5.0)
        scenario = builder.scenario()
        rng = random.Random(0)
        for _ in range(10):
            scene = scenario.generate(rng=rng)
            assert scene.distance_between(scene.ego, scene.non_ego_objects[0]) <= 5.0 + 1e-6

    def test_unsatisfiable_requirement_raises(self):
        with ScenarioBuilder() as builder:
            ego = builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            builder.require(False)
        with pytest.raises(RejectionError):
            builder.scenario().generate(max_iterations=20, seed=0)

    def test_soft_requirement_holds_with_at_least_its_probability(self):
        # require[0.9] B, where B is "other within 25 m of the ego" and other
        # is uniform over a radius-50 disc around the ego: B holds in a
        # candidate with probability q = (25/50)^2 = 0.25.  A candidate is
        # accepted when B holds or its 0.9 coin skips the check, so accepted
        # scenes satisfy B with probability q / (1 - p + p*q) = 0.25 / 0.325
        # ~= 0.769: well above q, though below p.  Over 8,000 scenes one
        # standard error is 0.0047, and the band below is +-4 of them, so a
        # correct sampler leaves it about once in 16,000 seeds.
        region = CircularRegion((0, 0), 50.0)
        with ScenarioBuilder(workspace=small_workspace(200)) as builder:
            ego = builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            other = Object(In(region), width=0.5, height=0.5, requireVisible=False)
            builder.require(
                distance_between(ego.position, other.properties["position"]) <= 25.0,
                probability=0.9,
            )
        scenario = builder.scenario()
        total = 8000
        scenes = scenario.generate_batch(total, rng=random.Random(1), strategy="rejection")
        satisfied = sum(
            scene.distance_between(scene.ego, scene.non_ego_objects[0]) <= 25.0
            for scene in scenes
        )
        assert 0.7504 <= satisfied / total <= 0.7881

    def test_callable_requirements_receive_a_resolver(self):
        with ScenarioBuilder() as builder:
            ego = builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            other = Object(At((Range(2, 10), 0)), Facing(0.0), width=1, height=1)
            builder.require(lambda resolve: resolve(other).position.x >= 5.0)
        scenario = builder.scenario()
        scene = scenario.generate(seed=0)
        assert Vector.from_any(scene.non_ego_objects[0].position).x >= 5.0

    def test_requirement_probability_validation(self):
        with pytest.raises(Exception):
            Requirement(True, probability=1.5)


class TestBatchGeneration:
    def test_generate_batch_counts(self):
        with ScenarioBuilder() as builder:
            builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            Object(At((Range(3, 6), 3)), width=1, height=1)
        scenes = builder.scenario().generate_batch(5, seed=1)
        assert len(scenes) == 5
        positions = {Vector.from_any(s.non_ego_objects[0].position).x for s in scenes}
        assert len(positions) > 1  # independent draws
