"""One corners pass per block or candidate, with the corners of before.

``kernel.corners_array`` fills one column array for all its objects.  A
``vectorized`` block computes its corners in one call over the ``K * N``
live objects, and the scalar chain ``geometry_failure`` computes a
candidate's corners once for both containment and collisions.  These tests
pin that the corners are the ones the object-by-object code computed, that
one call over a block equals the per-candidate arrays stacked, and that the
checks give the same verdicts.
"""

from __future__ import annotations

import collections
import math
import random
from pathlib import Path

import numpy as np
import pytest

from repro.core.objects import Object
from repro.core.vectors import Vector
from repro.geometry import kernel
from repro.language import scenario_from_file
from repro.sampling.strategies import VectorizedSampler, geometry_failure

SCENARIOS = Path(__file__).resolve().parents[1] / "examples" / "scenarios"


def reference_corners_array(objects) -> np.ndarray:
    """The corners as computed object by object, before the column array."""
    n = len(objects)
    if n == 0:
        return np.zeros((0, 4, 2), dtype=float)
    positions = np.empty((n, 2), dtype=float)
    headings = np.empty(n, dtype=float)
    half_w = np.empty(n, dtype=float)
    half_h = np.empty(n, dtype=float)
    for index, scenic_object in enumerate(objects):
        position = scenic_object.position
        if hasattr(position, "x"):
            positions[index, 0] = position.x
            positions[index, 1] = position.y
        else:
            positions[index, 0] = position[0]
            positions[index, 1] = position[1]
        headings[index] = float(scenic_object.heading)
        half_w[index] = float(scenic_object.width) / 2.0
        half_h[index] = float(scenic_object.height) / 2.0
    local_x = np.stack([half_w, -half_w, -half_w, half_w], axis=1)
    local_y = np.stack([half_h, half_h, -half_h, -half_h], axis=1)
    cos_h = np.cos(headings)[:, None]
    sin_h = np.sin(headings)[:, None]
    world_x = local_x * cos_h - local_y * sin_h + positions[:, 0:1]
    world_y = local_x * sin_h + local_y * cos_h + positions[:, 1:2]
    return np.stack([world_x, world_y], axis=2)


def mixed_objects(rng: random.Random, count: int):
    """Objects with Vector, tuple and list positions, and some integer
    headings and sizes."""
    objects = []
    for index in range(count):
        x, y = rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)
        position = (Vector(x, y), (x, y), [x, y], (int(x), int(y)))[index % 4]
        heading = rng.choice((rng.uniform(-4.0, 4.0), rng.randint(-3, 3), math.pi))
        width = rng.choice((rng.uniform(0.1, 6.0), rng.randint(1, 5)))
        height = rng.choice((rng.uniform(0.1, 6.0), rng.randint(1, 5)))
        objects.append(
            Object._make(position=position, heading=heading, width=width, height=height,
                         allowCollisions=False)
        )
    return objects


@pytest.mark.parametrize("count", [1, 2, 5, 13, 64])
def test_corners_array_matches_the_object_by_object_corners(count):
    objects = mixed_objects(random.Random(count), count)
    assert np.array_equal(kernel.corners_array(objects), reference_corners_array(objects))


@pytest.mark.parametrize("candidates,objects_each", [(1, 4), (3, 5), (32, 7), (9, 1)])
def test_one_call_over_a_block_equals_the_stacked_candidates(candidates, objects_each):
    rng = random.Random(candidates * 100 + objects_each)
    block = [mixed_objects(rng, objects_each) for _ in range(candidates)]
    stacked = np.stack([kernel.corners_array(objects) for objects in block])
    flat = [scenic_object for objects in block for scenic_object in objects]
    one_pass = kernel.corners_array(flat).reshape(candidates, objects_each, 4, 2)
    assert np.array_equal(one_pass, stacked)
    assert np.array_equal(one_pass, np.stack([reference_corners_array(o) for o in block]))


def drawn_block(name: str, size: int, seed: int):
    scenario = scenario_from_file(SCENARIOS / name)
    sampler = VectorizedSampler()
    sampler.bind(scenario)
    rng = random.Random(seed)
    return scenario, sampler, [sampler._draw(scenario, rng) for _ in range(size)]


def test_block_pass_equals_the_scalar_chain_on_a_gtalib_block():
    scenario, sampler, block = drawn_block("four_cars_bad_conditions.scenic", 96, seed=3)
    failures = sampler._geometry_failures(scenario, block)
    expected = [
        drawn if isinstance(drawn, str) else geometry_failure(scenario.workspace, drawn.objects)
        for drawn in block
    ]
    assert failures == expected
    causes = collections.Counter(failures)
    assert causes["containment"] and causes["collision"] and causes[None], causes


def test_a_block_of_one_gives_the_block_pass_cause_on_a_gtalib_block():
    """``vectorized``'s first block, one candidate, is checked like a block.

    A block of one takes the same verdict pass as a block of 96; over drawn
    gtaLib candidates with all three outcomes, each one alone gets the cause
    it gets in the large block.
    """
    scenario, sampler, block = drawn_block("four_cars_bad_conditions.scenic", 96, seed=5)
    in_block = sampler._geometry_failures(scenario, block)
    alone = [sampler._geometry_failures(scenario, [drawn])[0] for drawn in block]
    assert alone == in_block
    causes = collections.Counter(alone)
    assert causes["containment"] and causes["collision"] and causes[None], causes


def test_geometry_failure_computes_corners_at_most_once(monkeypatch):
    scenario, _sampler, block = drawn_block("four_cars_bad_conditions.scenic", 96, seed=4)
    assert len(scenario.objects) >= 4
    calls = []
    original = kernel.corners_array

    def counting(objects):
        calls.append(len(objects))
        return original(objects)

    monkeypatch.setattr(kernel, "corners_array", counting)
    past_containment = 0
    for drawn in block:
        calls.clear()
        cause = geometry_failure(scenario.workspace, drawn.objects)
        assert len(calls) <= 1, cause
        if cause != "containment":
            past_containment += 1
            assert len(calls) == 1
    assert past_containment >= 5  # candidates that ran both checks
