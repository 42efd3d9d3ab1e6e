"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random

import pytest

from repro.core.vectors import Vector
from repro.geometry.polygon import Polygon


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for sampling-based tests."""
    return random.Random(12345)


@pytest.fixture
def new_shm_segments():
    """A callable naming the ``/dev/shm`` entries created since the test began."""

    def listing():
        return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()

    before = listing()
    return lambda: listing() - before


@pytest.fixture
def unit_square() -> Polygon:
    return Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture
def l_shape() -> Polygon:
    """A non-convex (L-shaped) polygon used by geometry tests."""
    return Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])


@pytest.fixture
def road_map():
    """The shared default GTA-like road map (module-cached, cheap to reuse)."""
    from repro.worlds.gta.roads import default_map

    return default_map()


@pytest.fixture
def simple_scene():
    """A small concrete scene: an ego at the origin and one car ahead of it."""
    from repro.core import At, Facing, Object, ScenarioBuilder, Vector

    with ScenarioBuilder() as builder:
        ego = Object(At(Vector(0, 0)), Facing(0.0), width=2.0, height=4.5)
        builder.set_ego(ego)
        Object(At(Vector(1.0, 12.0)), Facing(0.1), width=2.0, height=4.5)
    scenario = builder.scenario()
    return scenario.generate(seed=0)
