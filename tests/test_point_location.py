"""Point location gives the verdicts of the plain ray cast, exactly.

``Polygon.contains_point`` runs its ray cast over a per-polygon edge table
built once, and ``Polygon.distance_to_point``, ``PolygonalVectorField``'s
cell lookup and its outside-every-cell fallback all go through it.  This
module keeps a frozen copy of the plain, vertex-by-vertex ray cast (on-edge
test first on every edge), of its on-edge test and of the point-to-polygon
distance, and checks that the table gives the same booleans, distances and
headings, bit for bit, on polygons and points chosen to sit on, just inside
and just outside the on-edge tolerance.

The batched locator (``repro.geometry.kernel.PolygonTable``), which serves
``PolygonalRegion.contains_points_batch`` and
``PolygonalVectorField.value_at_points``, is held to the scalar lookups the
same way: any holder for containment, the lowest-index holder for a field.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core.regions import PolygonalRegion
from repro.core.utils import normalize_angle
from repro.core.vectorfields import PolygonalVectorField
from repro.core.vectors import Vector
from repro.evals.corpus import Manifest
from repro.fuzz.oracles import run_oracles
from repro.geometry import kernel
from repro.geometry.polygon import BoundingBox, Polygon, on_edge_reach, point_in_polygon
from repro.geometry.spatial_index import SpatialGrid
from repro.language import scenario_from_string

# ---------------------------------------------------------------------------
# The reference: the plain ray cast, frozen
# ---------------------------------------------------------------------------


def reference_point_in_polygon(point, vertices) -> bool:
    point = Vector.from_any(point)
    count = len(vertices)
    inside = False
    j = count - 1
    for i in range(count):
        vi, vj = vertices[i], vertices[j]
        if reference_point_on_segment(point, vi, vj):
            return True
        if (vi.y > point.y) != (vj.y > point.y):
            slope_x = vj.x + (point.y - vj.y) * (vi.x - vj.x) / (vi.y - vj.y)
            if point.x < slope_x:
                inside = not inside
        j = i
    return inside


def reference_point_on_segment(point, a, b, tolerance: float = 1e-9) -> bool:
    if a == b:
        # A zero-length segment (a repeated vertex) holds no point of its
        # own: the polygon is the one without the repeat, whose neighbouring
        # edges hold the vertex.
        return False
    cross = (b.x - a.x) * (point.y - a.y) - (b.y - a.y) * (point.x - a.x)
    if abs(cross) > tolerance * max(1.0, a.distance_to(b)):
        return False
    dot = (point.x - a.x) * (b.x - a.x) + (point.y - a.y) * (b.y - a.y)
    return -tolerance <= dot <= (b.x - a.x) ** 2 + (b.y - a.y) ** 2 + tolerance


def reference_point_segment_distance(point, a, b) -> float:
    segment = b - a
    length_sq = segment.dot(segment)
    if length_sq == 0:
        return point.distance_to(a)
    t = max(0.0, min(1.0, (point - a).dot(segment) / length_sq))
    projection = a + segment * t
    return point.distance_to(projection)


def reference_distance_to_point(polygon, point) -> float:
    point = Vector.from_any(point)
    if reference_point_in_polygon(point, polygon.vertices):
        return 0.0
    return min(reference_point_segment_distance(point, a, b) for a, b in polygon.edges())


# ---------------------------------------------------------------------------
# Polygons and points
# ---------------------------------------------------------------------------

SCALES = (1e-3, 1e-1, 1.0, 37.5, 1e4)

#: Offsets along an edge's unit normal: on the edge, far inside the 1e-9
#: tolerance, either side of it, and well outside it.
NORMAL_OFFSETS = (0.0, 1e-12, -1e-12, 5e-10, -5e-10, 2e-9, -2e-9, 1e-7)


def _star(rng: random.Random, count: int, convex: bool):
    """Vertices at sorted angles around the origin; equal radii make it convex."""
    angles = sorted(rng.uniform(0.0, math.tau) for _ in range(count))
    if convex:
        return [(math.cos(angle), math.sin(angle)) for angle in angles]
    return [
        (radius * math.cos(angle), radius * math.sin(angle))
        for angle, radius in ((angle, rng.uniform(0.3, 1.0)) for angle in angles)
    ]


def make_polygon(rng: random.Random, kind: str, scale: float) -> Polygon:
    count = rng.randint(3, 9)
    vertices = _star(rng, count, convex=(kind == "convex"))
    offset_x, offset_y = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    vertices = [((x + offset_x) * scale, (y + offset_y) * scale) for x, y in vertices]
    if kind == "duplicate":
        # A zero-length edge: one vertex repeated in place.
        index = rng.randrange(len(vertices))
        vertices.insert(index, vertices[index])
    elif kind == "integer":
        vertices = [(float(round(x)), float(round(y))) for x, y in vertices]
        if len(set(vertices)) < 3:
            vertices = [(0.0, 0.0), (3.0, 0.0), (1.0, 2.0)]
    return Polygon(vertices)


def probe_points(rng: random.Random, polygon: Polygon, random_count: int = 12):
    """Vertices, edge midpoints and random edge points, each pushed along the
    edge normal by every offset, plus random points around the polygon."""
    points = []
    for a, b in polygon.edges():
        length = a.distance_to(b)
        normal = Vector(0.0, 0.0) if length == 0 else Vector(a.y - b.y, b.x - a.x) / length
        for t in (0.0, 0.5, rng.random(), rng.random()):
            base = a + (b - a) * t
            points.extend(base + normal * offset for offset in NORMAL_OFFSETS)
    box = polygon.bounding_box().expanded(0.25 * max(polygon.bounding_box().width, 1e-3))
    points.extend(box.sample_point(rng) for _ in range(random_count))
    return points


POLYGON_KINDS = ("convex", "concave", "duplicate", "integer")


@pytest.mark.parametrize("kind", POLYGON_KINDS)
@pytest.mark.parametrize("scale", SCALES)
def test_polygon_point_location_matches_the_plain_ray_cast(kind, scale):
    rng = random.Random(f"{kind}-{scale}")
    checked = 0
    for _ in range(12):
        polygon = make_polygon(rng, kind, scale)
        for point in probe_points(rng, polygon):
            expected = reference_point_in_polygon(point, polygon.vertices)
            assert polygon.contains_point(point) is expected, (polygon, point)
            assert point_in_polygon(point, polygon.vertices) is expected, (polygon, point)
            assert point_in_polygon(point.to_tuple(), polygon.vertices) is expected
            distance = polygon.distance_to_point(point)
            assert distance == reference_distance_to_point(polygon, point), (polygon, point)
            checked += 1
    assert checked > 1000


def test_both_verdicts_occur_at_the_tolerance():
    """The probes straddle the on-edge tolerance: on-edge points inside, and
    points just beyond the tolerance outside."""
    square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert square.contains_point((0.5, -5e-10))
    assert not square.contains_point((0.5, -2e-9))
    assert square.contains_point((1.0 + 5e-10, 0.5))
    assert not square.contains_point((1.0 + 2e-9, 0.5))


def test_polygonal_region_contains_point_matches_the_plain_ray_cast():
    rng = random.Random(3)
    for piece_count in (3, 12):  # linear scan and grid path
        pieces = [make_polygon(rng, "concave", 5.0) for _ in range(piece_count)]
        region = PolygonalRegion(pieces)
        points = [point for piece in pieces[:4] for point in probe_points(rng, piece, 40)]
        for point in points:
            expected = any(
                reference_point_in_polygon(point, piece.vertices) for piece in pieces
            )
            assert region.contains_point(point) is expected, point


def test_a_repeated_vertex_contains_only_what_the_polygon_does():
    """A zero-length edge gets no on-edge test: far points stay outside.

    Its cross and dot products are 0 for every point, so an on-edge test
    would put the whole plane inside.  The vertex itself is still inside,
    through the two neighbouring edges.
    """
    square = Polygon([(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)])
    for point in ((500, -300), (0.5, 2.0), (1.0 + 2e-9, 0.0), (-1.0, 0.5)):
        assert not square.contains_point(point), point
        assert not point_in_polygon(point, square.vertices), point
    for point in ((1.0, 0.0), (1.0, 0.0 - 5e-10), (1.0 + 5e-10, 0.0), (0.5, 0.5), (1.0, 0.5)):
        assert square.contains_point(point), point


@pytest.mark.parametrize("scale", SCALES)
def test_scalar_kernel_and_region_batch_agree_on_repeated_vertices(scale):
    """Every path gives a duplicate-vertex polygon the same verdicts.

    ``Polygon.contains_point``, the numpy kernel, and a region's scalar and
    batch containment, on the probes of every edge and on random points
    around and far from the polygon (the batch prefilters by bounding box):
    the verdicts of the same polygon without its repeated vertex.
    """
    rng = random.Random(f"duplicate-paths-{scale}")
    checked = inside = 0
    for _ in range(12):
        polygon = make_polygon(rng, "duplicate", scale)
        points = probe_points(rng, polygon, random_count=40)
        box = polygon.bounding_box().expanded(5.0 * max(polygon.bounding_box().width, 1e-3))
        points += [box.sample_point(rng) for _ in range(40)]
        scalar = [polygon.contains_point(point) for point in points]
        vertices = polygon.vertices
        once = Polygon([v for i, v in enumerate(vertices) if v != vertices[i - 1]])
        assert len(once.vertices) == len(vertices) - 1
        assert [once.contains_point(point) for point in points] == scalar
        array = np.array([point.to_tuple() for point in points])
        region = PolygonalRegion([polygon])
        assert kernel.points_in_polygon(
            np.array([(v.x, v.y) for v in polygon.vertices]), array
        ).tolist() == scalar
        assert region.contains_points_batch(array).tolist() == scalar
        assert [region.contains_point(point) for point in points] == scalar
        checked += len(points)
        inside += sum(scalar)
    assert checked > 1000 and 0 < inside < checked


# ---------------------------------------------------------------------------
# Vector fields: cell lookup, and the outside-every-cell fallback
# ---------------------------------------------------------------------------


def reference_heading(field: PolygonalVectorField, point) -> float:
    """The field's heading by a plain linear scan over its cells."""
    point = Vector.from_any(point)
    for polygon, heading in field.cells:
        if reference_point_in_polygon(point, polygon.vertices):
            return normalize_angle(heading)
    nearest = min(field.cells, key=lambda cell: reference_distance_to_point(cell[0], point))
    return normalize_angle(nearest[1])


def _check_field(field: PolygonalVectorField, points) -> int:
    outside = 0
    for point in points:
        expected = reference_heading(field, point)
        assert field.value_at(point) == expected, point
        if field.cell_at(point) is None:
            outside += 1
            nearest = min(
                field.cells, key=lambda cell: reference_distance_to_point(cell[0], point)
            )
            assert field.nearest_cell(point) == nearest, point
    return outside


def test_road_direction_matches_a_linear_scan(road_map):
    field = road_map.road_direction
    assert len(field.cells) >= PolygonalVectorField._GRID_MIN_CELLS  # the grid path
    rng = random.Random(11)
    box = road_map.workspace.region.bounding_box().expanded(30.0)
    points = [box.sample_point(rng) for _ in range(200)]
    for polygon, _heading in rng.sample(field.cells, 12):
        points.extend(probe_points(rng, polygon, random_count=0)[::3])
    outside = _check_field(field, points)
    assert outside >= 50  # the nearest-cell fallback is exercised


def test_small_field_matches_a_linear_scan():
    rng = random.Random(5)
    # A row of squares sharing edges, an L-shaped cell against them and a
    # random concave cell: outside points nearest a shared vertex or edge
    # tie between cells, and the first cell in cell order must win.
    squares = [Polygon([(x, 0), (x + 4, 0), (x + 4, 4), (x, 4)]) for x in (0, 4, 8)]
    l_shape = Polygon([(0, 4), (4, 4), (4, 6), (2, 6), (2, 8), (0, 8)])
    cells = [(polygon, rng.uniform(-4.0, 4.0)) for polygon in squares + [l_shape]]
    cells.append((make_polygon(rng, "concave", 3.0), 1.0))
    field = PolygonalVectorField("small", cells)
    assert len(field.cells) < PolygonalVectorField._GRID_MIN_CELLS  # the scan path
    box = BoundingBox(-20.0, -20.0, 20.0, 20.0)  # around every cell
    points = [box.sample_point(rng) for _ in range(400)]
    points += [Vector(x, y) for x in (4.0, 8.0) for y in (-3.0, -0.5, 7.0)]
    for polygon, _heading in cells:
        points.extend(probe_points(rng, polygon, random_count=0))
    outside = _check_field(field, points)
    assert outside >= 100


def test_bucket_for_point_matches_numpy_floor():
    rng = np.random.default_rng(2)
    boxes = rng.uniform(-50.0, 50.0, size=(40, 2))
    boxes = np.concatenate([boxes, boxes + rng.uniform(0.5, 9.0, size=(40, 2))], axis=1)
    grid = SpatialGrid(boxes)
    ox, oy = grid.origin
    for x, y in rng.uniform(-70.0, 70.0, size=(500, 2)):
        x, y = float(x), float(y)
        key = (int(np.floor((x - ox) / grid.cell_size)), int(np.floor((y - oy) / grid.cell_size)))
        assert list(grid.bucket_for_point(x, y)) == list(grid._cells.get(key, ()))


# ---------------------------------------------------------------------------
# Short edges: the grid's box padding covers their on-edge reach
# ---------------------------------------------------------------------------


def short_edge_cells():
    """A triangle with a 1e-4 edge above a square, and seven far unit squares.

    The triangle holds points up to ``1e-9 / 1e-4 = 1e-5`` below its short
    edge, further than a 1e-6 box padding reaches, and the square holds
    some of them too: only the triangle's box says which cell comes first.
    """
    cells = [
        (Polygon([(0, 0), (1e-4, 0), (0, 1)]), 1.0),
        (Polygon([(-1, -2.000004), (1, -2.000004), (1, -4e-6), (-1, -4e-6)]), 2.0),
    ]
    cells += [
        (Polygon([(x, 10), (x + 1, 10), (x + 1, 11), (x, 11)]), 0.1 * x)
        for x in range(10, 17)
    ]
    return cells


def test_on_edge_reach_bounds_the_tolerance():
    triangle = short_edge_cells()[0][0]
    assert on_edge_reach(triangle.vertices) == pytest.approx(2e-5)
    assert on_edge_reach(Polygon([(0, 0), (5, 0), (5, 5), (0, 5)]).vertices) == 2e-9
    # Just inside the reach below the short edge: the triangle holds it.
    assert triangle.contains_point((5e-5, -5e-6))
    assert not triangle.contains_point((5e-5, -2e-5))


def test_on_edge_reach_covers_every_accepted_point_per_axis():
    """Box padding by the reach keeps every point the on-edge test accepts.

    Probes the far corners of a short edge's acceptance region, just inside
    both the cross bound and the dot bound, at random angles: each accepted
    point lies within the reach of the polygon's bounding box in each axis.
    """
    rng = random.Random(23)
    accepted = 0
    for _ in range(200):
        length = 10 ** rng.uniform(-5.0, 0.5)
        angle = rng.uniform(0.0, math.tau)
        unit = Vector(math.cos(angle), math.sin(angle))
        normal = Vector(-unit.y, unit.x)
        a = Vector(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        b = a + unit * length
        polygon = Polygon([a, b, b + normal * 2.0 - unit * 0.5])
        reach = on_edge_reach(polygon.vertices)
        box = polygon.bounding_box()
        across = 0.99e-9 * max(1.0, length) / length
        beyond = 0.99e-9 / length
        for end, outward in ((a, -unit), (b, unit)):
            for side in (-1.0, 1.0):
                point = end + outward * beyond + normal * (side * across)
                if not polygon.contains_point(point):
                    continue
                accepted += 1
                assert box.min_x - reach <= point.x <= box.max_x + reach, (polygon, point)
                assert box.min_y - reach <= point.y <= box.max_y + reach, (polygon, point)
    assert accepted >= 300


def test_grid_field_on_short_edges_matches_a_linear_scan():
    """``cell_at``, ``value_at`` and ``nearest_cell`` equal a linear scan.

    The field has 9 cells, so it takes the grid path; the probes crowd the
    triangle's 1e-4 edge, within and beyond its on-edge reach.
    """
    cells = short_edge_cells()
    field = PolygonalVectorField("short", cells)
    assert len(field.cells) >= PolygonalVectorField._GRID_MIN_CELLS  # the grid path
    rng = random.Random(17)
    points = [Vector(5e-5, -5e-6)]
    points += [Vector(rng.uniform(-1e-4, 2e-4), rng.uniform(-3e-5, 1e-5)) for _ in range(400)]
    points += [Vector(rng.uniform(-3.0, 20.0), rng.uniform(-4.0, 13.0)) for _ in range(200)]
    for polygon, _heading in cells[:2]:
        points.extend(probe_points(rng, polygon, random_count=20))
    in_triangle_only_by_reach = 0
    for point in points:
        scanned = next(
            (cell for cell in field.cells
             if reference_point_in_polygon(point, cell[0].vertices)),
            None,
        )
        assert field.cell_at(point) == scanned, point
        assert field.value_at(point) == reference_heading(field, point), point
        if scanned is None:
            nearest = min(
                field.cells, key=lambda cell: reference_distance_to_point(cell[0], point)
            )
            assert field.nearest_cell(point) == nearest, point
        elif scanned[1] == 1.0 and point.y < -1e-6:
            in_triangle_only_by_reach += 1
    assert field.value_at((5e-5, -5e-6)) == 1.0
    assert in_triangle_only_by_reach >= 20


def _batched_and_scalar_lookups(field, points):
    xs = np.array([point.x for point in points])
    ys = np.array([point.y for point in points])
    return field.value_at_points(xs, ys).tolist(), [field.value_at(point) for point in points]


def test_batched_field_lookup_equals_value_at():
    """``value_at_points`` gives ``value_at``'s heading, bit for bit, at every point.

    On the short-edge grid field (edge-crowding probes and points outside
    every cell), on a field too small for a grid, and on the GTA road map.
    """
    from repro.worlds.gta.roads import default_map

    rng = random.Random(23)
    cells = short_edge_cells()
    points = [Vector(rng.uniform(-1e-4, 2e-4), rng.uniform(-3e-5, 1e-5)) for _ in range(300)]
    points += [Vector(rng.uniform(-3.0, 20.0), rng.uniform(-4.0, 13.0)) for _ in range(200)]
    for polygon, _heading in cells[:2]:
        points.extend(probe_points(rng, polygon, random_count=20))
    road = default_map().road_direction
    box = BoundingBox.of_points(vertex for polygon, _ in road.cells for vertex in polygon.vertices)
    road_points = [
        Vector(rng.uniform(box.min_x - 30, box.max_x + 30), rng.uniform(box.min_y - 30, box.max_y + 30))
        for _ in range(1500)
    ]
    for polygon, _heading in road.cells[:10]:
        road_points.extend(probe_points(rng, polygon, random_count=5))
    fields = [
        (PolygonalVectorField("short", cells), points),
        (PolygonalVectorField("small", cells[:5]), points),
        (PolygonalVectorField("copy of the road map", road.cells), road_points),
    ]
    assert len(fields[0][0].cells) >= PolygonalVectorField._GRID_MIN_CELLS > len(fields[1][0].cells)
    for field, probes in fields:
        batched, scalar = _batched_and_scalar_lookups(field, probes)
        assert batched == scalar, field.name
    outside = [point for point in road_points if road.cell_at(point) is None]
    assert len(outside) >= 100


def test_batched_field_lookup_rejects_points_that_are_not_finite():
    field = PolygonalVectorField("short", short_edge_cells())
    with pytest.raises(ValueError):
        field.value_at_points(np.array([0.0, math.inf]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        field.value_at((math.nan, 0.0))


def test_grid_region_on_short_edges_matches_a_linear_scan():
    """A region's grid and batch paths see the same short-edge reach."""
    pieces = [polygon for polygon, _heading in short_edge_cells()] * 2
    region = PolygonalRegion(pieces)
    assert len(pieces) >= PolygonalRegion._GRID_MIN_POLYGONS  # the grid path
    rng = random.Random(19)
    points = [Vector(rng.uniform(-1e-4, 2e-4), rng.uniform(-3e-5, 1e-5)) for _ in range(400)]
    points += probe_points(rng, pieces[0], random_count=20)
    expected = [
        any(reference_point_in_polygon(point, piece.vertices) for piece in pieces)
        for point in points
    ]
    assert [region.contains_point(point) for point in points] == expected
    array = np.array([point.to_tuple() for point in points])
    assert region.contains_points_batch(array).tolist() == expected


# ---------------------------------------------------------------------------
# The batched locator: one polygon table per region or field
# ---------------------------------------------------------------------------


def mixed_union(rng: random.Random, count: int, scale: float):
    """*count* pieces: triangles, concave and duplicate-vertex polygons, and
    a last piece that is the first triangle shrunk about its centroid, so
    the points on and near its edges lie in two pieces."""
    kinds = ("triangle", "concave", "duplicate", "convex")
    pieces = []
    for index in range(count - 1):
        kind = kinds[index % len(kinds)]
        if kind == "triangle":
            offset_x, offset_y = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
            pieces.append(Polygon([
                ((x + offset_x) * scale, (y + offset_y) * scale)
                for x, y in _star(rng, 3, convex=True)
            ]))
        else:
            pieces.append(make_polygon(rng, kind, scale))
    center = pieces[0].centroid
    pieces.append(Polygon([center + (v - center) * 0.5 for v in pieces[0].vertices]))
    return pieces


@pytest.mark.parametrize("piece_count", (3, 12))
@pytest.mark.parametrize("scale", SCALES)
def test_batched_containment_equals_contains_point(piece_count, scale):
    """``contains_points_batch`` equals ``contains_point`` on every probe.

    Three pieces take the scalar scan and twelve its grid; both unions mix
    triangles, concave and duplicate-vertex polygons and overlapping pieces,
    probed on, just inside and just outside every edge and vertex.
    """
    rng = random.Random(f"union-{piece_count}-{scale}")
    pieces = mixed_union(rng, piece_count, scale)
    region = PolygonalRegion(pieces)
    points = [point for piece in pieces for point in probe_points(rng, piece, random_count=10)]
    scalar = [region.contains_point(point) for point in points]
    array = np.array([point.to_tuple() for point in points])
    assert region.contains_points_batch(array).tolist() == scalar
    held_twice = sum(sum(piece.contains_point(point) for piece in pieces) >= 2 for point in points)
    assert held_twice > 0 and 0 < sum(scalar) < len(points)


@pytest.mark.parametrize("piece_count", (3, 12))
def test_batched_containment_of_no_points(piece_count):
    region = PolygonalRegion(mixed_union(random.Random(piece_count), piece_count, 1.0))
    assert region.contains_points_batch(np.zeros((0, 2))).shape == (0,)
    assert region.contains_points_batch([]).shape == (0,)


def five_cells():
    """Three squares in a row sharing edges, a triangle on the first one's top
    edge, and a rectangle over the first two squares' shared edge."""
    squares = [Polygon([(x, 0), (x + 4, 0), (x + 4, 4), (x, 4)]) for x in (0, 4, 8)]
    triangle = Polygon([(0, 4), (4, 4), (2, 7)])
    overlap = Polygon([(2, 1), (6, 1), (6, 3), (2, 3)])
    return [(polygon, 0.5 * index - 1.0) for index, polygon in enumerate(squares + [triangle, overlap])]


def test_batched_lookup_takes_the_lowest_index_cell(road_map):
    """``value_at_points`` equals ``value_at`` where two or more cells hold a point.

    On the five-cell field and on the road map, at every cell's vertices and
    edge points (on the edge, and either side of it within the tolerance),
    where neighbouring cells share an edge, and at random points in and
    around the map, outside every cell included.
    """
    rng = random.Random(31)
    fields = [PolygonalVectorField("five cells", five_cells()), road_map.road_direction]
    assert len(fields[0].cells) < PolygonalVectorField._GRID_MIN_CELLS <= len(fields[1].cells)
    for field in fields:
        points = []
        for polygon, _heading in field.cells:
            points.extend(probe_points(rng, polygon, random_count=2))
        box = BoundingBox.of_points(v for polygon, _ in field.cells for v in polygon.vertices)
        box = box.expanded(5.0)
        points += [box.sample_point(rng) for _ in range(300)]
        batched, scalar = _batched_and_scalar_lookups(field, points)
        assert batched == scalar, field.name
        held_twice = sum(
            sum(polygon.contains_point(point) for polygon, _ in field.cells) >= 2
            for point in points
        )
        outside = sum(field.cell_at(point) is None for point in points)
        assert held_twice >= 50 and outside >= 20, field.name
    xs, ys = np.zeros(0), np.zeros(0)
    assert fields[0].value_at_points(xs, ys).shape == (0,)


GTA_PROGRAM = "import gtaLib\nego = Car\n"


def test_run_oracles_flags_a_batched_lookup_that_sends_off_map_points_to_cell_0(monkeypatch):
    """Oracle B compares the road map's batched lookups with ``value_at``."""
    assert run_oracles(GTA_PROGRAM, seed=3).verdict == "pass"
    first_holders = kernel.PolygonTable.first_holders

    def to_cell_0(table, xs, ys):
        return np.maximum(first_holders(table, xs, ys), 0)

    monkeypatch.setattr(kernel.PolygonTable, "first_holders", to_cell_0)
    report = run_oracles(GTA_PROGRAM, seed=3)
    assert report.verdict == "fail"
    assert {failure.oracle for failure in report.failures} == {"kernel"}
    assert "value_at_points mismatch on roadDirection" in report.failures[0].detail


@pytest.mark.slow
def test_corpus_workspaces_locate_probes_batched_as_one_by_one():
    """Every corpus program: one scene, 200 probes around it, the workspace
    region's containment and its polygonal orientation field batched and
    one by one."""
    fields = 0
    for entry in Manifest.load():
        scenario = scenario_from_string(entry.source())
        scene = scenario.generate(seed=1, max_iterations=5000)
        region = scenario.workspace.region
        rng = random.Random(entry.id)
        box = BoundingBox.of_points(Vector.from_any(obj.position) for obj in scene.objects)
        box = box.expanded(15.0)
        points = [box.sample_point(rng) for _ in range(200)]
        array = np.array([point.to_tuple() for point in points])
        scalar = [region.contains_point(point) for point in points]
        assert region.contains_points_batch(array).tolist() == scalar, entry.id
        if isinstance(region.orientation, PolygonalVectorField):
            batched, scalar = _batched_and_scalar_lookups(region.orientation, points)
            assert batched == scalar, entry.id
            fields += 1
    assert fields >= 80  # the GTA and warehouse programs
