"""Computational-geometry substrate for the Scenic reproduction.

The published Scenic implementation leans on Shapely for polygon operations;
this reproduction implements the needed subset from scratch:

* :mod:`repro.geometry.polygon` — simple polygons: containment, area,
  convexity, intersection tests, convex clipping, bounding boxes.
* :mod:`repro.geometry.triangulation` — ear-clipping triangulation and
  uniform sampling of points inside polygons.
* :mod:`repro.geometry.morphology` — conservative erosion and dilation used
  by the pruning algorithms of Sec. 5.2.
* :mod:`repro.geometry.kernel` — batch evaluation of the sampling hot
  path's predicates (point containment, object containment, pairwise
  collision) over whole candidate batches at once, in numpy.
* :mod:`repro.geometry.spatial_index` — a uniform-grid index pruning the
  O(n²) collision pair enumeration and accelerating point location in
  large polygonal unions.
"""

from .polygon import (
    Polygon,
    BoundingBox,
    convex_hull,
    polygons_intersect,
    clip_polygon,
    point_in_polygon,
    segments_intersect,
)
from .triangulation import triangulate, sample_point_in_polygon, sample_point_in_triangle
from .morphology import erode_polygon, dilate_polygon
from .kernel import (
    contains_points,
    objects_contained,
    pairwise_collisions,
    quads_overlap,
    points_in_polygon,
)
from .spatial_index import SpatialGrid

__all__ = [
    "Polygon",
    "BoundingBox",
    "convex_hull",
    "polygons_intersect",
    "clip_polygon",
    "point_in_polygon",
    "segments_intersect",
    "triangulate",
    "sample_point_in_polygon",
    "sample_point_in_triangle",
    "erode_polygon",
    "dilate_polygon",
    "contains_points",
    "objects_contained",
    "pairwise_collisions",
    "quads_overlap",
    "points_in_polygon",
    "SpatialGrid",
]
