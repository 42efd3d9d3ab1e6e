"""Domain-specific pruning of the sample space (Sec. 5.2, Algorithms 2–3).

Rejection sampling can waste many candidate scenes on object positions that
can never satisfy the requirements.  The paper prunes the sample space of
objects whose position is uniform over a *polygonal* region using three
techniques, all of which restrict that region to a smaller one while keeping
every valid position (soundness):

* **containment** — if the object must fit inside a region ``C``, its centre
  must lie in ``erode(C, minRadius)``;
* **orientation** — if the relative heading between two field-aligned objects
  is constrained and their distance is at most ``M``, only map cells whose
  field headings are compatible (and within ``M`` of each other) can host
  them (Algorithm 2);
* **size** — map cells narrower than the configuration's minimum width can
  only host an object if another cell lies within ``M`` (Algorithm 3).

``prune_scenario`` derives the bounds these techniques need *automatically*:
when the scenario came from a compiled artifact, the static requirement
analysis of :mod:`repro.analysis` supplies a
:class:`~repro.analysis.PruneBounds` (relative-heading arcs, distance
bounds ``M``, minimum-fit radii) and all three techniques run without the
caller providing anything.  A caller may pass an explicit ``PruneBounds``
instead (the engine benchmark ablates with ``bounds.containment_only()``).

Soundness guard-rails baked into the driver:

* objects with mutation enabled are skipped entirely — mutation displaces
  the sampled position *after* the draw, so no region shrink is sound;
* a region polygon that is close to more than one workspace piece is kept
  whole during containment pruning — eroding each piece separately would
  wrongly exclude centres of objects straddling two pieces;
* partner-based techniques (Algorithms 2–3) only run when the partner
  object's possible positions provably lie on the orientation field's
  cells (same-region check, or an exact coverage proof of the workspace);
* a region that prunes to *empty* raises
  :class:`~repro.core.errors.InfeasibleScenarioError` instead of leaving a
  silent zero-acceptance sampling loop behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.bounds import PruneBounds
from ..analysis.intervals import CircularInterval
from ..geometry.morphology import dilate_polygon, erode_polygon, minimum_width
from ..geometry.polygon import Polygon, clip_polygon, polygons_intersect
from ..geometry.spatial_index import SpatialGrid
from .distributions import needs_sampling
from .errors import InfeasibleScenarioError
from .objects import Object
from .regions import PointInRegionDistribution, PolygonalRegion, Region
from .scenario import Scenario
from .vectorfields import PolygonalVectorField


@dataclass
class PruningReport:
    """What pruning did to a scenario (for logging and the pruning benchmark)."""

    objects_pruned: int = 0
    objects_skipped_mutation: int = 0
    area_before: float = 0.0
    area_after: float = 0.0
    techniques: Tuple[str, ...] = ()
    #: Per-technique area bookkeeping: technique name -> [area entering the
    #: stage, area leaving it], summed over every object it applied to.
    stage_areas: Dict[str, List[float]] = field(default_factory=dict)
    #: Summary of the static bounds that drove the pass (None = no bounds).
    bounds_summary: Optional[Dict[str, int]] = None
    notes: Tuple[str, ...] = ()

    @property
    def applied(self) -> bool:
        """Whether any technique actually restricted a region."""
        return bool(self.techniques)

    @property
    def area_ratio(self) -> float:
        """Pruned / original sampling area.

        1.0 when pruning did not apply (no prunable objects, or nothing was
        restricted) — check :attr:`applied` to tell "no reduction" apart
        from "nothing to prune".  A statically infeasible scenario never
        produces a report at all: ``prune_scenario`` raises
        :class:`~repro.core.errors.InfeasibleScenarioError` instead of
        reporting a zero area.
        """
        if self.area_before <= 0:
            return 1.0
        return self.area_after / self.area_before

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe summary (the shape the eval scorecards publish)."""
        return {
            "applied": self.applied,
            "objects_pruned": self.objects_pruned,
            "objects_skipped_mutation": self.objects_skipped_mutation,
            "area_before": self.area_before,
            "area_after": self.area_after,
            "area_ratio": self.area_ratio,
            "techniques": list(self.techniques),
            "technique_ratios": self.technique_ratios(),
            "notes": list(self.notes),
        }

    def technique_ratios(self) -> Dict[str, float]:
        """Area kept by each technique (area-out / area-in, per stage)."""
        ratios: Dict[str, float] = {}
        for technique, (before, after) in self.stage_areas.items():
            ratios[technique] = (after / before) if before > 0 else 1.0
        return ratios

    def _record_stage(self, technique: str, before: float, after: float) -> None:
        entry = self.stage_areas.setdefault(technique, [0.0, 0.0])
        entry[0] += before
        entry[1] += after
        if technique not in self.techniques:
            self.techniques = self.techniques + (technique,)


# ---------------------------------------------------------------------------
# Algorithm 2: pruneByHeading
# ---------------------------------------------------------------------------


def prune_by_orientation(
    cells: Sequence[Tuple[Polygon, float]],
    allowed_relative_heading: Tuple[float, float],
    max_distance: float,
    total_deviation: float,
    partner_cells: Optional[Sequence[Tuple[Polygon, float]]] = None,
) -> List[Polygon]:
    """Restrict field cells to those compatible with a relative-heading constraint.

    *cells* are ``(polygon, field heading)`` pairs; *allowed_relative_heading*
    is the arc ``A`` of permitted relative headings between the two objects,
    given as the sweep **anticlockwise from low to high** — an oncoming
    constraint around π may be written ``(pi - 0.1, pi + 0.1)`` or with
    normalized endpoints ``(pi - 0.1, -(pi - 0.1))``; either way the arc is
    the short one through π, never its complement (intervals straddling the
    ±π branch cut must not collapse to empty or full circles).
    *max_distance* is ``M``.  *total_deviation* is the heading slack: how
    far both objects' headings together may deviate from their cells' field
    headings (the analyzer passes ``δ_self + δ_partner``).

    *partner_cells* are the cells the **other** object may occupy; they
    default to *cells* (both objects range over the same region).  Passing
    the orientation field's full cell list is always sound when the partner
    provably lies on the field.

    Note that a constraint arc containing 0 never prunes anything when the
    pruned cells are among the partner cells: every cell is a compatible
    partner for itself.  The technique pays off for constraints like
    "roughly facing each other" or "crossing traffic", exactly as in the
    paper's examples.
    """
    # Wrap-safe arc: sweep anticlockwise from low to high (the same
    # representation the analyzer uses, so the branch-cut handling cannot
    # drift between the two layers).
    arc = CircularInterval.from_sweep(*allowed_relative_heading)
    partners = list(partner_cells) if partner_cells is not None else list(cells)
    pruned: List[Polygon] = []
    dilated_partners = [dilate_polygon(polygon, max_distance) for polygon, _heading in partners]
    partner_index = _pair_pruner(dilated_partners)
    for polygon, heading in cells:
        for other_index in partner_index(polygon):
            other_heading = partners[other_index][1]
            dilated = dilated_partners[other_index]
            if not polygons_intersect(polygon, dilated):
                continue
            # Compatible iff the relative heading, slackened by the total
            # deviation, can fall inside A (compared on the circle).
            if arc.contains(other_heading - heading, slack=total_deviation + 1e-12):
                piece = clip_polygon(polygon, dilated)
                if piece is not None:
                    pruned.append(piece)
    return _merge_pieces(pruned)


# ---------------------------------------------------------------------------
# Algorithm 3: pruneByWidth
# ---------------------------------------------------------------------------


def prune_by_size(
    cells: Sequence[Tuple[Polygon, float]],
    max_distance: float,
    min_width: float,
) -> List[Polygon]:
    """Restrict narrow field cells to the parts near some other (reachable) cell."""
    polygons = [polygon for polygon, _heading in cells]
    narrow = [polygon for polygon in polygons if minimum_width(polygon) < min_width]
    narrow_ids = {id(polygon) for polygon in narrow}
    pruned: List[Polygon] = [polygon for polygon in polygons if id(polygon) not in narrow_ids]
    if not narrow:
        return _merge_pieces(pruned)
    dilated_polygons = [dilate_polygon(polygon, max_distance) for polygon in polygons]
    partner_index = _pair_pruner(dilated_polygons)
    for polygon in narrow:
        for other_index in partner_index(polygon):
            other = polygons[other_index]
            if other is polygon:
                continue
            dilated = dilated_polygons[other_index]
            if not polygons_intersect(polygon, dilated):
                continue
            piece = clip_polygon(polygon, dilated)
            if piece is not None:
                pruned.append(piece)
    return _merge_pieces(pruned)


# ---------------------------------------------------------------------------
# Containment pruning
# ---------------------------------------------------------------------------


def prune_by_containment(
    region_polygons: Sequence[Polygon],
    container_polygons: Sequence[Polygon],
    min_radius: float,
) -> List[Polygon]:
    """Restrict a sampling region to the erosion of its container.

    An object of inradius at least *min_radius* contained in the container
    *union* has its centre at least *min_radius* from the union's boundary.
    Per region polygon:

    * polygons that touch no container piece are dropped (the centre always
      lies inside the union);
    * polygons within *min_radius* of **more than one** container piece are
      kept whole — near a shared boundary the union's erosion is strictly
      larger than any single piece's erosion, so clipping against per-piece
      erosions would wrongly exclude centres of objects straddling two
      pieces (the polygon-cell boundary soundness fix);
    * polygons near exactly one piece are clipped against that piece's
      erosion (exact for convex pieces, a sound no-op otherwise).

    Returns the restricted polygon list; an empty list means no valid
    centre exists at all.
    """
    if min_radius <= 0 or not container_polygons:
        return _merge_pieces(list(region_polygons))
    eroded = [erode_polygon(container, min_radius) for container in container_polygons]
    dilated = [dilate_polygon(container, min_radius) for container in container_polygons]
    container_pruner = _pair_pruner(dilated)
    pruned: List[Polygon] = []
    for polygon in region_polygons:
        touching: List[int] = []
        near: List[int] = []
        for index in container_pruner(polygon):
            if polygons_intersect(polygon, dilated[index]):
                near.append(index)
                if polygons_intersect(polygon, container_polygons[index]):
                    touching.append(index)
        if not touching:
            continue  # the centre cannot lie in the container union here
        if len(near) > 1:
            pruned.append(polygon)  # straddling zone: erosion per piece is unsound
            continue
        container_index = touching[0]
        container_eroded = eroded[container_index]
        if container_eroded is None:
            continue  # the single nearby piece cannot fit the object at all
        if container_eroded.is_convex():
            piece = clip_polygon(polygon, container_eroded)
        else:
            piece = polygon
        if piece is not None:
            pruned.append(piece)
    return _merge_pieces(pruned)


# ---------------------------------------------------------------------------
# Scenario-level driver
# ---------------------------------------------------------------------------


def bounds_for_scenario(scenario: Scenario) -> Optional[PruneBounds]:
    """The static-analysis bounds for *scenario*, if it has a compiled artifact.

    Scenarios produced by :mod:`repro.language.compiler` carry a reference
    to their :class:`~repro.language.CompiledScenario`; the artifact caches
    the analysis result, so repeated pruning passes over fresh scenarios of
    one program pay for the analysis once per program, not once per pass.
    """
    artifact = scenario.compiled_artifact
    return None if artifact is None else artifact.prune_bounds()


def prune_scenario(scenario: Scenario, bounds: Optional[PruneBounds] = None) -> PruningReport:
    """Apply the pruning techniques to every prunable object of *scenario*.

    An object is prunable when its ``position`` is a
    :class:`PointInRegionDistribution` over a :class:`PolygonalRegion` and
    mutation is disabled for it.  The workspace region acts as the container
    for containment pruning.  Orientation (Algorithm 2) and size
    (Algorithm 3) pruning run from *bounds*, which default to the program's
    own static-analysis bounds (:func:`bounds_for_scenario`); a scenario
    built through the Python API has none and gets containment pruning only.
    The object's sampling region is replaced in place, so subsequent
    ``generate`` calls benefit.

    Raises :class:`~repro.core.errors.InfeasibleScenarioError` when any
    region prunes to empty: soundness means an empty pruned region proves no
    scene can satisfy the requirements.
    """
    if bounds is None:
        bounds = bounds_for_scenario(scenario)
    report = PruningReport()
    if bounds is not None:
        report.bounds_summary = bounds.summary()
    notes: List[str] = list(bounds.notes) if bounds is not None else []
    workspace_region = scenario.workspace.region
    container_polygons = (
        [] if scenario.workspace.is_unbounded else _polygons_of_region(workspace_region)
    )

    # Snapshot every prunable object's *original* region before any in-place
    # rewrite: partner-based reasoning must see pre-pruning geometry.
    snapshots: Dict[int, Tuple[PolygonalRegion, List[Polygon]]] = {}
    for index, scenic_object in enumerate(scenario.objects):
        position = scenic_object.properties.get("position")
        if isinstance(position, PointInRegionDistribution) and isinstance(
            position.region, PolygonalRegion
        ):
            snapshots[index] = (position.region, list(position.region.polygons))
    coverage_cache: Dict[Tuple[int, int], bool] = {}

    for index, scenic_object in enumerate(scenario.objects):
        if index not in snapshots:
            continue
        if _mutation_enabled(scenic_object):
            # Mutation adds noise to the position *after* the draw; any
            # region shrink would be unsound for such objects.
            report.objects_skipped_mutation += 1
            notes.append(f"object {index}: skipped (mutation enabled)")
            continue
        position = scenic_object.properties["position"]
        region, original_polygons = snapshots[index]
        polygons: List[Polygon] = list(original_polygons)
        orientation = region.orientation
        object_bounds = bounds.for_object(index) if bounds is not None else None
        report.area_before += region.area()

        def stage(technique: str, restricted: Optional[List[Polygon]], current: List[Polygon]):
            """Fold one technique's output into the running polygon set."""
            if restricted is None:
                return current
            before = _total_area(current)
            after = _total_area(restricted)
            if not restricted:
                raise InfeasibleScenarioError(
                    f"{technique} pruning emptied the sampling region of object "
                    f"{index} ({type(scenic_object).__name__}): the scenario's "
                    "requirements are statically unsatisfiable"
                )
            if after < before:
                report._record_stage(technique, before, after)
                return restricted
            return current

        # Size (Algorithm 3) — before containment: its narrow-cell isolation
        # argument needs the partner's full (unclipped) cell set.
        if (
            object_bounds is not None
            and object_bounds.min_configuration_width is not None
            and _partner_reasoning_allowed(
                scenario, region, workspace_region, coverage_cache, notes, index
            )
        ):
            cells = _cells_for_polygons(polygons, orientation)
            restricted = prune_by_size(
                cells, object_bounds.narrowness_distance, object_bounds.min_configuration_width
            )
            polygons = stage("size", restricted, polygons)

        # Orientation (Algorithm 2).
        if (
            object_bounds is not None
            and object_bounds.heading_constraints
            and isinstance(orientation, PolygonalVectorField)
        ):
            for constraint in object_bounds.heading_constraints:
                if constraint.is_empty:
                    raise InfeasibleScenarioError(
                        f"the relative-heading requirements on object {index} "
                        f"admit no heading at all ({constraint.source})"
                    )
                partner_cells = _partner_cells(
                    scenario,
                    snapshots,
                    constraint.partner,
                    orientation,
                    workspace_region,
                    coverage_cache,
                    notes,
                )
                if partner_cells is None:
                    notes.append(
                        f"object {index}: orientation constraint vs object "
                        f"{constraint.partner} skipped (partner not provably on-field)"
                    )
                    continue
                cells = _cells_for_polygons(polygons, orientation)
                restricted = prune_by_orientation(
                    cells,
                    (
                        constraint.center - constraint.half_width,
                        constraint.center + constraint.half_width,
                    ),
                    constraint.max_distance,
                    constraint.deviation,
                    partner_cells=partner_cells,
                )
                polygons = stage("orientation", restricted, polygons)

        # Containment (uses a lower bound on the object's half-extent).
        min_radius = _static_min_radius(scenic_object)
        if object_bounds is not None:
            min_radius = max(min_radius, object_bounds.min_radius)
        if container_polygons and min_radius > 0:
            restricted = prune_by_containment(polygons, container_polygons, min_radius)
            polygons = stage("containment", restricted, polygons)

        # The pruned pieces may overlap each other (a cell can pair with
        # several dilated neighbours); overlapping pieces would both inflate
        # the area and bias uniform sampling toward the overlaps, so we only
        # adopt the pruned region when it is a genuine reduction.
        try:
            pruned_region = PolygonalRegion(
                polygons, name=f"{region.name}|pruned", orientation=orientation
            )
        except Exception:  # zero-area fragments and similar degeneracies
            pruned_region = None
        if pruned_region is not None and pruned_region.area() < region.area():
            position.region = pruned_region
            position._dependencies = (pruned_region,)
            report.area_after += pruned_region.area()
        else:
            report.area_after += region.area()
        report.objects_pruned += 1

    report.notes = tuple(notes)
    return report


# ---------------------------------------------------------------------------
# Partner soundness checks
# ---------------------------------------------------------------------------


def _partner_cells(
    scenario: Scenario,
    snapshots: Dict[int, Tuple[PolygonalRegion, List[Polygon]]],
    partner_index: int,
    orientation: PolygonalVectorField,
    workspace_region: Region,
    coverage_cache: Dict[Tuple[int, int], bool],
    notes: List[str],
) -> Optional[List[Tuple[Polygon, float]]]:
    """Cells the partner object can occupy, or ``None`` when unprovable.

    Sound cases:

    * the partner's own sampling region carries the same orientation field
      and each of its (original) polygons is exactly one of the field's
      cells — its positions and headings range over exactly those cells;
    * the partner is any workspace-contained object and the workspace is
      provably covered by the field's cells — then wherever the partner
      ends up, it sits in some cell at distance zero.

    Mutation on the partner invalidates its heading bound, so it rules both
    cases out.
    """
    if not (0 <= partner_index < len(scenario.objects)):
        return None
    partner = scenario.objects[partner_index]
    if _mutation_enabled(partner):
        return None
    snapshot = snapshots.get(partner_index)
    if snapshot is not None and snapshot[0].orientation is orientation:
        cells: List[Tuple[Polygon, float]] = []
        for polygon in snapshot[1]:
            heading = orientation.heading_of_cell(polygon)
            if heading is None:
                cells = []
                break
            cells.append((polygon, heading))
        if cells:
            return cells
    if scenario.workspace.is_unbounded:
        return None
    if _workspace_covered_by_cells(workspace_region, orientation, coverage_cache, notes):
        return list(orientation.cells)
    return None


def _partner_reasoning_allowed(
    scenario: Scenario,
    region: PolygonalRegion,
    workspace_region: Region,
    coverage_cache: Dict[Tuple[int, int], bool],
    notes: List[str],
    index: int,
) -> bool:
    """Whether Algorithm 3's isolation argument holds for this object's region.

    The argument ("a narrow cell with no other cell within M cannot host the
    configuration") needs every workspace position near the object to lie on
    the region's own cells; we require the workspace to be exactly covered
    by them.
    """
    if scenario.workspace.is_unbounded:
        return False
    covered = _polygons_cover(
        _polygons_of_region(workspace_region), list(region.polygons), coverage_cache, key=(id(workspace_region), id(region))
    )
    if not covered:
        notes.append(
            f"object {index}: size pruning skipped (workspace not provably "
            "covered by the region's cells)"
        )
    return covered


def _workspace_covered_by_cells(
    workspace_region: Region,
    orientation: PolygonalVectorField,
    coverage_cache: Dict[Tuple[int, int], bool],
    notes: List[str],
) -> bool:
    covered = _polygons_cover(
        _polygons_of_region(workspace_region),
        [polygon for polygon, _heading in orientation.cells],
        coverage_cache,
        key=(id(workspace_region), id(orientation)),
    )
    if not covered:
        notes.append("workspace not provably covered by the orientation field's cells")
    return covered


def _polygons_cover(
    targets: Sequence[Polygon],
    cells: Sequence[Polygon],
    cache: Dict[Tuple[int, int], bool],
    key: Tuple[int, int],
) -> bool:
    """Prove ``union(cells) ⊇ union(targets)`` by area arithmetic.

    Uses the depth-2 Bonferroni lower bound ``|T ∩ ∪cᵢ| ≥ Σ|T∩cᵢ| −
    Σᵢ<ⱼ|T∩cᵢ∩cⱼ|``, which is exact for convex pieces via polygon clipping;
    non-convex inputs make the bound unprovable and the check conservatively
    fails (pruning then skips the partner-based techniques).
    """
    cached = cache.get(key)
    if cached is not None:
        return cached

    def compute() -> bool:
        if not targets or not cells:
            return False
        if any(not cell.is_convex() for cell in cells):
            return False
        for target in targets:
            if not target.is_convex():
                return False
            target_area = target.area
            if target_area <= 0:
                continue
            box = target.bounding_box()
            pieces: List[Polygon] = []
            for cell in cells:
                if not box.intersects(cell.bounding_box()):
                    continue
                piece = clip_polygon(target, cell)
                if piece is not None:
                    pieces.append(piece)
            total = sum(piece.area for piece in pieces)
            overlap = 0.0
            for i in range(len(pieces)):
                box_i = pieces[i].bounding_box()
                for j in range(i + 1, len(pieces)):
                    if not box_i.intersects(pieces[j].bounding_box()):
                        continue
                    shared = clip_polygon(pieces[i], pieces[j])
                    if shared is not None:
                        overlap += shared.area
            if total - overlap < target_area * (1.0 - 1e-6):
                return False
        return True

    result = compute()
    cache[key] = result
    return result


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


#: Cell counts below this skip the spatial index: scanning every candidate is
#: cheaper than building the grid.
_GRID_MIN_ITEMS = 12


def _pair_pruner(targets: Sequence[Polygon]):
    """A function mapping a query polygon to candidate indices into *targets*.

    For small target sets it returns all indices (ascending, preserving the
    historical enumeration order); larger sets are indexed in a
    :class:`SpatialGrid` over their bounding boxes, so each query only visits
    targets whose bounds can intersect the query's — the exact
    ``polygons_intersect`` test still runs on every surviving candidate, so
    results are unchanged.
    """
    if len(targets) < _GRID_MIN_ITEMS:
        all_indices = list(range(len(targets)))

        def scan(_query: Polygon) -> Sequence[int]:
            return all_indices

        return scan
    grid = SpatialGrid.from_polygons(targets)

    def query(query_polygon: Polygon) -> Sequence[int]:
        return [int(index) for index in grid.query_box(query_polygon.bounding_box())]

    return query


def _total_area(polygons: Sequence[Polygon]) -> float:
    return sum(polygon.area for polygon in polygons)


def _mutation_enabled(scenic_object: Object) -> bool:
    """Whether mutation noise may displace this object after sampling."""
    from .lazy import is_lazy

    scale = scenic_object.properties.get("mutationScale", 0.0)
    if scale is None:
        return False
    if needs_sampling(scale) or is_lazy(scale):
        return True
    try:
        return float(scale) != 0.0
    except (TypeError, ValueError):
        return True


def _static_min_radius(scenic_object: Object) -> float:
    """A lower bound on the object's centre-to-edge distance, if statically known."""
    width = scenic_object.properties.get("width")
    height = scenic_object.properties.get("height")
    if needs_sampling(width) or needs_sampling(height):
        from .distributions import supporting_interval

        width_low, _ = supporting_interval(width)
        height_low, _ = supporting_interval(height)
        if width_low is None or height_low is None:
            return 0.0
        return min(width_low, height_low) / 2.0
    try:
        return min(float(width), float(height)) / 2.0
    except (TypeError, ValueError):
        return 0.0


def _polygons_of_region(region: Region) -> List[Polygon]:
    if isinstance(region, PolygonalRegion):
        return list(region.polygons)
    bounding_box = region.bounding_box() if region is not None else None
    if bounding_box is None:
        return []
    return [bounding_box.to_polygon()]


def _cells_for_polygons(polygons: Sequence[Polygon], orientation) -> List[Tuple[Polygon, float]]:
    cells: List[Tuple[Polygon, float]] = []
    for polygon in polygons:
        heading = 0.0
        if isinstance(orientation, PolygonalVectorField):
            exact = orientation.heading_of_cell(polygon)
            heading = exact if exact is not None else orientation.value_at(polygon.centroid)
        elif orientation is not None:
            heading = orientation.value_at(polygon.centroid)
        cells.append((polygon, heading))
    return cells


def _merge_pieces(polygons: Sequence[Polygon]) -> List[Polygon]:
    """Drop exact duplicates and zero-area fragments."""
    unique: List[Polygon] = []
    seen = set()
    for polygon in polygons:
        key = tuple(sorted((round(v.x, 6), round(v.y, 6)) for v in polygon.vertices))
        if key in seen or polygon.area < 1e-9:
            continue
        seen.add(key)
        unique.append(polygon)
    return unique


__all__ = [
    "PruningReport",
    "bounds_for_scenario",
    "prune_by_orientation",
    "prune_by_size",
    "prune_by_containment",
    "prune_scenario",
]
