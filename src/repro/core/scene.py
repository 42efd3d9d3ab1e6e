"""Scenes: the concrete outputs of sampling a scenario.

A scene is an assignment of concrete values to every property of every
object in the scenario, plus the global parameters (Sec. 5.1).  Scenes are
what gets handed to simulator interfaces (the renderer, the Mars-rover
planner, ...) and to the perception pipeline.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .objects import Object
from .vectors import Vector
from .workspace import Workspace


class Scene:
    """A concrete configuration of objects produced by ``Scenario.generate``."""

    def __init__(
        self,
        objects: Sequence[Object],
        ego: Object,
        params: Optional[Dict[str, Any]] = None,
        workspace: Optional[Workspace] = None,
    ):
        self.objects: List[Object] = list(objects)
        self.ego = ego
        self.params: Dict[str, Any] = dict(params or {})
        self.workspace = workspace if workspace is not None else Workspace()

    # -- queries ---------------------------------------------------------------

    @property
    def non_ego_objects(self) -> List[Object]:
        return [scenic_object for scenic_object in self.objects if scenic_object is not self.ego]

    def objects_of_class(self, klass: type) -> List[Object]:
        return [scenic_object for scenic_object in self.objects if isinstance(scenic_object, klass)]

    def distance_between(self, first: Object, second: Object) -> float:
        return Vector.from_any(first.position).distance_to(second.position)

    def closest_object_to(self, reference: Object) -> Optional[Object]:
        others = [scenic_object for scenic_object in self.objects if scenic_object is not reference]
        if not others:
            return None
        return min(others, key=lambda other: self.distance_between(reference, other))

    def has_collisions(self) -> bool:
        """True if any pair of collision-checked objects overlaps.

        Routed through the batched separating-axis kernel (with grid pruning
        for large scenes); small scenes keep the scalar pair loop.
        """
        if len(self.objects) >= 4:
            from ..geometry import kernel

            collidable = [not obj.allowCollisions for obj in self.objects]
            if sum(collidable) >= 2:
                corners = kernel.corners_array(self.objects)
                return len(kernel.pairwise_collisions(corners, collidable)) > 0
            return False
        for i, first in enumerate(self.objects):
            for second in self.objects[i + 1:]:
                if first.allowCollisions or second.allowCollisions:
                    continue
                if first.intersects(second):
                    return True
        return False

    # -- export ----------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain-data summary (positions, headings, sizes, class names, params)."""
        return {
            "params": dict(self.params),
            "ego_index": self.objects.index(self.ego) if self.ego in self.objects else None,
            "objects": [
                {
                    "class": type(scenic_object).__name__,
                    "position": tuple(Vector.from_any(scenic_object.position)),
                    "heading": float(scenic_object.heading),
                    "width": float(scenic_object.width),
                    "height": float(scenic_object.height),
                    "properties": {
                        name: value
                        for name, value in scenic_object.properties.items()
                        if isinstance(value, (int, float, str, bool))
                    },
                }
                for scenic_object in self.objects
            ],
        }

    def ascii_render(self, columns: int = 60, rows: int = 24) -> str:
        """A quick textual rendering of the scene for debugging and examples.

        The ego is drawn as ``E``, other objects as ``#``; the view is fitted
        to the objects' bounding box with a small margin.
        """
        positions = [Vector.from_any(scenic_object.position) for scenic_object in self.objects]
        min_x = min(point.x for point in positions) - 5
        max_x = max(point.x for point in positions) + 5
        min_y = min(point.y for point in positions) - 5
        max_y = max(point.y for point in positions) + 5
        grid = [[" " for _ in range(columns)] for _ in range(rows)]
        for scenic_object in self.objects:
            point = Vector.from_any(scenic_object.position)
            column = int((point.x - min_x) / (max_x - min_x + 1e-9) * (columns - 1))
            row = int((point.y - min_y) / (max_y - min_y + 1e-9) * (rows - 1))
            symbol = "E" if scenic_object is self.ego else "#"
            grid[rows - 1 - row][column] = symbol
        return "\n".join("".join(row) for row in grid)

    def __len__(self) -> int:
        return len(self.objects)

    def __repr__(self) -> str:
        return f"Scene({len(self.objects)} objects, params={sorted(self.params)})"


__all__ = ["Scene"]
