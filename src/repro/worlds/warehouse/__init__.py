"""The indoor warehouse world (``import warehouse``).

The ROADMAP's indoor world: four shelving aisles joined by cross-aisles,
navigated by picking robots among pallets, crates and workers.  The rack
footprints are excluded from the navigable floor, so workspace containment
produces the tight-clearance feasibility pressure the pruning pass is
built for; the ``aisleDirection`` field gives the
same orientation-pruning structure as the road world's traffic direction.

Registered purely as a :class:`~repro.worlds.profile.WorldProfile` plugin
(:mod:`repro.worlds.warehouse.profile`) — no engine subsystem knows this
world by name.
"""

from .layout import WarehouseLayout, default_layout
from .objects import Crate, Pallet, Robot, Shelf, WarehouseObject, Worker
from .interface import scenic_namespace, default_workspace

__all__ = [
    "WarehouseLayout",
    "default_layout",
    "WarehouseObject",
    "Robot",
    "Pallet",
    "Crate",
    "Shelf",
    "Worker",
    "scenic_namespace",
    "default_workspace",
]
