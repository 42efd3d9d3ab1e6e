"""The geometry kernel's one instance, under the name ``perfbench`` reads.

There is one geometry kernel, :data:`repro.geometry.kernel.KERNEL`.  This
module exists only for ``perfbench``: ``perfbench/run.py`` writes
:func:`available_backends` and ``active_backend().name`` into its run
manifest, and ``perfbench/tracing.py`` wraps the four batch methods of
:func:`active_backend` to time the ``geometry.kernel`` span.  The wrappers
see every kernel call because :mod:`repro.geometry.kernel` calls the
predicates through that same instance.
"""

from __future__ import annotations

from typing import List

from .kernel import KERNEL, NumpyKernel


def active_backend() -> NumpyKernel:
    """The kernel instance every batched predicate call goes through."""
    return KERNEL


def available_backends() -> List[str]:
    """The kernel's name, as a one-element list."""
    return [KERNEL.name]


__all__ = ["active_backend", "available_backends"]
