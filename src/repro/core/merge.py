"""Merge schedule: who merges what, and who manages (Sections 5.2-5.3).

The ``log p`` merge iterations alternate between *horizontal* merges
(joining two side-by-side regions along a vertical border line) and
*vertical* merges (joining two stacked regions along a horizontal
border), horizontal first; when the logical grid is twice as wide as
tall (odd ``d``) the extra horizontal merge closes the sequence.  There
are exactly ``log w`` horizontal and ``log v`` vertical merges.

At each iteration the current regions pair up; for each pair a **group
manager** (a processor adjacent to the border, on the first side) and a
**shadow manager** (directly across the border) fetch and sort the two
border sides; the manager solves the border graph and publishes the
change list to the **clients** -- the other processors of the merged
region.  This module computes that static schedule; the one executor is
:func:`repro.darray.engine.label_components`.

Note on manager granularity: the paper's bit-pattern manager selection
lets one manager serve the stacked borders of two adjacent region rows
in some iterations; we assign exactly one manager per border, which
leaves the asymptotic costs (and the per-iteration border volume)
unchanged while keeping the schedule uniform.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.core.tiles import ProcessorGrid
from repro.utils.errors import ValidationError
from repro.utils.validation import ilog2


@dataclass(frozen=True)
class MergeGroup:
    """One border merge within an iteration.

    ``side_a_pids`` / ``side_b_pids`` list the processors contributing
    the first (left or upper) and second (right or lower) side of the
    border, in scan order; the border's pixel length per side is
    ``len(side_a_pids) * q`` (horizontal merge) or ``* r`` (vertical).
    ``clients`` are the merged region's processors except the manager.
    """

    manager: int
    shadow: int
    side_a_pids: tuple[int, ...]
    side_b_pids: tuple[int, ...]
    clients: tuple[int, ...]

    @property
    def region(self) -> tuple[int, ...]:
        return tuple(sorted((self.manager, *self.clients)))


@dataclass(frozen=True)
class MergeStep:
    """One of the ``log p`` merge iterations."""

    t: int
    orientation: str  # "H" (merge along vertical borders) or "V"
    groups: tuple[MergeGroup, ...]

    @property
    def edge_names(self) -> tuple[str, str]:
        """Tile edges contributed by side a and side b."""
        return ("right", "left") if self.orientation == "H" else ("bottom", "top")


def merge_schedule(grid: ProcessorGrid) -> list[MergeStep]:
    """The full merge schedule for a processor grid.

    Returns ``log p`` steps; step ``t`` (1-based) merges regions of
    ``vspan x hspan`` tiles into regions twice as wide (H) or tall (V).
    The schedule depends only on the grid shape ``(v, w)``, so it is
    computed once per shape; each call returns a fresh list of the
    shared, frozen steps.
    """
    return list(_schedule(grid.v, grid.w))


@functools.lru_cache(maxsize=64)
def _schedule(v: int, w: int) -> tuple[MergeStep, ...]:
    """The merge schedule of a ``v x w`` grid, whose processor at grid
    position ``(I, J)`` is ``I * w + J``."""
    log_w = ilog2(w)
    log_v = ilog2(v)
    steps: list[MergeStep] = []
    hspan = vspan = 1
    done_h = done_v = 0
    for t in range(1, log_w + log_v + 1):
        horizontal = (t % 2 == 1 and done_h < log_w) or done_v == log_v
        if horizontal and done_h >= log_w:
            raise ValidationError("internal schedule error: too many horizontal merges")
        groups: list[MergeGroup] = []
        if horizontal:
            for I0 in range(0, v, vspan):
                for J0 in range(0, w, 2 * hspan):
                    Jb = J0 + hspan - 1
                    rows = range(I0, I0 + vspan)
                    side_a = tuple(i * w + Jb for i in rows)
                    side_b = tuple(i * w + Jb + 1 for i in rows)
                    manager = I0 * w + Jb
                    shadow = I0 * w + Jb + 1
                    region = [
                        i * w + j
                        for i in rows
                        for j in range(J0, J0 + 2 * hspan)
                    ]
                    clients = tuple(pid for pid in region if pid != manager)
                    groups.append(
                        MergeGroup(manager, shadow, side_a, side_b, clients)
                    )
            hspan *= 2
            done_h += 1
            orientation = "H"
        else:
            for I0 in range(0, v, 2 * vspan):
                for J0 in range(0, w, hspan):
                    Ib = I0 + vspan - 1
                    cols = range(J0, J0 + hspan)
                    side_a = tuple(Ib * w + j for j in cols)
                    side_b = tuple((Ib + 1) * w + j for j in cols)
                    manager = Ib * w + J0
                    shadow = (Ib + 1) * w + J0
                    region = [
                        i * w + j
                        for i in range(I0, I0 + 2 * vspan)
                        for j in cols
                    ]
                    clients = tuple(pid for pid in region if pid != manager)
                    groups.append(
                        MergeGroup(manager, shadow, side_a, side_b, clients)
                    )
            vspan *= 2
            done_v += 1
            orientation = "V"
        steps.append(MergeStep(t=t, orientation=orientation, groups=tuple(groups)))
    return tuple(steps)
