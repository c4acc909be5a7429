"""Parallel histogram equalization (the application of Section 4).

"One application is histogram normalization (or equalization), a
technique that flattens the histogram and, thus, improves the contrast
of an image by 'spreading out' colors which might be too clumped
together."  This module completes that pipeline on the BDM machine:

1. the parallel histogramming algorithm leaves ``H[0..k-1]`` on ``P0``;
2. ``P0`` builds the equalization look-up table from the cumulative
   distribution (``O(k)`` local work);
3. the LUT is **broadcast** to all processors with Algorithm 2
   (two matrix transpositions, ``T_comm = 2(tau + k - k/p)``);
4. every processor remaps its tile through the LUT (``O(n^2/p)``).

Level 0 (background) is kept fixed so component structure survives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bdm.broadcast import broadcast
from repro.bdm.cost import MachineReport
from repro.bdm.machine import Machine
from repro.bdm.memory import GlobalArray
from repro.core.costs import CostParams, DEFAULT_COSTS
from repro.core.histogram import parallel_histogram
from repro.core.tiles import ProcessorGrid
from repro.machines.params import MachineParams, IDEAL
from repro.utils.validation import check_image


@dataclass
class EqualizationResult:
    """Output of :func:`parallel_equalize`."""

    image: np.ndarray
    lut: np.ndarray
    histogram: np.ndarray
    report: MachineReport
    grid: ProcessorGrid

    @property
    def elapsed_s(self) -> float:
        return self.report.elapsed_s


def equalization_lut(histogram: np.ndarray, *, preserve_background: bool = True) -> np.ndarray:
    """The classic CDF-based equalization map over ``k`` levels."""
    histogram = np.asarray(histogram, dtype=np.int64)
    k = len(histogram)
    cdf = np.cumsum(histogram)
    total = int(cdf[-1])
    if total == 0:
        return np.arange(k, dtype=np.int64)
    nonzero = cdf > 0
    cdf_min = int(cdf[nonzero][0])
    span = max(total - cdf_min, 1)
    lut = np.clip(np.round((cdf - cdf_min) / span * (k - 1)), 0, k - 1).astype(np.int64)
    if preserve_background:
        lut[0] = 0
    return lut


def parallel_equalize(
    image: np.ndarray,
    k: int,
    p: int,
    machine_params: MachineParams = IDEAL,
    *,
    costs: CostParams = DEFAULT_COSTS,
    preserve_background: bool = True,
    check_hazards: bool = True,
) -> EqualizationResult:
    """Equalize an image's histogram on ``p`` processors.

    Returns the equalized image, the LUT, the original histogram, and
    the simulated cost report (phases ``hist:*``, ``eq:lut``,
    ``eq:broadcast:*``, ``eq:apply``).
    """
    image = check_image(image, square=False)
    machine = Machine(p, machine_params, check_hazards=check_hazards)

    # --- steps 1-2: the parallel histogramming algorithm leaves H on P0.
    hist = parallel_histogram(image, k, p, machine=machine, costs=costs)
    histogram, grid = hist.histogram, hist.grid
    tiles = grid.scatter(image)
    tile_pixels = grid.q * grid.r

    # --- step 3: P0 builds the LUT locally.
    padded_len = max(k, p)
    if padded_len % p != 0:
        padded_len += p - padded_len % p
    L = GlobalArray(machine, padded_len, dtype=np.int64, name="LUT")
    with machine.phase("eq:lut"):
        proc0 = machine.procs[0]
        lut = equalization_lut(histogram, preserve_background=preserve_background)
        padded = np.zeros(padded_len, dtype=np.int64)
        padded[:k] = lut
        L.write(proc0, 0, padded)
        proc0.charge_comp(3.0 * k)

    # --- step 4: broadcast the LUT (Algorithm 2) and apply per tile.
    LB = broadcast(machine, L, phase_name="eq:broadcast")
    out_tiles: list[np.ndarray] = []
    with machine.phase("eq:apply"):
        for proc in machine.procs:
            local_lut = LB.local(proc.pid)[:k]
            out_tiles.append(local_lut[tiles[proc.pid]].astype(image.dtype))
            proc.charge_comp(2.0 * tile_pixels)

    equalized = grid.gather(out_tiles, dtype=image.dtype)
    return EqualizationResult(
        image=equalized,
        lut=lut,
        histogram=histogram,
        report=machine.report(),
        grid=grid,
    )
