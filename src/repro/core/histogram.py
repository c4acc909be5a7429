"""Parallel histogramming on the BDM machine (Section 4 of the paper).

The algorithm:

1. **Tally** -- every processor counts the grey levels of its own
   ``(n/v) x (n/w)`` tile into a local array ``H_i[0..k-1]``.
2. **Transpose** -- the ``k x p`` array of local tallies is transposed
   so the counts of each grey level meet on one processor: the blocked
   transpose gives processor ``i`` all partial counts for levels
   ``i*k/p .. (i+1)*k/p - 1`` (a *truncated* transpose puts level ``i``
   on processor ``i`` when ``k < p``).
3. **Reduce** -- each processor sums its ``p`` partial count vectors
   locally (``O(k)`` work).
4. **Collect** -- ``P0`` prefetches the reduced slices with a circular
   data movement and outputs ``H[0..k-1]``.

Complexities (equation (3)): ``T_comm <= 2 (tau + k)`` -- independent
of the image size! -- and ``T_comp = O(n^2 / p + k)``, so computation
dominates for large ``n`` and the algorithm scales linearly in ``n^2``
for fixed ``p``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bdm.cost import MachineReport
from repro.bdm.machine import Machine
from repro.bdm.memory import GlobalArray
from repro.bdm.transpose import transpose, gather_to
from repro.core.costs import CostParams, DEFAULT_COSTS
from repro.core.tiles import ProcessorGrid
from repro.kernels import get as get_kernel
from repro.machines.params import MachineParams, IDEAL
from repro.utils.errors import ValidationError
from repro.utils.validation import check_image, check_power_of_two


@dataclass
class HistogramResult:
    """Output of :func:`parallel_histogram`.

    Attributes
    ----------
    histogram:
        ``H[0..k-1]`` held by processor 0; ``H[i]`` is the number of
        pixels with grey level ``i``.
    report:
        Simulated cost report (phases: ``hist:tally``,
        ``hist:transpose``, ``hist:reduce``, ``hist:collect``).
    grid:
        The processor grid used.
    """

    histogram: np.ndarray
    report: MachineReport
    grid: ProcessorGrid

    @property
    def elapsed_s(self) -> float:
        return self.report.elapsed_s


def parallel_histogram(
    image: np.ndarray,
    k: int,
    p: int,
    machine_params: MachineParams = IDEAL,
    *,
    costs: CostParams = DEFAULT_COSTS,
    check_hazards: bool = True,
    overlap: bool = False,
    machine: Machine | None = None,
) -> HistogramResult:
    """Histogram an image's ``k`` grey levels on ``p`` processors.

    The paper's setting is square images; rectangular images work too
    (the grid must divide both dimensions).

    ``k`` and ``p`` must be powers of two (the paper's assumption, which
    makes ``k/p`` or ``p/k`` integral).  Returns the histogram together
    with the simulated cost report.  ``overlap=True`` models perfect
    split-phase overlap of communication and computation (see
    :class:`~repro.bdm.machine.Machine`).
    """
    image = check_image(image, square=False)
    check_power_of_two("k", k)
    if image.max(initial=0) >= k:
        raise ValidationError(f"image has grey levels >= k={k}")

    grid = ProcessorGrid(p, image.shape)
    if machine is None:
        machine = Machine(p, machine_params, check_hazards=check_hazards, overlap=overlap)
    elif machine.p != p:
        raise ValidationError(f"machine has {machine.p} processors, expected {p}")
    tiles = grid.scatter(image)

    # Step 1: local tallies H_i[0..k-1] (kernel-dispatched local step).
    tally_kernel = get_kernel("histogram")
    H = GlobalArray(machine, k, dtype=np.int64, name="H")
    tile_pixels = grid.q * grid.r
    with machine.phase("hist:tally"):
        for proc in machine.procs:
            tally = tally_kernel(tiles[proc.pid], k)
            H.write(proc, proc.pid, tally)
            proc.charge_comp(costs.hist_tally_per_pixel * tile_pixels + k)

    # Step 2: transpose of the k x p tally array (truncated when k < p).
    HT = transpose(machine, H, phase_name="hist:transpose")

    # Step 3: local reduction of the received partial counts.
    if k >= p:
        size = k // p
        R = GlobalArray(machine, size, dtype=np.int64, name="R")
        with machine.phase("hist:reduce"):
            for proc in machine.procs:
                block = HT.local(proc.pid)  # p slots of k/p partial counts
                sums = block.reshape(p, size).sum(axis=0)
                R.write(proc, proc.pid, sums)
                proc.charge_comp(costs.hist_reduce_per_word * k)
    else:
        lengths = [1 if i < k else 0 for i in range(p)]
        R = GlobalArray(machine, lengths, dtype=np.int64, name="R")
        with machine.phase("hist:reduce"):
            for proc in machine.procs:
                if proc.pid < k:
                    total = int(HT.local(proc.pid).sum())
                    R.write(proc, proc.pid, [total])
                    proc.charge_comp(costs.hist_reduce_per_word * p)

    # Step 4: P0 collects the k histogram bars.
    histogram = gather_to(machine, R, root=0, phase_name="hist:collect")
    return HistogramResult(histogram=histogram, report=machine.report(), grid=grid)
