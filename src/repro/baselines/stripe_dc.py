"""Stripe-based divide & conquer CC: the Table-2 comparator, rebuilt.

Several Table 2 entries (Choudhary & Thakur 1992/1994, "multi-dim D+C
(partitioned input)") follow the straightforward divide-and-conquer
recipe the paper improves upon: partition the image into ``p``
horizontal stripes, label each stripe sequentially, then merge pairwise
up a binary tree -- and after every merge *eagerly relabel all pixels*
of the merged region (no tile hooks, no limited updating; the merge
manager also serves the change list to every stripe of its region).

Implementing it on the same BDM machine lets the benchmark reproduce
the paper-vs-baseline comparison computationally instead of quoting the
published numbers: the paper's algorithm wins because (a) its 2-D tiles
have ``O(n/sqrt(p))`` borders instead of ``O(n)``, and (b) it defers
interior relabeling to a single final pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bdm.cost import MachineReport
from repro.bdm.machine import Machine
from repro.bdm.memory import GlobalArray
from repro.core.border_graph import BorderSide, solve_border_merge
from repro.core.costs import CostParams, DEFAULT_COSTS
from repro.kernels import get as get_kernel
from repro.machines.params import MachineParams, IDEAL
from repro.sorting.hybrid import hybrid_sort_ops
from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_image, check_power_of_two, ilog2


@dataclass
class StripeResult:
    """Output of :func:`stripe_components`."""

    labels: np.ndarray
    report: MachineReport
    n_components: int

    @property
    def elapsed_s(self) -> float:
        return self.report.elapsed_s


def stripe_components(
    image: np.ndarray,
    p: int,
    machine_params: MachineParams = IDEAL,
    *,
    connectivity: int = 8,
    grey: bool = False,
    costs: CostParams = DEFAULT_COSTS,
    check_hazards: bool = True,
) -> StripeResult:
    """Label components with the stripe divide-&-conquer baseline.

    Output is identical to :func:`repro.parallel_components` (and the
    sequential engines); only the simulated cost differs.  Like the
    paper's algorithm, each stripe is labeled by the ``tile_label``
    kernel and charged ``label_per_pixel`` per pixel.
    """
    image = check_image(image, square=False)
    check_power_of_two("p", p)
    n_rows, n = image.shape  # n = columns = the label stride
    if n_rows % p != 0:
        raise ConfigurationError(f"p={p} must divide the image rows {n_rows}")
    label_tile = get_kernel("tile_label")
    relabel = get_kernel("relabel")
    rows_per = n_rows // p

    machine = Machine(p, machine_params, check_hazards=check_hazards)
    stripes = [image[pid * rows_per : (pid + 1) * rows_per] for pid in range(p)]

    colors = GlobalArray(machine, rows_per * n, dtype=np.int64, name="scolors")
    labels = GlobalArray(machine, rows_per * n, dtype=np.int64, name="slabels")
    for pid in range(p):
        colors.place(pid, stripes[pid])  # initial placement

    stripe_pixels = rows_per * n
    with machine.phase("sdc:label"):
        for proc in machine.procs:
            lab = label_tile(
                stripes[proc.pid],
                connectivity=connectivity,
                grey=grey,
                label_base=1,
                label_stride=n,
                row_offset=proc.pid * rows_per,
                col_offset=0,
            )
            labels.write(proc, proc.pid, lab.ravel())
            proc.charge_comp(costs.label_per_pixel(grey) * stripe_pixels)

    bottom = np.arange(n, dtype=np.int64) + (rows_per - 1) * n  # last stripe row
    top = np.arange(n, dtype=np.int64)  # first stripe row

    for t in range(1, ilog2(p) + 1 if p > 1 else 1):
        if p == 1:
            break
        span = 1 << t  # stripes per merged region after this round
        # --- managers fetch the facing border rows and solve.
        solves = {}
        with machine.phase(f"sdc:m{t}:fetch-solve"):
            for m0 in range(0, p, span):
                upper_pid = m0 + span // 2 - 1  # stripe above the seam
                lower_pid = m0 + span // 2
                mgr = machine.procs[m0]
                with mgr.prefetch_batch():
                    up = BorderSide(
                        labels.read_indices(mgr, upper_pid, bottom),
                        colors.read_indices(mgr, upper_pid, bottom),
                    )
                    down = BorderSide(
                        labels.read_indices(mgr, lower_pid, top),
                        colors.read_indices(mgr, lower_pid, top),
                    )
                mgr.charge_comp(2 * hybrid_sort_ops(n))
                solve = solve_border_merge(
                    up, down, connectivity=connectivity, grey=grey
                )
                solves[m0] = solve.changes
                mgr.charge_comp(
                    costs.graph_build_per_vertex * solve.n_vertices
                    + costs.graph_cc_per_vertex * solve.n_vertices
                    + costs.change_per_entry * len(solve.changes)
                    + hybrid_sort_ops(len(solve.changes))
                )

        # --- every stripe of the region fetches the list and fully
        # relabels (the eager scheme the paper replaces).
        with machine.phase(f"sdc:m{t}:update"):
            for m0 in range(0, p, span):
                ch = solves[m0]
                if len(ch) == 0:
                    continue
                ch_words = 1 + 2 * len(ch)
                for pid in range(m0, m0 + span):
                    proc = machine.procs[pid]
                    if pid != m0:
                        machine.transfer(m0, pid, ch_words)
                    cur = labels.read(proc, pid)
                    labels.write(proc, pid, relabel(cur, ch.alphas, ch.betas))
                    proc.charge_comp(
                        costs.binary_search_ops(stripe_pixels, len(ch))
                    )

    full = np.vstack(
        [labels.local(pid).reshape(rows_per, n) for pid in range(p)]
    ).astype(np.int64)
    n_components = int(np.unique(full[full != 0]).size)
    return StripeResult(labels=full, report=machine.report(), n_components=n_components)
