"""Parallel connected components on the BDM machine (Sections 5 and 6).

The algorithm in three acts:

1. **Initial labeling** -- every processor runs a sequential CC pass
   over its own tile (the ``tile_label`` kernel: the run-length
   two-pass labeler of :mod:`repro.baselines.run_label`), labeling each
   tile component with the globally unique label
   ``(I q + i) n + (J r + j) + 1`` of its first pixel in
   row-major order (no communication needed for uniqueness), and builds
   its *tile hooks* (one ``(label, border-offset)`` pair per component
   touching the tile border).

2. **log p merge iterations** -- alternating horizontal and vertical
   border merges per :func:`~repro.core.merge.merge_schedule`.  Per
   border, the group manager and shadow manager fetch and sort the two
   border sides; the manager solves the border graph
   (:func:`~repro.core.border_graph.solve_border_merge`) and publishes
   the sorted change array; every processor of the merged region then
   relabels -- and this is the paper's key idea -- *only its tile
   border pixels*, by binary search of the change list ("drastically
   limited updating").

3. **Final consistency update** -- after the last merge each processor
   compares every hook's recorded initial label with the current label
   at the hook's border offset and renames the affected components'
   interior pixels once.

Grey-scale images (Section 6) use the same machinery: the per-tile
labeling joins only equal levels and the border graph adds cross edges
only between equal-colored pixels.

The schedule itself is :func:`repro.darray.engine.label_components`,
the one driver every placement runs; this module supplies the
simulated one, :class:`BdmTransport`, whose verbs charge a
:class:`~repro.bdm.machine.Machine` for what the paper's processors do.

Complexities (equations (11)/(12)): ``T_comp = O(n^2/p)``,
``T_comm <= (4 log p) tau + O(n^2/p)`` for ``p <= n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bdm.cost import MachineReport
from repro.bdm.machine import Machine
from repro.bdm.memory import GlobalArray
from repro.core.border_graph import BorderSide
from repro.core.change_array import ChangeArray
from repro.core.costs import CostParams, DEFAULT_COSTS
from repro.core.hooks import TileHooks, apply_hooks, create_tile_hooks, hook_ops
from repro.core.merge import MergeStep
from repro.core.tiles import ProcessorGrid, edge_indices, perimeter_indices
from repro.darray.array import DistributedArray
from repro.darray.borders import border_nbytes, change_nbytes, publishing_groups
from repro.darray.engine import label_components
from repro.darray.transport import Transport
from repro.faults.plan import FaultPlan
from repro.kernels import get as get_kernel
from repro.machines.params import MachineParams, IDEAL
from repro.obs.events import FAULT_FAILOVER, FAULT_MANAGER_CRASH, FAULT_SHADOW_CRASH
from repro.sorting.hybrid import hybrid_sort_ops
from repro.utils.errors import ConfigurationError, FailoverError, ValidationError
from repro.utils.validation import check_image


@dataclass
class MergeStepStats:
    """Diagnostics of one merge iteration."""

    t: int
    orientation: str
    n_groups: int
    border_pixels_per_side: int
    n_vertices: int
    n_changes: int
    n_failovers: int = 0


@dataclass
class ComponentsResult:
    """Output of :func:`parallel_components`.

    ``labels`` is the assembled ``n x n`` label image: background 0,
    every component labeled with ``1 +`` the row-major index of its
    first pixel (identical to the sequential engines' convention).
    """

    labels: np.ndarray
    report: MachineReport
    grid: ProcessorGrid
    n_components: int
    step_stats: list[MergeStepStats] = field(default_factory=list)

    @property
    def elapsed_s(self) -> float:
        return self.report.elapsed_s


def parallel_components(
    image: np.ndarray,
    p: int,
    machine_params: MachineParams = IDEAL,
    *,
    connectivity: int = 8,
    grey: bool = False,
    costs: CostParams = DEFAULT_COSTS,
    shadow_manager: bool = True,
    distribution: str = "direct",
    limited_updating: bool = True,
    check_hazards: bool = True,
    overlap: bool = False,
    machine: Machine | None = None,
    fault_plan: FaultPlan | None = None,
) -> ComponentsResult:
    """Label the connected components of an ``n x n`` image on ``p`` processors.

    Parameters
    ----------
    image:
        Integer image; 0 is background.  Binary mode (default) connects
        all non-zero pixels; ``grey=True`` connects equal levels only.
    p:
        Processor count, a power of two with ``p <= n^2`` and the grid
        dividing ``n`` (see :class:`~repro.core.tiles.ProcessorGrid`).
    machine_params:
        Platform cost model for the simulated run.
    connectivity:
        4 or 8 (the paper's two adjacency notions).
    shadow_manager:
        If True (paper's optimization) the processor across the border
        fetches and sorts its side in parallel with the manager;
        if False the manager does both sides itself.
    distribution:
        ``"direct"``: every client fetches the change list straight
        from its manager (equation (8)).  ``"transpose"``: the
        two-round transpose-based distribution of equation (9)/(10).
    limited_updating:
        If True (the paper's algorithm) only tile border pixels are
        relabeled during merges, interiors once at the end via hooks;
        if False every tile pixel is relabeled in every iteration (the
        naive scheme; ablation baseline).
    check_hazards:
        Enable the simulator's same-phase hazard checker.
    overlap:
        Model perfect split-phase overlap of communication and
        computation (see :class:`~repro.bdm.machine.Machine`).
    machine:
        Optional pre-built :class:`Machine` (e.g. with a
        :class:`~repro.obs.sim.MachineRecorder` attached); must have ``p``
        processors.  When given, the other machine options are ignored.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan`.  The simulator
        honors ``sim:merge`` specs: a processor loss at a merge-round
        boundary.  Losing a group's *manager* triggers the paper's
        natural redundancy -- the shadow manager already holds one
        sorted border side, so it fetches the other, solves the border
        graph, and publishes the change list itself (bit-identical
        labels, one failover instant on the simulated timeline).
        Losing the *shadow* makes the manager fetch both sides, as if
        ``shadow_manager=False`` for that group.  Losing both (or the
        manager with ``shadow_manager=False``) is unrecoverable and
        raises :class:`~repro.utils.errors.FailoverError`.  Specs at
        other sites target the process runtime and are ignored here.
    """
    image = check_image(image, square=False)
    if distribution not in ("direct", "transpose"):
        raise ValidationError(f"unknown distribution {distribution!r}")

    grid = ProcessorGrid(p, image.shape)
    if machine is None:
        machine = Machine(p, machine_params, check_hazards=check_hazards, overlap=overlap)
    elif machine.p != p:
        raise ValidationError(f"machine has {machine.p} processors, expected {p}")
    transport = BdmTransport(
        grid, image, machine, connectivity=connectivity, grey=grey, costs=costs,
        shadow_manager=shadow_manager, distribution=distribution,
        limited_updating=limited_updating, fault_plan=fault_plan,
    )
    labels, n_components = label_components(
        DistributedArray(grid, transport), connectivity=connectivity, grey=grey
    )
    return ComponentsResult(labels, machine.report(), grid, n_components, transport.step_stats)


class BdmTransport(Transport):
    """The simulated placement: each verb runs and charges the paper's phases.

    Processor ``pid`` holds tile ``pid``'s colors and labels in two
    :class:`GlobalArray` blocks.  :meth:`label` runs ``cc:label`` (and
    ``cc:hooks``); :meth:`border` assigns the fetch and publish roles,
    applying ``sim:merge`` faults, and runs ``cc:m<t>:fetch``;
    :meth:`publish` charges the engine's solves in ``cc:m<t>:solve``, then
    runs the optional transpose distribution and ``cc:m<t>:update``; and
    :meth:`finalize` runs ``cc:final``.  It is not registered in
    ``TRANSPORTS``: its options model a machine, not a wall clock, and
    ``darray_components`` would degrade its ``FailoverError``.
    """

    name = "bdm"

    def __init__(
        self, grid: ProcessorGrid, image: np.ndarray, machine: Machine, *,
        connectivity: int = 8, grey: bool = False, costs: CostParams = DEFAULT_COSTS,
        shadow_manager: bool = True, distribution: str = "direct",
        limited_updating: bool = True, fault_plan: FaultPlan | None = None,
    ):
        super().__init__(grid)
        self.machine = machine
        self.connectivity = connectivity
        self.grey = grey
        self.costs = costs
        self.shadow_manager = shadow_manager
        self.distribution = distribution
        self.limited_updating = limited_updating
        self.fault_plan = fault_plan
        self._label = get_kernel("tile_label")
        self._relabel = get_kernel("relabel")
        self.step_stats: list[MergeStepStats] = []
        self._round = None  # the last border call's roles, sides, side length, failovers

        q, r = grid.q, grid.r
        self._tiles = [image[grid.tile_slices(pid)] for pid in range(grid.p)]
        self.colors = GlobalArray(machine, q * r, dtype=np.int64, name="colors")
        self.labels = GlobalArray(machine, q * r, dtype=np.int64, name="labels")
        for pid in range(grid.p):
            self.colors.place(pid, self._tiles[pid])  # initial placement, free

    # -- verb 1: tile-local compute ---------------------------------------

    def label(self) -> tuple[dict[int, TileHooks], int]:
        """``cc:label`` and ``cc:hooks``; counts each tile's seed pixels."""
        machine, grid, costs = self.machine, self.grid, self.costs
        q, r = grid.q, grid.r
        n_components = 0
        with machine.phase("cc:label"):
            for proc in machine.procs:
                I, J = grid.coords(proc.pid)
                lab = self._label(
                    self._tiles[proc.pid], connectivity=self.connectivity, grey=self.grey,
                    label_base=1, label_stride=grid.cols, row_offset=I * q, col_offset=J * r,
                )
                self.labels.write(proc, proc.pid, lab.ravel())
                proc.charge_comp(costs.label_per_pixel(self.grey) * (q * r))
                # A tile component's label is the seed of its first pixel.
                rows, cols = np.ogrid[I * q : (I + 1) * q, J * r : (J + 1) * r]
                n_components += int(np.count_nonzero(lab == rows * grid.cols + cols + 1))

        hooks: dict[int, TileHooks] = {}
        if self.limited_updating:
            with machine.phase("cc:hooks"):
                for proc in machine.procs:
                    hooks[proc.pid] = create_tile_hooks(self._tile_labels(proc.pid))
                    bp = hook_ops(q, r)
                    proc.charge_comp(costs.hooks_per_border_pixel * bp + hybrid_sort_ops(bp))
        return hooks, n_components

    def finalize(self, hooks: dict[int, TileHooks]) -> None:
        if not self.limited_updating:
            return
        with self.machine.phase("cc:final"):
            for proc in self.machine.procs:
                final = self._tile_labels(proc.pid).copy()
                apply_hooks(final, hooks[proc.pid])
                self.labels.write(proc, proc.pid, final.ravel())
                proc.charge_comp(self.costs.relabel_per_pixel * (self.grid.q * self.grid.r))

    def histogram(self, k: int) -> np.ndarray:
        raise ConfigurationError(
            "the bdm transport labels components only; use parallel_histogram to simulate one"
        )

    # -- verb 2: border exchange -------------------------------------------

    def border(self, step_index, step) -> list[tuple[BorderSide, BorderSide]]:
        """Assign the round's roles, then ``cc:m<t>:fetch``: each fetcher
        prefetches its side's labels and colors and sorts them."""
        machine, q, r = self.machine, self.grid.q, self.grid.r
        roles, n_failovers = self._assign_roles(step)
        edge_a, edge_b = step.edge_names
        idx_a, idx_b = edge_indices(q, r, edge_a), edge_indices(q, r, edge_b)
        side_len = len(idx_a) * len(step.groups[0].side_a_pids)
        sides = []
        with machine.phase(f"cc:m{step.t}:fetch"):
            for group, (fetch_a, fetch_b, _) in zip(step.groups, roles):
                sides.append((
                    self._fetch_side(fetch_a, group.side_a_pids, idx_a, side_len),
                    self._fetch_side(fetch_b, group.side_b_pids, idx_b, side_len),
                ))
        self._round = (roles, sides, side_len, n_failovers)
        self.stats.border_bytes += border_nbytes(sides)
        return sides

    def _fetch_side(self, fetcher: int, pids, edge_idx, side_len: int) -> BorderSide:
        """One border side's labels and colors (pipelined prefetch), sorted."""
        proc = self.machine.procs[fetcher]
        lab_parts = []
        col_parts = []
        with proc.prefetch_batch():
            for pid in pids:
                lab_parts.append(self.labels.read_indices(proc, pid, edge_idx))
                col_parts.append(self.colors.read_indices(proc, pid, edge_idx))
        proc.charge_comp(hybrid_sort_ops(side_len))
        return BorderSide(np.concatenate(lab_parts), np.concatenate(col_parts))

    def _assign_roles(self, step: MergeStep) -> tuple[list[tuple[int, int, int]], int]:
        """``(fetch_a, fetch_b, publisher)`` per group, and the failover count.

        Normally the manager fetches side A and publishes, and the shadow
        fetches side B.  A ``sim:merge`` fault reassigns roles at the
        round boundary -- manager lost, the shadow takes all three
        (failover); shadow lost, the manager does.  The faulted
        processor's tile memory stays served (single global address
        space), and it rejoins as an ordinary update-phase client, so
        labels stay bit-identical to the unfaulted run.
        """
        machine, t = self.machine, step.t
        roles = []
        n_failovers = 0
        for gi, group in enumerate(step.groups):
            fetch_a = publisher = group.manager
            fetch_b = group.shadow if self.shadow_manager else group.manager
            lost: set[str] = set()
            if self.fault_plan is not None:
                for spec in self.fault_plan.match_all("sim:merge", round=t - 1, group=gi):
                    lost |= {"manager", "shadow"} if spec.target == "both" else {spec.target}
            if "manager" in lost:
                machine.note_instant(FAULT_MANAGER_CRASH, lane=group.manager, round=t - 1, group=gi)
                if "shadow" in lost or not self.shadow_manager:
                    lost_too = f"shadow P{group.shadow} lost too"
                    detail = lost_too if "shadow" in lost else "no shadow manager to fail over to"
                    raise FailoverError(
                        f"merge round {t - 1} group {gi}: manager P{group.manager} "
                        f"lost and {detail}",
                        site="sim:merge",
                    )
                machine.note_instant(
                    FAULT_FAILOVER, lane=group.shadow, round=t - 1, group=gi,
                    manager=group.manager, shadow=group.shadow,
                )
                fetch_a = fetch_b = publisher = group.shadow
                n_failovers += 1
            elif "shadow" in lost and self.shadow_manager:
                machine.note_instant(FAULT_SHADOW_CRASH, lane=group.shadow, round=t - 1, group=gi)
                fetch_b = group.manager
                n_failovers += 1
            roles.append((fetch_a, fetch_b, publisher))
        return roles, n_failovers

    # -- verb 3: change publish/fetch --------------------------------------

    def publish(self, step_index, step, changes) -> None:
        """Charge the round's solves, distribute its change arrays and
        relabel every region -- each group, as its clients fetch
        ``chSize`` even for an empty change array."""
        published = publishing_groups(step, changes)
        machine, costs, t = self.machine, self.costs, step.t
        roles, sides, side_len, n_failovers = self._round
        changes = list(changes)
        n_vertices = 0
        with machine.phase(f"cc:m{t}:solve"):
            for (_, fetch_b, publisher), (side_a, side_b), ch in zip(roles, sides, changes):
                if fetch_b != publisher:
                    # Publisher prefetches the other fetcher's sorted side
                    # (labels + colors); that fetcher reverts to a client.
                    machine.transfer(fetch_b, publisher, 2 * side_len)
                # The border graph's vertices are the sides' colored pixels.
                nv = int(np.count_nonzero(side_a.colors) + np.count_nonzero(side_b.colors))
                machine.procs[publisher].charge_comp(
                    costs.graph_build_per_vertex * nv
                    + costs.graph_cc_per_vertex * nv
                    + costs.change_per_entry * len(ch)
                    + hybrid_sort_ops(len(ch))
                )
                n_vertices += nv

        if self.distribution == "transpose":
            self._distribute_transpose(step, changes, roles)

        with machine.phase(f"cc:m{t}:update"):
            for group, (_, _, publisher), ch in zip(step.groups, roles, changes):
                ch_words = 1 + 2 * len(ch)
                for pid in group.region:
                    if self.distribution == "direct" and pid != publisher:
                        # Client prefetches chSize, then the change pairs,
                        # straight from the publisher (equation (8)).
                        machine.transfer(publisher, pid, ch_words)
                    if len(ch):
                        self._update_tile(machine.procs[pid], ch)

        self.stats.change_bytes += change_nbytes(published)
        self.step_stats.append(MergeStepStats(
            t, step.orientation, len(step.groups), side_len, n_vertices,
            sum(len(ch) for ch in changes), n_failovers,
        ))

    def _update_tile(self, proc, ch: ChangeArray) -> None:
        """Relabel a processor's border pixels (or, without limited
        updating, all its pixels) by binary search of ``ch``."""
        pid, n_pixels = proc.pid, self.grid.q * self.grid.r
        if self.limited_updating:
            idx = perimeter_indices(self.grid.q, self.grid.r)
            cur = self.labels.read_indices(proc, pid, idx)
            self.labels.write_indices(proc, pid, idx, self._relabel(cur, ch.alphas, ch.betas))
            n_pixels = len(idx)
        else:
            cur = self.labels.read(proc, pid)
            self.labels.write(proc, pid, self._relabel(cur, ch.alphas, ch.betas))
        proc.charge_comp(self.costs.binary_search_ops(n_pixels, len(ch)))

    def _distribute_transpose(
        self,
        step: MergeStep,
        changes: list[ChangeArray],
        roles: list[tuple[int, int, int]],
    ) -> None:
        """Equation (9)/(10): two-round change-list distribution.

        Round 1: the publisher (the manager, or the shadow after a
        failover) hands each of the ``f`` region processors one
        ``ceil(c/f)``-word slice of the serialized change list.  Round 2:
        the processors exchange slices circularly, so everyone assembles
        the full list at cost ``2 (tau + c - c/f)`` instead of the direct
        scheme's ``f``-fold serialization at the publisher.
        The reassembled list replaces the publisher-held one in
        ``changes``, keeping the data path honest.
        """
        machine, t = self.machine, step.t
        # Per-processor slice lengths for this step's groups.
        lengths = [0] * machine.p
        group_meta = []
        for group, ch in zip(step.groups, changes):
            region = group.region
            f = len(region)
            words = ch.to_words()
            c = len(words)
            slice_len = -(-max(c, 1) // f)  # ceil; >=1 so blocks are addressable
            padded = np.zeros(slice_len * f, dtype=np.int64)
            padded[:c] = words
            group_meta.append((region, slice_len, padded, len(ch)))
            for pid in region:
                lengths[pid] = slice_len
        slices = GlobalArray(machine, lengths, dtype=np.int64, name=f"chslices:m{t}")

        with machine.phase(f"cc:m{t}:dist1"):
            for (region, slice_len, padded, _), (_, _, publisher) in zip(group_meta, roles):
                for rank, pid in enumerate(region):
                    if pid != publisher:
                        machine.transfer(publisher, pid, slice_len + 1)
                    block = padded[rank * slice_len : (rank + 1) * slice_len]
                    slices.write(machine.procs[pid], pid, block)

        with machine.phase(f"cc:m{t}:dist2"):
            for gi, (group, (region, _, _, n_ch)) in enumerate(zip(step.groups, group_meta)):
                f = len(region)
                for my_rank, pid in enumerate(region):
                    proc = machine.procs[pid]
                    parts = [None] * f
                    with proc.prefetch_batch():
                        for hop in range(f):
                            rank = (my_rank + hop) % f
                            parts[rank] = slices.read(proc, region[rank])
                    words = np.concatenate(parts)[: 2 * n_ch]
                    if pid == group.manager:
                        # Everyone reassembles identically; adopt one copy so
                        # the update phase consumes shipped (not workspace) data.
                        changes[gi] = ChangeArray.from_words(words)

    # -- collection ----------------------------------------------------------

    def gather(self) -> np.ndarray:
        return self.grid.gather(
            [self._tile_labels(pid) for pid in range(self.grid.p)], dtype=np.int64
        )

    def _tile_labels(self, pid: int) -> np.ndarray:
        return self.labels.local(pid).reshape(self.grid.q, self.grid.r)
