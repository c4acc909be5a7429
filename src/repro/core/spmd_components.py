"""The full connected components algorithm as an SPMD program.

The paper's Sections 5.3-5.4 describe the merge iterations from two
perspectives -- the group managers' task and the clients' task -- as
the divergent control flow of ONE per-processor program.  This module
writes the algorithm exactly that way on the generator executor
(:func:`repro.bdm.spmd.run_spmd`); the configurable path is
:func:`~repro.core.connected_components.parallel_components`, the shared
darray driver over the simulator's transport (this one fixes the
paper's defaults: shadow manager on, direct change distribution,
limited updating).

Per merge iteration every processor executes the same seven supersteps
(clients simply pass through the manager-only ones):

1. managers/shadows issue split-phase prefetches of their border side;
2. both sort their side by label; the shadow publishes its sorted side;
3. the manager prefetches the shadow's sorted side;
4. the manager solves the border graph and publishes the change array;
5. every processor of the region prefetches ``chSize`` from its manager;
6. ... then the ``(alpha, beta)`` pairs themselves (equation (8)'s two
   prefetch rounds);
7. every processor relabels its own tile-border pixels by binary search.

Output is bit-identical to the phase implementation and the sequential
engines; communication costs agree (the extra supersteps only add
barrier overhead), which the tests assert.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.sequential import ENGINES
from repro.bdm.machine import Machine
from repro.bdm.spmd import SpmdContext, run_spmd
from repro.core.border_graph import BorderSide, solve_border_merge
from repro.core.change_array import ChangeArray, apply_changes
from repro.core.costs import CostParams, DEFAULT_COSTS
from repro.core.hooks import apply_hooks, create_tile_hooks, hook_ops
from repro.core.merge import merge_schedule
from repro.core.tiles import ProcessorGrid, edge_indices, perimeter_indices
from repro.machines.params import MachineParams, IDEAL
from repro.sorting.hybrid import hybrid_argsort, hybrid_sort_ops
from repro.utils.errors import ValidationError
from repro.utils.validation import check_image


def spmd_components(
    image: np.ndarray,
    p: int,
    machine_params: MachineParams = IDEAL,
    *,
    connectivity: int = 8,
    grey: bool = False,
    engine: str = "runs",
    costs: CostParams = DEFAULT_COSTS,
):
    """Label connected components via the SPMD program.

    Returns ``(labels, machine)``; the machine carries the cost report.
    """
    image = check_image(image, square=False)
    if engine not in ENGINES:
        raise ValidationError(f"unknown engine {engine!r}; known: {sorted(ENGINES)}")
    label_fn = ENGINES[engine]

    grid = ProcessorGrid(p, image.shape)
    stride = grid.cols
    q, r = grid.q, grid.r
    machine = Machine(p, machine_params)
    tiles = grid.scatter(image)
    schedule = merge_schedule(grid)

    # Per-step role maps: every processor belongs to exactly one group.
    roles = []
    for step in schedule:
        by_pid = {}
        for group in step.groups:
            for pid in group.region:
                by_pid[pid] = group
        roles.append(by_pid)

    border_idx = perimeter_indices(q, r)
    edge_cache = {name: edge_indices(q, r, name) for name in ("top", "bottom", "left", "right")}
    tile_pixels = q * r
    max_side = max(grid.v * q, grid.w * r)  # largest border side in pixels
    chg_capacity = 1 + 4 * max_side  # size word + alphas + betas

    def program(ctx: SpmdContext):
        labels = ctx.array("labels", tile_pixels)
        colors = ctx.array("colors", tile_pixels)
        side_lab = ctx.array("side_lab", max_side)
        side_col = ctx.array("side_col", max_side)
        chg = ctx.array("chg", chg_capacity)

        # ---- initial labeling + hooks (Sections 5.1, Procedure 2).
        I, J = grid.coords(ctx.pid)
        lab = label_fn(
            tiles[ctx.pid],
            connectivity=connectivity,
            grey=grey,
            label_base=1,
            label_stride=stride,
            row_offset=I * q,
            col_offset=J * r,
        )
        ctx.write(labels, lab.ravel())
        ctx.write(colors, tiles[ctx.pid].ravel())
        ctx.charge(costs.label_per_pixel(grey) * tile_pixels)
        hooks = create_tile_hooks(lab)
        bp = hook_ops(q, r)
        ctx.charge(costs.hooks_per_border_pixel * bp + hybrid_sort_ops(bp))
        yield ctx.barrier()

        for step, by_pid in zip(schedule, roles):
            group = by_pid[ctx.pid]
            edge_a, edge_b = step.edge_names
            i_manage = ctx.pid == group.manager
            i_shadow = ctx.pid == group.shadow
            side_len = len(edge_cache[edge_a]) * len(group.side_a_pids)

            # (1) managers and shadows prefetch their border side.
            handles = []
            if i_manage or i_shadow:
                pids = group.side_a_pids if i_manage else group.side_b_pids
                edge = edge_cache[edge_a if i_manage else edge_b]
                for pid in pids:
                    handles.append(
                        (
                            ctx.prefetch_indices(labels, pid, edge),
                            ctx.prefetch_indices(colors, pid, edge),
                        )
                    )
            yield ctx.sync()

            # (2) sort by label; the shadow publishes its sorted side.
            my_side = None
            if i_manage or i_shadow:
                lab_side = np.concatenate([h.value for h, _ in handles])
                col_side = np.concatenate([c.value for _, c in handles])
                order = hybrid_argsort(lab_side)
                ctx.charge(hybrid_sort_ops(side_len))
                if i_shadow:
                    # Publish sorted labels/colors plus the permutation's
                    # inverse is unnecessary: the manager rebuilds the
                    # positional view it needs from the raw side, so we
                    # publish the side in *position* order (the sort cost
                    # is what the shadow contributes).
                    ctx.write(side_lab, lab_side, start=0)
                    ctx.write(side_col, col_side, start=0)
                if i_manage:
                    my_side = BorderSide(lab_side, col_side)
                del order
            yield ctx.barrier()

            # (3) the manager prefetches the shadow's (sorted) side.
            other_handles = None
            if i_manage:
                other_handles = (
                    ctx.prefetch(side_lab, group.shadow, 0, side_len),
                    ctx.prefetch(side_col, group.shadow, 0, side_len),
                )
            yield ctx.sync()

            # (4) the manager solves the border graph and publishes the
            # sorted change array (Procedures 1 and the graph CC).
            if i_manage:
                other = BorderSide(other_handles[0].value, other_handles[1].value)
                solve = solve_border_merge(
                    my_side, other, connectivity=connectivity, grey=grey
                )
                ctx.charge(
                    costs.graph_build_per_vertex * solve.n_vertices
                    + costs.graph_cc_per_vertex * solve.n_vertices
                    + costs.change_per_entry * len(solve.changes)
                    + hybrid_sort_ops(len(solve.changes))
                )
                words = solve.changes.to_words()
                ctx.write(chg, [len(solve.changes)], start=0)
                if len(words):
                    ctx.write(chg, words, start=1)
            yield ctx.barrier()

            # (5) everyone prefetches chSize from its manager ...
            size_handle = ctx.prefetch(chg, group.manager, 0, 1)
            yield ctx.sync()

            # (6) ... then the change pairs themselves.
            n_changes = int(size_handle.value[0])
            list_handle = None
            if n_changes:
                list_handle = ctx.prefetch(chg, group.manager, 1, 1 + 2 * n_changes)
            yield ctx.sync()

            # (7) drastically limited updating: border pixels only.
            if n_changes:
                changes = ChangeArray.from_words(list_handle.value)
                cur = ctx.read_local(labels)[border_idx]
                ctx.write_indices(labels, border_idx, apply_changes(cur, changes))
                ctx.charge(costs.binary_search_ops(len(border_idx), n_changes))
            yield ctx.barrier()

        # ---- final consistency update via the tile hooks.
        final = ctx.read_local(labels).reshape(q, r).copy()
        apply_hooks(final, hooks)
        ctx.write(labels, final.ravel())
        ctx.charge(costs.relabel_per_pixel * tile_pixels)
        yield ctx.barrier()
        return final

    results = run_spmd(machine, program)
    full = grid.gather(results, dtype=np.int64)
    return full, machine
