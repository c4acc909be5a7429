"""Kernel-dispatched connected component labeling engine.

``kernel_label`` is the registry-backed fifth engine: it forwards to
whichever ``tile_label`` kernel backend is selected (explicitly, via
``REPRO_KERNEL_BACKEND``, or the numpy default) and therefore produces
the shared label convention -- ``label_base + (row_offset + i) * stride
+ (col_offset + j)`` of the component's first pixel -- bit-identically
to :func:`~repro.baselines.bfs_label.bfs_label` and friends.

Registered in :data:`repro.baselines.sequential.ENGINES` under the key
``"kernel"``, so ``sequential_components(..., engine="kernel")`` and
``parallel_components(..., engine="kernel")`` pick it up directly.
"""

from __future__ import annotations

import numpy as np


def kernel_label(
    image: np.ndarray,
    *,
    connectivity: int = 8,
    grey: bool = False,
    label_base: int = 1,
    label_stride: int | None = None,
    row_offset: int = 0,
    col_offset: int = 0,
    backend: str | None = None,
) -> np.ndarray:
    """Label connected components through the kernel registry.

    Same signature and output as
    :func:`~repro.baselines.bfs_label.bfs_label`, plus ``backend`` to
    pin the kernel backend (``"python"``, ``"numpy"`` or ``"numba"``;
    ``None`` resolves the environment/default).
    """
    # Imported lazily: repro.kernels pulls in repro.baselines for the
    # python reference backend, so a module-level import would cycle.
    from repro import kernels

    fn = kernels.get("tile_label", backend=backend)
    return fn(
        image,
        connectivity=connectivity,
        grey=grey,
        label_base=label_base,
        label_stride=label_stride,
        row_offset=row_offset,
        col_offset=col_offset,
    )
