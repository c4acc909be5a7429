"""Vectorized kernels for the hot local steps, behind a dispatch registry.

Usage::

    from repro import kernels

    label = kernels.get("tile_label")                     # numpy
    label = kernels.get("tile_label", backend="python")   # the reference

Registered kernels (identical signatures across backends):

``histogram(image, k)``
    Grey-level tally ``H[0..k-1]`` (Section 4 step 1).
``tile_label(image, *, connectivity, grey, label_base, label_stride,
row_offset, col_offset)``
    Per-tile component labeling with the paper's
    ``(Iq + i) n + (Jr + j) + 1`` seed-label convention (Section 5.1).
``tile_runs(image, **same keywords)``
    The same labeling as a :class:`~repro.baselines.run_label.TileRuns`
    run table (run labels and lengths, perimeter labels, component
    count), which the distributed engines keep until the final update.
``border_extract(tile, edge)``
    One tile edge in global scan order (merge-step input).
``relabel(labels, alphas, betas)``
    Binary-search relabel against a sorted unique change array
    (Procedure 1 consumption).

Every engine runs the ``"numpy"`` kernels; the tile labeler is the
run-length two-pass labeler of :mod:`repro.baselines.run_label`.  The
``"python"`` backend is the per-pixel reference they are proven
bit-identical to by the differential property suite.  See
docs/KERNELS.md.
"""

from repro.kernels.registry import (
    BACKENDS,
    DEFAULT_BACKEND,
    get,
    kernel_names,
    register,
)

# Importing the backend modules populates the registry.
from repro.kernels import python_backend, numpy_backend  # noqa: E402,F401

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "get",
    "kernel_names",
    "register",
]
