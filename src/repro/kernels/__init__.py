"""Vectorized kernels for the hot local steps, behind a dispatch registry.

Usage::

    from repro import kernels

    label = kernels.get("tile_label")              # resolved backend
    label = kernels.get("tile_label", backend="python")   # explicit
    hist  = kernels.get("histogram", backend="numpy")

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

Backend selection precedence: explicit ``backend=`` argument >
``REPRO_KERNEL_BACKEND`` environment variable > ``"numpy"``.  The
``"python"`` backend is the per-pixel reference; ``"numpy"`` is proven
bit-identical to it by the differential property suite, and the
optional ``"numba"`` backend (JIT-compiled loops; registered only when
the numba package is installed) is held to the same contract.  See
docs/KERNELS.md.
"""

from repro.kernels.registry import (
    BACKENDS,
    DEFAULT_BACKEND,
    ENV_VAR,
    available_backends,
    backends_of,
    get,
    kernel_names,
    register,
    resolve_backend,
)

# Importing the backend modules populates the registry.  The numba
# module always imports cleanly; it registers nothing when the numba
# package is absent (see NUMBA_AVAILABLE).
from repro.kernels import python_backend, numpy_backend, numba_backend  # noqa: E402,F401
from repro.kernels.numba_backend import NUMBA_AVAILABLE  # noqa: E402

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "NUMBA_AVAILABLE",
    "available_backends",
    "backends_of",
    "get",
    "kernel_names",
    "register",
    "resolve_backend",
]
