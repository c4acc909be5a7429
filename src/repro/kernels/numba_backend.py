"""JIT-compiled kernels (``backend="numba"``) -- optional.

The third backend of the registry: the paper's per-pixel procedures,
written as plain scalar loops but compiled to machine code by numba.
Where the numpy backend wins by vectorizing (at the cost of temporaries
and multiple passes), the compiled backend wins by doing exactly one
pass with zero interpreter overhead -- the classic two-pass union-find
CCL formulation, a single-pass tally, and an in-loop binary search.

**Availability is optional by design.**  The module imports cleanly
without numba installed: nothing is registered, ``numba`` simply does
not appear in :func:`repro.kernels.available_backends`, and selecting
it raises a clear :class:`~repro.utils.errors.ValidationError` at
resolution time.  No other behavior changes -- the differential suite
skips its numba legs instead of failing.

Bit-identity with the python/numpy backends is enforced by the same
Hypothesis differential suite and golden fixtures that police the
numpy backend; the labeling core guarantees the Section 5.1 seed-label
convention because its union-find keeps the *minimum* flat pixel index
as every class representative, so each component's final root is its
first pixel in row-major order -- the BFS seed.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.run_label import runs_adapter
from repro.kernels.registry import register
from repro.utils.errors import ValidationError
from repro.utils.validation import check_image, check_power_of_two

try:  # pragma: no cover - exercised only where numba is installed
    import numba  # noqa: F401
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # the graceful-skip path
    numba = None
    njit = None
    NUMBA_AVAILABLE = False


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only with numba

    @njit(cache=True)
    def _hist_core(flat: np.ndarray, k: int) -> np.ndarray:
        out = np.zeros(k, dtype=np.int64)
        for i in range(flat.size):
            out[flat[i]] += 1
        return out

    @njit(cache=True)
    def _find(parent: np.ndarray, x: int) -> int:
        # Path halving; roots are minima because unions attach the
        # larger root under the smaller one.
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    @njit(cache=True)
    def _union(parent: np.ndarray, a: int, b: int) -> None:
        ra = _find(parent, a)
        rb = _find(parent, b)
        if ra < rb:
            parent[rb] = ra
        elif rb < ra:
            parent[ra] = rb

    @njit(cache=True)
    def _label_roots(image: np.ndarray, connectivity: int, grey: bool) -> np.ndarray:
        """Flat component root (min row-major index) per pixel, -1 for
        background.  One forward scan unions each foreground pixel with
        its already-scanned neighbors; a second scan finalizes roots."""
        rows, cols = image.shape
        n = rows * cols
        parent = np.arange(n, dtype=np.int64)
        for i in range(rows):
            for j in range(cols):
                v = image[i, j]
                if v == 0:
                    continue
                p = i * cols + j
                if j > 0 and image[i, j - 1] != 0 and (
                    not grey or image[i, j - 1] == v
                ):
                    _union(parent, p, p - 1)
                if i > 0:
                    if image[i - 1, j] != 0 and (not grey or image[i - 1, j] == v):
                        _union(parent, p, p - cols)
                    if connectivity == 8:
                        if j > 0 and image[i - 1, j - 1] != 0 and (
                            not grey or image[i - 1, j - 1] == v
                        ):
                            _union(parent, p, p - cols - 1)
                        if j < cols - 1 and image[i - 1, j + 1] != 0 and (
                            not grey or image[i - 1, j + 1] == v
                        ):
                            _union(parent, p, p - cols + 1)
        roots = np.empty(n, dtype=np.int64)
        for p in range(n):
            if image[p // cols, p % cols] == 0:
                roots[p] = -1
            else:
                roots[p] = _find(parent, p)
        return roots

    @njit(cache=True)
    def _relabel_core(
        flat: np.ndarray, alphas: np.ndarray, betas: np.ndarray
    ) -> np.ndarray:
        out = flat.copy()
        for i in range(flat.size):
            v = flat[i]
            lo, hi = 0, alphas.size
            while lo < hi:
                mid = (lo + hi) // 2
                if alphas[mid] < v:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < alphas.size and alphas[lo] == v:
                out[i] = betas[lo]
        return out

    @register("histogram", "numba")
    def histogram(image: np.ndarray, k: int) -> np.ndarray:
        """Single-pass compiled tally (Section 4 step 1)."""
        image = check_image(image, square=False)
        check_power_of_two("k", k)
        if image.max(initial=0) >= k:
            raise ValidationError(f"image has grey levels >= k={k}")
        return _hist_core(np.ascontiguousarray(image, dtype=np.int64).ravel(), k)

    @register("tile_label", "numba")
    def tile_label(
        image: np.ndarray,
        *,
        connectivity: int = 8,
        grey: bool = False,
        label_base: int = 1,
        label_stride: int | None = None,
        row_offset: int = 0,
        col_offset: int = 0,
    ) -> np.ndarray:
        """Compiled two-pass union-find labeling; bit-identical to
        ``bfs_label`` (same seed-label convention, same rejections)."""
        image = check_image(image, square=False)
        if connectivity not in (4, 8):
            raise ValidationError(f"connectivity must be 4 or 8, got {connectivity}")
        rows, cols = image.shape
        stride = cols if label_stride is None else int(label_stride)
        roots = _label_roots(
            np.ascontiguousarray(image, dtype=np.int64), connectivity, grey
        )
        out = np.zeros(rows * cols, dtype=np.int64)
        fg = roots >= 0
        if not fg.any():
            return out.reshape(rows, cols)
        seed = roots[fg]
        labels = (
            label_base
            + (row_offset + seed // cols) * stride
            + (col_offset + seed % cols)
        )
        if (labels == 0).any():
            bad = int(seed[np.argmax(labels == 0)])
            raise ValidationError(
                f"seed ({bad // cols},{bad % cols}) gets label 0 (the "
                "background sentinel); use label_base/offsets that keep "
                "foreground labels non-zero"
            )
        out[fg] = labels
        return out.reshape(rows, cols)

    register("tile_runs", "numba")(runs_adapter(tile_label))

    @register("border_extract", "numba")
    def border_extract(tile: np.ndarray, edge: str) -> np.ndarray:
        """Edge slicing is already a single memcpy; no JIT needed."""
        tile = np.asarray(tile)
        if tile.ndim != 2:
            raise ValidationError(f"tile must be 2-D, got shape {tile.shape}")
        if edge == "top":
            return tile[0, :].copy()
        if edge == "bottom":
            return tile[-1, :].copy()
        if edge == "left":
            return tile[:, 0].copy()
        if edge == "right":
            return tile[:, -1].copy()
        raise ValidationError(f"unknown edge {edge!r}")

    @register("relabel", "numba")
    def relabel(
        labels: np.ndarray, alphas: np.ndarray, betas: np.ndarray
    ) -> np.ndarray:
        """Compiled per-element binary search of the sorted change array."""
        labels = np.asarray(labels, dtype=np.int64)
        alphas = np.asarray(alphas, dtype=np.int64)
        betas = np.asarray(betas, dtype=np.int64)
        if alphas.shape != betas.shape or alphas.ndim != 1:
            raise ValidationError("alphas and betas must be equal-length vectors")
        if alphas.size == 0:
            return labels.copy()
        return _relabel_core(
            np.ascontiguousarray(labels).ravel(), alphas, betas
        ).reshape(labels.shape)
