"""Differential property suite for the :mod:`repro.kernels` registry.

The claim the kernel layer makes -- numpy kernels are **bit-identical**
to the per-pixel Python references -- is exactly the kind of statement
Hypothesis can attack: random rectangular images (binary and grey,
both connectivities, degenerate all-background / all-foreground and
1-pixel-wide shapes included), random label offsets, random change
arrays.  Every test here compares whole arrays with
``np.array_equal``; there is no tolerance anywhere.

The suite runs under the derandomized ``repro`` / ``repro-ci``
profiles pinned in ``conftest.py``, so failures reproduce.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import kernels
from repro.baselines import (
    ENGINES,
    bfs_label,
    run_label,
    sequential_histogram,
    two_pass_label,
)
from repro.baselines.run_label import tile_runs
from repro.core.tiles import edge_indices, perimeter_indices
from repro.utils.errors import ValidationError

from tests.conftest import canonicalize


def _image_strategy(max_side: int = 10, max_level: int = 4):
    return st.integers(1, max_side).flatmap(
        lambda rows: st.integers(1, max_side).flatmap(
            lambda cols: arrays(
                np.int32, (rows, cols), elements=st.integers(0, max_level)
            )
        )
    )


connectivities = st.sampled_from([4, 8])
grey_flags = st.booleans()


# ---------------------------------------------------------------------------
# registry basics
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_known_kernels_and_backends(self):
        assert kernels.kernel_names() == [
            "border_extract",
            "histogram",
            "relabel",
            "tile_label",
            "tile_runs",
        ]
        assert kernels.BACKENDS == ("python", "numpy")
        for name in kernels.kernel_names():
            for backend in kernels.BACKENDS:
                kernels.get(name, backend)  # raises if the pair is missing

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValidationError):
            kernels.get("no_such_kernel")

    def test_unknown_backend_rejected(self):
        for backend in ("fortran", "numba"):
            with pytest.raises(ValidationError, match="unknown kernel backend"):
                kernels.get("histogram", backend=backend)

    def test_no_backend_means_numpy(self, monkeypatch):
        """Nothing but the argument picks a backend: not the environment
        variable that once did."""
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "python")
        assert kernels.DEFAULT_BACKEND == "numpy"
        for name in kernels.kernel_names():
            assert kernels.get(name) is kernels.get(name, backend="numpy")

    def test_numpy_tile_label_is_run_label(self):
        """There is one run-length labeler: the numpy kernel is ``run_label``."""
        assert kernels.get("tile_label", backend="numpy").__wrapped__ is run_label
        assert kernels.get("tile_runs", backend="numpy").__wrapped__ is tile_runs

    def test_numpy_histogram_is_sequential_histogram(self):
        """There is one vectorized tally: the numpy kernel is
        ``sequential_histogram``."""
        assert kernels.get("histogram", backend="numpy").__wrapped__ is sequential_histogram


# ---------------------------------------------------------------------------
# tile labeling: numpy kernel vs every reference engine
# ---------------------------------------------------------------------------


class TestTileLabelDifferential:
    @given(image=_image_strategy(), connectivity=connectivities, grey=grey_flags)
    @example(image=np.zeros((5, 7), dtype=np.int32), connectivity=8, grey=False)
    @example(image=np.ones((5, 7), dtype=np.int32), connectivity=4, grey=True)
    @example(image=np.ones((1, 9), dtype=np.int32), connectivity=8, grey=False)
    @example(image=np.ones((9, 1), dtype=np.int32), connectivity=4, grey=False)
    @example(image=np.ones((1, 1), dtype=np.int32), connectivity=8, grey=True)
    @example(  # (0,4) and (1,0) are adjacent only if a row wraps
        image=np.array([[0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 0, 0, 0, 0]], dtype=np.int32),
        connectivity=8,
        grey=False,
    )
    def test_bit_identical_to_references(self, image, connectivity, grey):
        kw = dict(connectivity=connectivity, grey=grey)
        expected = bfs_label(image, **kw)
        got = kernels.get("tile_label", backend="numpy")(image, **kw)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert np.array_equal(two_pass_label(image, **kw), expected)
        assert np.array_equal(run_label(image, **kw), expected)

    @given(
        image=_image_strategy(max_side=8),
        connectivity=connectivities,
        grey=grey_flags,
        label_base=st.integers(0, 3),
        label_stride=st.integers(1, 64) | st.none(),
        row_offset=st.integers(0, 32),
        col_offset=st.integers(0, 32),
    )
    @example(  # a foreground seed at the effective origin gets label 0
        image=np.ones((2, 2), dtype=np.int32), connectivity=8, grey=False,
        label_base=0, label_stride=None, row_offset=0, col_offset=0,
    )
    def test_seed_label_convention_with_offsets(
        self, image, connectivity, grey, label_base, label_stride, row_offset, col_offset
    ):
        """The paper's ``(Iq + i) n + (Jr + j) + 1`` tile-offset labels.

        ``label_base=0`` can assign a foreground seed the background
        sentinel 0 (historically an infinite loop in ``bfs_label``);
        both backends must reject such inputs identically.
        """
        kw = dict(
            connectivity=connectivity,
            grey=grey,
            label_base=label_base,
            label_stride=label_stride,
            row_offset=row_offset,
            col_offset=col_offset,
        )
        numpy_kernel = kernels.get("tile_label", backend="numpy")
        try:
            expected = bfs_label(image, **kw)
        except ValidationError:
            with pytest.raises(ValidationError):
                numpy_kernel(image, **kw)
            return
        got = numpy_kernel(image, **kw)
        assert np.array_equal(got, expected)

    def test_zero_seed_label_rejected(self):
        """Label 0 collides with the background sentinel -> rejected.

        The per-pixel reference used to spin forever on this input (the
        seed never counts as visited); now every kernel backend and
        every sequential engine raises.  A bad connectivity is rejected
        even when the image has no foreground to label.
        """
        labelers = [kernels.get("tile_label", backend=b) for b in kernels.BACKENDS]
        labelers += list(ENGINES.values())
        for fn in labelers:
            with pytest.raises(ValidationError):
                fn(np.ones((3, 3), dtype=np.int32), label_base=0)
            with pytest.raises(ValidationError):
                fn(np.zeros((3, 3), dtype=np.int32), connectivity=5)

    @given(image=_image_strategy(), connectivity=connectivities, grey=grey_flags)
    def test_label_convention_canonical(self, image, connectivity, grey):
        """Every component is labeled 1 + min row-major index of its pixels."""
        labels = kernels.get("tile_label", backend="numpy")(
            image, connectivity=connectivity, grey=grey
        )
        assert np.array_equal(canonicalize(labels), labels)
        assert np.array_equal(labels != 0, np.asarray(image) != 0)

    @given(image=_image_strategy(max_side=8, max_level=3), connectivity=connectivities)
    def test_grey_permutation_invariance(self, image, connectivity):
        """Grey CC depends only on the equality pattern of levels.

        Relabeling the non-zero grey levels through any injective map
        (here: level -> level + 7) must leave the labeling unchanged.
        """
        permuted = np.where(image != 0, image + 7, 0).astype(np.int32)
        kern = kernels.get("tile_label", backend="numpy")
        a = kern(image, connectivity=connectivity, grey=True)
        b = kern(permuted, connectivity=connectivity, grey=True)
        assert np.array_equal(a, b)

    @given(
        image=_image_strategy(max_side=8, max_level=1),
        connectivity=connectivities,
        scale=st.integers(2, 250),
    )
    def test_binary_value_invariance(self, image, connectivity, scale):
        """Binary CC sees only foreground/background, not the values."""
        scaled = (image * scale).astype(np.int32)
        kern = kernels.get("tile_label", backend="numpy")
        assert np.array_equal(
            kern(image, connectivity=connectivity, grey=False),
            kern(scaled, connectivity=connectivity, grey=False),
        )

    def test_python_backend_is_bfs(self, small_binary):
        assert np.array_equal(
            kernels.get("tile_label", backend="python")(small_binary),
            bfs_label(small_binary),
        )


# ---------------------------------------------------------------------------
# tile_runs: the run table every backend returns
# ---------------------------------------------------------------------------


class TestTileRunsDifferential:
    @given(
        image=_image_strategy(),
        connectivity=connectivities,
        grey=grey_flags,
        label_base=st.integers(1, 3),
        stride_pad=st.integers(0, 40) | st.none(),
        row_offset=st.integers(0, 32),
        col_offset=st.integers(0, 32),
    )
    @example(  # no foreground at all
        image=np.zeros((4, 6), dtype=np.int32), connectivity=8, grey=False,
        label_base=1, stride_pad=None, row_offset=0, col_offset=0,
    )
    @example(  # one row: the perimeter is the row
        image=np.array([[1, 0, 2, 2, 0, 1]], dtype=np.int32), connectivity=4,
        grey=True, label_base=1, stride_pad=3, row_offset=5, col_offset=7,
    )
    @example(  # one column: the perimeter is the column
        image=np.array([[1], [1], [0], [3]], dtype=np.int32), connectivity=8,
        grey=False, label_base=2, stride_pad=0, row_offset=1, col_offset=0,
    )
    @example(  # runs that touch the left or right edge in middle rows only
        image=np.array(
            [[0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0]], dtype=np.int32
        ),
        connectivity=4, grey=False, label_base=1, stride_pad=None,
        row_offset=0, col_offset=0,
    )
    def test_every_backend_matches_tile_label(
        self, image, connectivity, grey, label_base, stride_pad, row_offset, col_offset
    ):
        """Painted, the table is ``tile_label``'s tile; its perimeter is
        that tile's perimeter and its count its distinct labels.  The
        stride is at least the tile width, so labels are distinct."""
        rows, cols = image.shape
        kw = dict(
            connectivity=connectivity,
            grey=grey,
            label_base=label_base,
            label_stride=None if stride_pad is None else cols + stride_pad,
            row_offset=row_offset,
            col_offset=col_offset,
        )
        for backend in kernels.BACKENDS:
            expected = kernels.get("tile_label", backend=backend)(image, **kw)
            runs = kernels.get("tile_runs", backend=backend)(image, **kw)
            painted = np.full((rows, cols), -1, dtype=np.int64)
            runs.paint(painted)
            assert np.array_equal(painted, expected), backend
            assert runs.shape == (rows, cols)
            assert int(runs.lengths.sum()) == int(np.count_nonzero(image))
            assert np.array_equal(
                runs.perimeter, expected.ravel()[perimeter_indices(rows, cols)]
            ), backend
            distinct = np.unique(expected[expected != 0])
            assert runs.n_components == distinct.size, backend

    def test_paint_through_a_strided_view(self, small_grey):
        runs = tile_runs(small_grey, grey=True)
        frame = np.full((small_grey.shape[0] + 3, small_grey.shape[1] + 5), -1)
        view = frame[1:-2, 2:-3]
        runs.paint(view)
        assert np.array_equal(view, run_label(small_grey, grey=True))
        assert (frame == -1).sum() == frame.size - view.size

    def test_paint_rejects_a_mismatched_shape(self):
        image = np.ones((3, 4), dtype=np.int32)
        runs = tile_runs(image)
        with pytest.raises(ValidationError):
            runs.paint(np.zeros((4, 3), dtype=np.int64))

    def test_rejections_match_tile_label(self):
        for backend in kernels.BACKENDS:
            fn = kernels.get("tile_runs", backend=backend)
            with pytest.raises(ValidationError):
                fn(np.ones((3, 3), dtype=np.int32), label_base=0)
            with pytest.raises(ValidationError):
                fn(np.zeros((3, 3), dtype=np.int32), connectivity=5)


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


class TestHistogramDifferential:
    @given(
        image=_image_strategy(max_side=12, max_level=7),
        k=st.sampled_from([8, 16, 64]),
    )
    @example(image=np.zeros((3, 3), dtype=np.int32), k=8)
    @example(image=np.full((2, 5), 7, dtype=np.int32), k=8)
    def test_backends_match_reference(self, image, k):
        counts = Counter(image.ravel().tolist())
        expected = np.array([counts[level] for level in range(k)], dtype=np.int64)
        for backend in kernels.BACKENDS:
            got = kernels.get("histogram", backend=backend)(image, k)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
        assert int(expected.sum()) == image.size  # the paper's sum(H) == n^2

    def test_level_overflow_rejected(self):
        img = np.full((2, 2), 9, dtype=np.int32)
        for backend in kernels.BACKENDS:
            with pytest.raises(ValidationError):
                kernels.get("histogram", backend=backend)(img, 8)


# ---------------------------------------------------------------------------
# relabel (change-array consumption)
# ---------------------------------------------------------------------------


class TestRelabelDifferential:
    @given(
        labels=arrays(np.int64, st.integers(0, 40), elements=st.integers(0, 30)),
        mapping=st.dictionaries(
            st.integers(0, 30), st.integers(0, 500), max_size=12
        ),
    )
    def test_backends_match_dict_lookup(self, labels, mapping):
        alphas = np.array(sorted(mapping), dtype=np.int64)
        betas = np.array([mapping[a] for a in sorted(mapping)], dtype=np.int64)
        expected = np.array([mapping.get(x, x) for x in labels.tolist()], dtype=np.int64)
        for backend in kernels.BACKENDS:
            got = kernels.get("relabel", backend=backend)(labels, alphas, betas)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    @given(labels=arrays(np.int64, (4, 5), elements=st.integers(0, 9)))
    def test_empty_change_array_is_identity_copy(self, labels):
        empty = np.empty(0, dtype=np.int64)
        for backend in kernels.BACKENDS:
            got = kernels.get("relabel", backend=backend)(labels, empty, empty)
            assert np.array_equal(got, labels)
            assert got is not labels  # always a copy

    def test_mismatched_pairs_rejected(self):
        labels = np.arange(4, dtype=np.int64)
        for backend in kernels.BACKENDS:
            with pytest.raises(ValidationError):
                kernels.get("relabel", backend=backend)(
                    labels, np.array([1, 2]), np.array([3])
                )


# ---------------------------------------------------------------------------
# border extraction
# ---------------------------------------------------------------------------


class TestBorderExtractDifferential:
    @given(
        tile=_image_strategy(max_side=9, max_level=50),
        edge=st.sampled_from(["top", "bottom", "left", "right"]),
    )
    def test_backends_match_edge_indices(self, tile, edge):
        rows, cols = tile.shape
        expected = tile.ravel()[edge_indices(rows, cols, edge)]
        for backend in kernels.BACKENDS:
            got = kernels.get("border_extract", backend=backend)(tile, edge)
            assert np.array_equal(got, expected)

    def test_unknown_edge_rejected(self):
        tile = np.zeros((3, 3), dtype=np.int32)
        for backend in kernels.BACKENDS:
            with pytest.raises(ValidationError):
                kernels.get("border_extract", backend=backend)(tile, "diagonal")
