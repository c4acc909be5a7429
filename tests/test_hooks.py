"""Tests for tile hooks (Procedure 2) and the final interior update."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.baselines import run_label
from repro.baselines.run_label import tile_runs
from repro.core.change_array import ChangeArray
from repro.core.hooks import (
    MAX_MASKED_RENAMES,
    TileHooks,
    apply_hooks,
    apply_hooks_bfs,
    apply_hooks_isolated,
    create_tile_hooks,
    hook_ops,
)
from repro.core.tiles import perimeter_indices
from repro.kernels import get as get_kernel
from repro.utils.errors import ValidationError


def labeled_tile(img: np.ndarray) -> np.ndarray:
    return run_label(img, label_stride=1000)


class TestCreate:
    def test_empty_tile(self):
        hooks = create_tile_hooks(np.zeros((4, 4), dtype=np.int64))
        assert len(hooks) == 0

    def test_one_hook_per_border_component(self):
        img = np.array(
            [
                [1, 0, 1],
                [0, 0, 0],
                [1, 0, 0],
            ],
            dtype=np.int32,
        )
        hooks = create_tile_hooks(labeled_tile(img))
        assert len(hooks) == 3

    def test_interior_component_has_no_hook(self):
        img = np.zeros((5, 5), dtype=np.int32)
        img[2, 2] = 1  # strictly interior
        hooks = create_tile_hooks(labeled_tile(img))
        assert len(hooks) == 0

    def test_labels_sorted_strictly(self):
        rng = np.random.default_rng(0)
        img = (rng.random((8, 8)) < 0.5).astype(np.int32)
        hooks = create_tile_hooks(labeled_tile(img))
        assert (np.diff(hooks.labels) > 0).all()

    def test_offsets_point_to_border_pixels_with_label(self):
        rng = np.random.default_rng(1)
        img = (rng.random((6, 10)) < 0.5).astype(np.int32)
        lab = labeled_tile(img)
        hooks = create_tile_hooks(lab)
        border = set(perimeter_indices(6, 10).tolist())
        flat = lab.ravel()
        for label, off in zip(hooks.labels, hooks.offsets):
            assert off in border
            assert flat[off] == label

    def test_rejects_non_2d(self):
        with pytest.raises(ValidationError):
            create_tile_hooks(np.zeros(5, dtype=np.int64))

    def test_hook_ops_perimeter_sizes(self):
        assert hook_ops(5, 7) == 2 * (5 + 7) - 4
        assert hook_ops(1, 7) == 7
        assert hook_ops(7, 1) == 7
        assert hook_ops(0, 3) == 0


def rename_on_border(lab: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """Copy of ``lab`` whose border pixels labeled ``pick`` were renamed,
    as a merge iteration would leave them."""
    changes = ChangeArray(np.sort(pick), np.sort(pick) + 10_000_000)
    merged = lab.copy()
    border = perimeter_indices(*lab.shape)
    flat = merged.ravel()
    flat[border] = get_kernel("relabel")(flat[border], changes.alphas, changes.betas)
    return merged


class TestApply:
    def test_returns_none_and_updates_in_place(self):
        img = np.array([[1, 1], [0, 1]], dtype=np.int32)
        lab = labeled_tile(img)
        hooks = create_tile_hooks(lab)
        merged = rename_on_border(lab, hooks.labels)
        assert apply_hooks(merged, hooks) is None
        assert (merged[img != 0] == lab[0, 0] + 10_000_000).all()

    def test_no_changes_no_op(self):
        img = np.array([[1, 1], [0, 1]], dtype=np.int32)
        lab = labeled_tile(img)
        hooks = create_tile_hooks(lab)
        before = lab.copy()
        apply_hooks(lab, hooks)
        assert np.array_equal(lab, before)

    def test_changed_hook_renames_whole_component(self):
        img = np.array(
            [
                [1, 1, 1],
                [0, 1, 0],
                [0, 1, 0],
            ],
            dtype=np.int32,
        )
        lab = labeled_tile(img)
        hooks = create_tile_hooks(lab)
        # Simulate a merge renaming the border pixels to a global label.
        merged = lab.copy()
        border = perimeter_indices(3, 3)
        flat = merged.ravel()
        changes = ChangeArray(np.array([1]), np.array([99999]))
        flat[border] = get_kernel("relabel")(flat[border], changes.alphas, changes.betas)
        out = merged.copy()
        apply_hooks(out, hooks)
        assert (out[img != 0] == 99999).all()
        assert (out[img == 0] == 0).all()

    def test_only_matching_components_renamed(self):
        img = np.array(
            [
                [1, 0, 1],
                [1, 0, 1],
            ],
            dtype=np.int32,
        )
        lab = labeled_tile(img)
        hooks = create_tile_hooks(lab)
        merged = lab.copy()
        left_label = lab[0, 0]
        merged[lab == left_label] = 777  # pretend the border update ran
        out = merged.copy()
        apply_hooks(out, hooks)
        assert (out[:, 0] == 777).all()
        assert (out[:, 2] == lab[0, 2]).all()

    def test_empty_hooks(self):
        lab = np.zeros((3, 3), dtype=np.int64)
        out = lab.copy()
        apply_hooks(out, TileHooks(np.empty(0, np.int64), np.empty(0, np.int64)))
        assert np.array_equal(out, lab)

    def test_rejects_read_only_tile(self):
        lab = labeled_tile(np.ones((4, 4), dtype=np.int32))
        hooks = create_tile_hooks(lab)
        lab.setflags(write=False)
        with pytest.raises(ValidationError):
            apply_hooks(lab, hooks)

    def test_rejects_non_2d(self):
        lab = labeled_tile(np.ones((4, 4), dtype=np.int32))
        hooks = create_tile_hooks(lab)
        with pytest.raises(ValidationError):
            apply_hooks(lab.ravel(), hooks)


def _bfs_cases(rng, connectivity):
    """``(merged, hooks, n_changed)`` triples covering both update branches.

    8x8 tiles with every other hooked component renamed change at most
    ``MAX_MASKED_RENAMES`` hooks (per-label masks); sparse 32x32 tiles
    with every hooked component renamed change more (``searchsorted``).
    """
    for shape, density, rename_all in (((8, 8), 0.5, False), ((32, 32), 0.3, True)):
        for _trial in range(10):
            img = (rng.random(shape) < density).astype(np.int32)
            lab = run_label(img, connectivity=connectivity, label_stride=1000)
            hooks = create_tile_hooks(lab)
            if len(hooks) == 0:
                continue
            pick = hooks.labels if rename_all else hooks.labels[:: max(1, len(hooks) // 2)]
            yield rename_on_border(lab, pick), hooks, len(pick)
    # Ten full-height bars, all renamed: every changed component has
    # interior pixels, the highest-labeled one included (in the random
    # tiles it usually lies wholly on the bottom edge), and the interior
    # blob's label exceeds every changed label.
    img = np.zeros((12, 24), dtype=np.int32)
    img[:, 0:20:2] = 1
    img[4:7, 21:23] = 1
    lab = run_label(img, connectivity=connectivity, label_stride=1000)
    hooks = create_tile_hooks(lab)
    yield rename_on_border(lab, hooks.labels), hooks, len(hooks)


def _embedded(tile: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``tile`` copied into a larger array; returns (frame, strided view)."""
    q, r = tile.shape
    frame = np.full((q + 5, r + 7), -1, dtype=tile.dtype)
    view = frame[2 : 2 + q, 3 : 3 + r]
    view[...] = tile
    return frame, view


class TestBfsReferenceEquivalence:
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_mapping_equals_bfs(self, connectivity, rng):
        """The in-place update equals the paper's BFS relabel, on a tile
        of its own and on a tile slice of a larger array."""
        n_changed = []
        for merged, hooks, n_pick in _bfs_cases(rng, connectivity):
            slow = apply_hooks_bfs(merged, hooks, connectivity=connectivity)
            fast = merged.copy()
            apply_hooks(fast, hooks)
            assert np.array_equal(fast, slow)
            frame, view = _embedded(merged)
            assert not view.flags.c_contiguous
            apply_hooks(view, hooks)
            assert np.array_equal(view, slow)
            assert (frame == -1).sum() == frame.size - merged.size
            n_changed.append(n_pick)
        assert min(n_changed) <= MAX_MASKED_RENAMES < max(n_changed)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_applying_twice_equals_once(self, connectivity, rng):
        """A retried final update may re-run on a partly updated tile."""
        for merged, hooks, _n in _bfs_cases(rng, connectivity):
            once = merged.copy()
            apply_hooks(once, hooks)
            twice = once.copy()
            apply_hooks(twice, hooks)
            assert np.array_equal(twice, once)


def _painted(runs, img: np.ndarray) -> np.ndarray:
    out = np.zeros(img.shape, dtype=np.int64)
    runs.paint(out)
    return out


def _run_cases(rng, connectivity):
    """``(img, runs, merged, hooks, n_changed)``: each of :func:`_bfs_cases`
    as the run table of its binary image, with the initial perimeter."""
    for merged, hooks, n_changed in _bfs_cases(rng, connectivity):
        img = (merged != 0).astype(np.int32)
        runs = tile_runs(img, connectivity=connectivity, label_stride=1000)
        yield img, runs, merged, hooks, n_changed


class TestRunTables:
    """The final update on a run table equals the update on its painted
    tile: renaming the runs from the perimeter vector, then painting."""

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_hooks_equal_the_painted_tiles(self, connectivity, rng):
        for img, runs, _merged, hooks, _n in _run_cases(rng, connectivity):
            from_tile = create_tile_hooks(_painted(runs, img))
            from_runs = create_tile_hooks(runs)
            assert np.array_equal(from_runs.labels, from_tile.labels)
            assert np.array_equal(from_runs.offsets, from_tile.offsets)
            assert np.array_equal(from_runs.labels, hooks.labels)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_apply_hooks_equals_pixel_update(self, connectivity, rng):
        n_changed = []
        for img, runs, merged, hooks, n_pick in _run_cases(rng, connectivity):
            runs.perimeter = merged.ravel()[perimeter_indices(*merged.shape)]
            assert apply_hooks(runs, hooks) is None
            expected = merged.copy()
            apply_hooks(expected, hooks)
            assert np.array_equal(_painted(runs, img), expected)
            n_changed.append(n_pick)
        assert min(n_changed) <= MAX_MASKED_RENAMES < max(n_changed)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_apply_hooks_isolated_equals_pixel_update(self, connectivity, rng):
        n_changed = []
        for img, runs, merged, hooks, n_pick in _run_cases(rng, connectivity):
            border = merged.ravel()[perimeter_indices(*merged.shape)]
            expected = _painted(runs, img)  # initial labels everywhere
            apply_hooks_isolated(expected, hooks, border)
            apply_hooks_isolated(runs, hooks, border)
            assert np.array_equal(runs.perimeter, border)
            assert np.array_equal(_painted(runs, img), expected)
            n_changed.append(n_pick)
        assert min(n_changed) <= MAX_MASKED_RENAMES < max(n_changed)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_applying_twice_equals_once(self, connectivity, rng):
        for img, runs, merged, hooks, _n in _run_cases(rng, connectivity):
            border = merged.ravel()[perimeter_indices(*merged.shape)]
            apply_hooks_isolated(runs, hooks, border)
            once = runs.labels.copy()
            apply_hooks(runs, hooks)
            assert np.array_equal(runs.labels, once)
            apply_hooks_isolated(runs, hooks, border)
            assert np.array_equal(runs.labels, once)

    def test_no_changes_no_op(self):
        img = np.array([[1, 1, 0], [0, 1, 0], [1, 0, 1]], dtype=np.int32)
        runs = tile_runs(img, label_stride=1000)
        before = runs.labels.copy()
        apply_hooks(runs, create_tile_hooks(runs))
        assert np.array_equal(runs.labels, before)

    def test_rejects_wrong_border_length(self):
        runs = tile_runs(np.ones((4, 4), dtype=np.int32))
        with pytest.raises(ValidationError):
            apply_hooks_isolated(runs, create_tile_hooks(runs), np.zeros(5, dtype=np.int64))


@settings(max_examples=40, deadline=None)
@given(arrays(np.int32, (7, 7), elements=st.integers(min_value=0, max_value=1)))
def test_property_hooks_cover_exactly_border_components(img):
    lab = run_label(img, label_stride=100)
    hooks = create_tile_hooks(lab)
    border_labels = set(lab.ravel()[perimeter_indices(7, 7)].tolist()) - {0}
    assert set(hooks.labels.tolist()) == border_labels


class TestIsolatedFinalUpdate:
    """apply_hooks_isolated: the final update when a tile was spilled.

    An out-of-core shard holds *initial* labels everywhere (the merge
    rounds only touched its resident perimeter vector), whereas the
    all-resident path holds a tile whose perimeter pixels were updated
    in place.  The two final updates must agree exactly.
    """

    @staticmethod
    def _case(seed, h, w):
        from repro.core.hooks import apply_hooks_isolated

        rng = np.random.default_rng(seed)
        img = (rng.random((h, w)) < 0.55).astype(np.int32)
        lab = labeled_tile(img)
        hooks = create_tile_hooks(lab)
        perim = perimeter_indices(h, w)
        border = lab.ravel()[perim]
        # A synthetic merge outcome: remap every other border label.
        present = np.unique(border[border != 0])
        if present.size == 0:
            pytest.skip("tile has no border components")
        alphas = present[::2]
        changes = ChangeArray(alphas, alphas + 10_000)
        new_border = get_kernel("relabel")(border, changes.alphas, changes.betas)

        expected = lab.ravel().copy()
        expected[perim] = new_border
        expected = expected.reshape(h, w)
        apply_hooks(expected, hooks)
        got = lab.copy()
        apply_hooks_isolated(got, hooks, new_border)
        return expected, got

    @pytest.mark.parametrize("seed,h,w", [(0, 6, 6), (1, 8, 10), (2, 5, 12), (3, 16, 16)])
    def test_matches_all_resident_path(self, seed, h, w):
        expected, got = self._case(seed, h, w)
        assert np.array_equal(expected, got)

    def test_strided_view(self):
        from repro.core.hooks import apply_hooks_isolated

        rng = np.random.default_rng(4)
        img = (rng.random((16, 16)) < 0.3).astype(np.int32)
        lab = labeled_tile(img)
        hooks = create_tile_hooks(lab)
        border = lab.ravel()[perimeter_indices(16, 16)]
        new_border = np.where(border != 0, border + 10_000_000, 0)
        expected = lab.copy()
        apply_hooks_isolated(expected, hooks, new_border)
        _frame, view = _embedded(lab)
        apply_hooks_isolated(view, hooks, new_border)
        assert np.array_equal(view, expected)

    def test_identity_changes_reproduce_apply_hooks(self):
        from repro.core.hooks import apply_hooks_isolated

        rng = np.random.default_rng(9)
        img = (rng.random((7, 7)) < 0.5).astype(np.int32)
        lab = labeled_tile(img)
        hooks = create_tile_hooks(lab)
        border = lab.ravel()[perimeter_indices(7, 7)]
        isolated = lab.copy()
        apply_hooks_isolated(isolated, hooks, border)
        resident = lab.copy()
        apply_hooks(resident, hooks)
        assert np.array_equal(isolated, resident)

    def test_rejects_wrong_border_length(self):
        from repro.core.hooks import apply_hooks_isolated

        lab = labeled_tile(np.ones((4, 4), dtype=np.int32))
        hooks = create_tile_hooks(lab)
        with pytest.raises(ValidationError):
            apply_hooks_isolated(lab, hooks, np.zeros(5, dtype=np.int64))

    def test_rejects_non_2d(self):
        from repro.core.hooks import apply_hooks_isolated

        lab = labeled_tile(np.ones((4, 4), dtype=np.int32))
        hooks = create_tile_hooks(lab)
        with pytest.raises(ValidationError):
            apply_hooks_isolated(lab.ravel(), hooks, np.zeros(12, dtype=np.int64))
