"""Larger-scale and randomized stress tests (still fast enough for CI).

These push the paper's configurations to their extremes: large images,
the full option matrix on random inputs, extreme processor counts, and
adversarial structures (the dual spiral at scale, single-pixel lattice
components).
"""

import numpy as np
import pytest

from repro.baselines import sequential_components, sequential_histogram
from repro.core.connected_components import parallel_components
from repro.core.histogram import parallel_histogram
from repro.images import binary_test_image, checkerboard, random_greyscale
from repro.machines import CM5, IDEAL


class TestLargeImages:
    def test_cc_1024_spiral(self):
        """The paper's largest CC configuration: 1024^2 on 128 procs."""
        img = binary_test_image(9, 1024)
        res = parallel_components(img, 128, CM5)
        assert res.n_components == 2
        # spot-check against the sequential engine
        assert np.array_equal(res.labels, sequential_components(img))

    def test_histogram_2048(self):
        img = random_greyscale(2048, 256, seed=1)
        res = parallel_histogram(img, 256, 64, CM5)
        assert np.array_equal(res.histogram, sequential_histogram(img, 256))

    def test_labels_fit_in_int64_comfortably(self):
        """Labels are pixel indices; even 2048^2 stays far below 2^31."""
        img = binary_test_image(6, 2048)
        labels = sequential_components(img)
        assert labels.max() < 2**31


class TestExtremeProcessorCounts:
    def test_one_pixel_tiles(self, rng):
        img = (rng.random((16, 16)) < 0.5).astype(np.int32)
        res = parallel_components(img, 256, IDEAL)
        assert np.array_equal(res.labels, sequential_components(img))

    def test_one_pixel_tiles_grey(self, rng):
        img = rng.integers(0, 4, (16, 16)).astype(np.int32)
        res = parallel_components(img, 256, IDEAL, grey=True)
        assert np.array_equal(res.labels, sequential_components(img, grey=True))

    def test_histogram_p_equals_pixels(self, rng):
        img = rng.integers(0, 4, (8, 8)).astype(np.int32)
        res = parallel_histogram(img, 4, 64, IDEAL)
        assert np.array_equal(res.histogram, sequential_histogram(img, 4))

    def test_checkerboard_worst_case_components(self):
        """Every foreground pixel isolated: maximal component count."""
        img = checkerboard(64, 1, levels=(0, 1))
        res = parallel_components(img, 64, IDEAL, connectivity=4)
        assert res.n_components == 64 * 64 // 2
        assert np.array_equal(
            res.labels, sequential_components(img, connectivity=4)
        )


class TestRandomizedOptionMatrix:
    """Fuzz the full option cross-product on random images."""

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_binary(self, seed):
        rng = np.random.default_rng(seed * 7919)
        n = int(rng.choice([16, 32, 64]))
        density = float(rng.uniform(0.2, 0.8))
        img = (rng.random((n, n)) < density).astype(np.int32)
        p = int(rng.choice([1, 2, 4, 8, 16]))
        connectivity = int(rng.choice([4, 8]))
        expected = sequential_components(img, connectivity=connectivity)
        res = parallel_components(
            img,
            p,
            IDEAL,
            connectivity=connectivity,
            shadow_manager=bool(rng.integers(0, 2)),
            distribution=str(rng.choice(["direct", "transpose"])),
            limited_updating=bool(rng.integers(0, 2)),
        )
        assert np.array_equal(res.labels, expected), (seed, n, p, connectivity)

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_grey(self, seed):
        rng = np.random.default_rng(seed * 104729)
        n = int(rng.choice([16, 32]))
        k = int(rng.choice([2, 4, 8]))
        img = rng.integers(0, k, (n, n)).astype(np.int32)
        p = int(rng.choice([2, 4, 16]))
        connectivity = int(rng.choice([4, 8]))
        expected = sequential_components(img, grey=True, connectivity=connectivity)
        res = parallel_components(
            img, p, IDEAL, grey=True, connectivity=connectivity,
            limited_updating=bool(rng.integers(0, 2)),
        )
        assert np.array_equal(res.labels, expected), (seed, n, k, p)

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_histogram(self, seed):
        rng = np.random.default_rng(seed * 31337)
        n = int(rng.choice([16, 32, 64]))
        k = int(rng.choice([2, 8, 64, 256]))
        img = rng.integers(0, k, (n, n)).astype(np.int32)
        p = int(rng.choice([1, 4, 16, 64]))
        res = parallel_histogram(img, k, p, IDEAL)
        assert np.array_equal(res.histogram, sequential_histogram(img, k))


class TestDegenerateImages:
    def test_single_pixel_image(self):
        img = np.array([[1]], dtype=np.int32)
        res = parallel_components(img, 1, IDEAL)
        assert res.labels[0, 0] == 1

    def test_single_row_image(self):
        img = np.array([[1, 0, 1, 1, 0, 1, 1, 1]], dtype=np.int32)
        res = parallel_components(img, 2, IDEAL)
        assert np.array_equal(res.labels, sequential_components(img))

    def test_single_column_rejected_when_grid_cannot_split(self):
        """A 1-wide image cannot be split by a 1x2 grid: clean error."""
        from repro.utils.errors import ConfigurationError

        img = np.array([[1], [0], [1], [1]], dtype=np.int32)
        with pytest.raises(ConfigurationError):
            parallel_components(img, 2, IDEAL)
        # p=1 still works
        res = parallel_components(img, 1, IDEAL)
        assert np.array_equal(res.labels, sequential_components(img))

    def test_max_grey_level(self):
        img = np.full((8, 8), 255, dtype=np.int32)
        res = parallel_histogram(img, 256, 4, IDEAL)
        assert res.histogram[255] == 64
        assert res.histogram[:255].sum() == 0
