"""Rectangular-image support across every execution path.

The paper's setting is square images; the library generalizes to
``rows x cols`` as long as the logical grid divides both dimensions.
These tests run all algorithms on rectangles and check against the
(shape-agnostic) sequential engines.
"""

import numpy as np
import pytest

from repro.baselines import (
    sequential_components,
    sequential_histogram,
    stripe_components,
)
from repro.core.connected_components import parallel_components
from repro.core.equalization import parallel_equalize
from repro.core.histogram import parallel_histogram
from repro.darray import darray_components, darray_histogram
from repro.machines import CM5, IDEAL
from tests.conftest import oracle_binary_labels, oracle_grey_labels


@pytest.fixture
def rect_binary(rng):
    return (rng.random((24, 48)) < 0.5).astype(np.int32)


@pytest.fixture
def rect_grey(rng):
    return rng.integers(0, 8, size=(48, 24)).astype(np.int32)


class TestHistogramRect:
    def test_matches_sequential(self, rect_grey):
        res = parallel_histogram(rect_grey, 8, 8, IDEAL)
        assert np.array_equal(res.histogram, sequential_histogram(rect_grey, 8))

    def test_sum_is_pixel_count(self, rect_grey):
        res = parallel_histogram(rect_grey, 8, 4, CM5)
        assert res.histogram.sum() == rect_grey.size


class TestComponentsRect:
    @pytest.mark.parametrize("p", [1, 2, 8])
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_binary(self, p, connectivity, rect_binary):
        res = parallel_components(rect_binary, p, IDEAL, connectivity=connectivity)
        assert np.array_equal(
            res.labels, oracle_binary_labels(rect_binary, connectivity)
        )

    def test_grey(self, rect_grey):
        res = parallel_components(rect_grey, 8, IDEAL, grey=True)
        assert np.array_equal(res.labels, oracle_grey_labels(rect_grey, 8))

    def test_wide_image(self, rng):
        img = (rng.random((8, 128)) < 0.5).astype(np.int32)
        res = parallel_components(img, 4, IDEAL)
        assert np.array_equal(res.labels, sequential_components(img))

    def test_tall_image(self, rng):
        img = (rng.random((128, 8)) < 0.5).astype(np.int32)
        res = parallel_components(img, 4, IDEAL)
        assert np.array_equal(res.labels, sequential_components(img))

    def test_option_matrix_on_rect(self, rect_binary):
        base = sequential_components(rect_binary)
        for dist in ("direct", "transpose"):
            for lim in (True, False):
                res = parallel_components(
                    rect_binary, 8, IDEAL, distribution=dist, limited_updating=lim
                )
                assert np.array_equal(res.labels, base), (dist, lim)


class TestOtherPathsRect:
    def test_stripe_dc(self, rect_binary):
        res = stripe_components(rect_binary, 8, IDEAL)
        assert np.array_equal(res.labels, sequential_components(rect_binary))

    def test_runtime_components(self, rect_binary):
        out = darray_components(rect_binary, p=4, transport="shmem").labels
        assert np.array_equal(out, sequential_components(rect_binary))

    def test_runtime_histogram(self, rect_grey):
        out = darray_histogram(rect_grey, 8, p=2, transport="shmem")
        assert np.array_equal(out, sequential_histogram(rect_grey, 8))

    def test_equalization(self, rect_grey):
        res = parallel_equalize(rect_grey, 8, 8, IDEAL)
        assert res.image.shape == rect_grey.shape
        assert np.array_equal(res.histogram, sequential_histogram(rect_grey, 8))
