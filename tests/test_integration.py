"""End-to-end integration tests across subsystem boundaries."""

import numpy as np
import pytest

import repro
from repro.analysis import efficiency
from repro.baselines import sequential_components, sequential_histogram
from repro.core.connected_components import parallel_components
from repro.core.histogram import parallel_histogram
from repro.images import (
    binary_test_image,
    darpa_like,
    grey_quadrants,
    random_greyscale,
)
from repro.darray import darray_components, darray_histogram
from repro.machines import CM5, MACHINES, get_machine


class TestThreeImplementationsAgree:
    """Simulator, process-parallel (darray shmem), and sequential engines:
    one answer."""

    def test_histogram_triple_agreement(self):
        img = darpa_like(64, 32, seed=21)
        a = parallel_histogram(img, 32, 16).histogram
        b = darray_histogram(img, 32, p=4, transport="shmem")
        c = sequential_histogram(img, 32)
        assert np.array_equal(a, b)
        assert np.array_equal(b, c)

    @pytest.mark.parametrize("grey", [False, True])
    def test_components_triple_agreement(self, grey):
        img = darpa_like(64, 8, seed=22) if grey else binary_test_image(9, 64)
        a = parallel_components(img, 16, grey=grey).labels
        b = darray_components(img, grey=grey, p=4, transport="shmem").labels
        c = sequential_components(img, grey=grey)
        assert np.array_equal(a, b)
        assert np.array_equal(b, c)


class TestAllMachinesRunEverything:
    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_histogram_on_every_machine(self, name):
        img = random_greyscale(32, 16, seed=3)
        res = parallel_histogram(img, 16, 4, get_machine(name))
        assert np.array_equal(res.histogram, sequential_histogram(img, 16))
        assert res.elapsed_s > 0

    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_components_on_every_machine(self, name):
        img = binary_test_image(5, 32)
        res = parallel_components(img, 4, get_machine(name))
        assert np.array_equal(res.labels, sequential_components(img))
        assert res.elapsed_s > 0


class TestPipeline:
    def test_histogram_then_components(self):
        """The image-understanding pipeline: equalize, then label."""
        img = grey_quadrants(32, 16)
        hist = parallel_histogram(img, 16, 4).histogram
        cdf = np.cumsum(hist)
        lut = np.clip((cdf * 15) // cdf[-1], 0, 15).astype(np.int32)
        lut[0] = 0
        equalized = lut[img]
        res = parallel_components(equalized, 4, grey=True)
        # Quadrants survive equalization as distinct components (three
        # foreground quadrants; the 0-quadrant is background).
        assert res.n_components == 3

    def test_efficiency_well_behaved(self):
        """Efficiency decreases with p but stays positive (Amdahl-like)."""
        img = binary_test_image(9, 128)
        t1 = parallel_components(img, 1, CM5).elapsed_s
        effs = []
        for p in (4, 16, 64):
            tp = parallel_components(img, p, CM5).elapsed_s
            effs.append(efficiency(t1, tp, p))
        assert all(0.0 < e <= 1.05 for e in effs)
        assert effs[0] > effs[-1]

    def test_public_api_surface(self):
        """Everything advertised in repro.__all__ resolves."""
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


class TestLargerScale:
    def test_512_image_with_128_processors(self):
        img = binary_test_image(7, 512)
        res = parallel_components(img, 128, CM5)
        assert np.array_equal(res.labels, sequential_components(img))

    def test_grey_512_end_to_end(self):
        img = darpa_like(512, 256)
        res = parallel_components(img, 32, CM5, grey=True)
        assert res.n_components > 100
        # Spot check against the sequential engine (full compare is done
        # at smaller sizes; here verify the label set matches).
        seq = sequential_components(img, grey=True)
        assert np.array_equal(res.labels, seq)
