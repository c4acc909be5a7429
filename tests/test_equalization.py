"""Tests for parallel histogram equalization (the Section-4 application)."""

import numpy as np
import pytest

from repro.baselines import sequential_histogram
from repro.core.equalization import equalization_lut, parallel_equalize
from repro.core.histogram import parallel_histogram
from repro.images import darpa_like, grey_quadrants, random_greyscale
from repro.machines import CM5, IDEAL
from repro.utils.errors import ValidationError


class TestLut:
    def test_identity_on_uniform(self):
        """A perfectly flat histogram maps ~linearly (idempotent-ish)."""
        hist = np.full(16, 100, dtype=np.int64)
        lut = equalization_lut(hist, preserve_background=False)
        assert lut[0] == 0
        assert lut[-1] == 15
        assert (np.diff(lut) >= 0).all()

    def test_monotone(self):
        rng = np.random.default_rng(0)
        hist = rng.integers(0, 1000, 64)
        lut = equalization_lut(hist)
        assert (np.diff(lut) >= 0).all() or lut[0] == 0  # background clamp

    def test_full_range_used(self):
        hist = np.zeros(16, dtype=np.int64)
        hist[3] = 50
        hist[4] = 50
        lut = equalization_lut(hist, preserve_background=False)
        assert lut[4] == 15  # highest occupied level maps to top

    def test_empty_histogram(self):
        lut = equalization_lut(np.zeros(8, dtype=np.int64))
        assert np.array_equal(lut, np.arange(8))

    def test_background_preserved(self):
        hist = np.array([100, 1, 1, 1], dtype=np.int64)
        lut = equalization_lut(hist, preserve_background=True)
        assert lut[0] == 0


class TestParallelEqualize:
    @pytest.mark.parametrize("p", [1, 4, 16, 64])
    def test_matches_sequential_pipeline(self, p):
        img = darpa_like(64, 32, seed=5)
        res = parallel_equalize(img, 32, p, IDEAL)
        lut = equalization_lut(sequential_histogram(img, 32))
        assert np.array_equal(res.image, lut[img].astype(img.dtype))
        assert np.array_equal(res.lut, lut)

    def test_p_exceeds_k(self):
        img = random_greyscale(64, 8, seed=1)
        res = parallel_equalize(img, 8, 64, IDEAL)
        lut = equalization_lut(sequential_histogram(img, 8))
        assert np.array_equal(res.image, lut[img].astype(img.dtype))

    def test_improves_contrast_of_clumped_image(self):
        """The paper's stated purpose: spread out clumped levels."""
        rng = np.random.default_rng(2)
        img = (rng.integers(100, 116, (64, 64))).astype(np.int32)  # clumped
        res = parallel_equalize(img, 256, 16, IDEAL)
        spread_before = int(img.max() - img.min())
        spread_after = int(res.image.max() - res.image.min())
        assert spread_after > spread_before * 3

    def test_phase_structure_includes_broadcast(self):
        img = random_greyscale(32, 16, seed=3)
        res = parallel_equalize(img, 16, 4, CM5)
        names = [ph.name for ph in res.report.phases]
        assert "eq:broadcast:spread" in names
        assert "eq:broadcast:collect" in names
        assert names[-1] == "eq:apply"

    def test_histogram_returned(self):
        img = random_greyscale(32, 16, seed=4)
        res = parallel_equalize(img, 16, 4, IDEAL)
        assert np.array_equal(res.histogram, sequential_histogram(img, 16))

    def test_background_zero_stays_zero(self):
        img = grey_quadrants(32, 16)
        res = parallel_equalize(img, 16, 4, IDEAL)
        assert (res.image[img == 0] == 0).all()

    def test_level_validation(self):
        img = np.full((8, 8), 20, dtype=np.int32)
        with pytest.raises(ValidationError):
            parallel_equalize(img, 16, 4, IDEAL)

    def test_comm_independent_of_n(self):
        k, p = 64, 16
        comms = []
        for n in (64, 128):
            img = random_greyscale(n, k, seed=n)
            comms.append(parallel_equalize(img, k, p, CM5).report.comm_s)
        assert comms[0] == pytest.approx(comms[1])

    @pytest.mark.parametrize("k, p", [(32, 4), (8, 16)], ids=["k>=p", "k<p"])
    def test_histogram_phases_are_parallel_histogram(self, k, p):
        """The first four phases are the histogramming algorithm's own."""
        img = random_greyscale(32, k, seed=6)
        eq = parallel_equalize(img, k, p, CM5).report.phases
        hist = parallel_histogram(img, k, p, CM5).report.phases
        assert [ph.name for ph in hist] == [
            "hist:tally", "hist:transpose", "hist:reduce", "hist:collect"
        ]
        assert eq[:4] == hist
