"""Tests for the stripe divide-&-conquer baseline."""

import numpy as np
import pytest

from repro.baselines import sequential_components
from repro.baselines.stripe_dc import stripe_components
from repro.core.connected_components import parallel_components
from repro.images import binary_test_image, darpa_like
from repro.machines import CM5, IDEAL
from repro.utils.errors import ConfigurationError


class TestCorrectness:
    @pytest.mark.parametrize("idx", [1, 5, 9])
    @pytest.mark.parametrize("p", [1, 2, 8, 32])
    def test_matches_sequential(self, idx, p):
        img = binary_test_image(idx, 64)
        res = stripe_components(img, p, IDEAL)
        assert np.array_equal(res.labels, sequential_components(img))

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_random_images(self, connectivity, small_binary):
        res = stripe_components(small_binary, 8, IDEAL, connectivity=connectivity)
        assert np.array_equal(
            res.labels, sequential_components(small_binary, connectivity=connectivity)
        )

    def test_grey(self, small_grey):
        res = stripe_components(small_grey, 8, IDEAL, grey=True)
        assert np.array_equal(res.labels, sequential_components(small_grey, grey=True))

    def test_component_count(self):
        img = binary_test_image(8, 64)
        assert stripe_components(img, 16, IDEAL).n_components == 4

    def test_p_must_divide_n(self):
        img = np.ones((48, 48), dtype=np.int32)
        with pytest.raises(ConfigurationError):
            stripe_components(img, 32, IDEAL)  # 32 does not divide 48


class TestComparison:
    def test_paper_algorithm_wins_at_scale(self):
        """The central comparison: 2-D tiles + limited updating beat
        1-D stripes + eager relabeling (as Table 2 shows)."""
        img = darpa_like(256, 64, seed=1)
        paper = parallel_components(img, 32, CM5, grey=True)
        stripe = stripe_components(img, 32, CM5, grey=True)
        assert np.array_equal(paper.labels, stripe.labels)
        assert paper.elapsed_s < stripe.elapsed_s

    def test_margin_grows_with_p(self):
        img = binary_test_image(3, 128)
        ratios = []
        for p in (4, 32):
            paper = parallel_components(img, p, CM5).elapsed_s
            stripe = stripe_components(img, p, CM5).elapsed_s
            ratios.append(stripe / paper)
        assert ratios[1] > ratios[0]

    def test_phase_names(self, small_binary):
        res = stripe_components(small_binary, 4, CM5)
        names = [ph.name for ph in res.report.phases]
        assert names[0] == "sdc:label"
        assert any(name.startswith("sdc:m1") for name in names)
