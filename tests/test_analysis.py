"""Tests for complexity predictions, efficiency metrics, and the tables."""

import numpy as np
import pytest

from repro.analysis import (
    TABLE1_HISTOGRAMMING,
    TABLE2_COMPONENTS,
    TableEntry,
    bandwidth_Bps,
    efficiency,
    format_table,
    normalized_work_per_pixel_s,
    predict_broadcast,
    predict_components,
    predict_histogram,
    predict_transpose,
    speedup,
    work_per_pixel_s,
)
from repro.analysis.complexity import scalability_exponent
from repro.bdm import GlobalArray, Machine, broadcast, transpose
from repro.core.connected_components import parallel_components
from repro.core.histogram import parallel_histogram
from repro.images import binary_test_image, random_greyscale
from repro.machines import CM5, SP2
from repro.utils.errors import ValidationError


class TestPredictionsTrackSimulation:
    def test_transpose_exact(self):
        p, q = 8, 512
        m = Machine(p, CM5)
        A = GlobalArray(m, q)
        transpose(m, A)
        ph = m.report().phases[0]
        pred = predict_transpose(CM5, q, p)
        assert ph.comm_s == pytest.approx(pred["comm_s"])
        assert ph.comp_s == pytest.approx(pred["comp_s"])

    def test_broadcast_exact(self):
        p, q = 8, 256
        m = Machine(p, SP2)
        A = GlobalArray(m, q)
        broadcast(m, A)
        rep = m.report()
        pred = predict_broadcast(SP2, q, p)
        assert rep.comm_s == pytest.approx(pred["comm_s"])

    @pytest.mark.parametrize(
        "predict", [predict_transpose, predict_broadcast], ids=["transpose", "broadcast"]
    )
    def test_p_must_divide_q(self, predict):
        with pytest.raises(ValidationError, match="must divide"):
            predict(CM5, 6, 4)

    def test_histogram_within_bound(self):
        n, k, p = 128, 64, 16
        img = random_greyscale(n, k, seed=9)
        res = parallel_histogram(img, k, p, CM5)
        pred = predict_histogram(CM5, n, k, p)
        # eq. (3) is an upper bound on comm; comp should track closely.
        assert res.report.comm_s <= pred["comm_s"] * 1.25
        assert res.report.comp_s <= pred["comp_s"] * 1.25

    def test_components_comm_within_bound(self):
        n, p = 128, 16
        img = binary_test_image(5, n)
        res = parallel_components(img, p, CM5)
        pred = predict_components(CM5, n, p)
        assert res.report.comm_s <= pred["comm_s"] * 1.5

    def test_components_comp_tracks_tile_size(self):
        n, p = 128, 16
        img = binary_test_image(6, n)
        res = parallel_components(img, p, CM5)
        pred = predict_components(CM5, n, p)
        assert res.report.comp_s == pytest.approx(pred["comp_s"], rel=0.6)

    def test_scalability_exponent_quadratic(self):
        ns = np.array([64, 128, 256, 512])
        times = 3.0 * ns.astype(float) ** 2
        assert scalability_exponent(ns, times) == pytest.approx(2.0)

    def test_scalability_exponent_needs_points(self):
        with pytest.raises(ValueError):
            scalability_exponent([64], [1.0])


class TestEfficiencyMetrics:
    def test_speedup(self):
        assert speedup(10.0, 2.5) == 4.0

    def test_efficiency_perfect(self):
        assert efficiency(16.0, 1.0, 16) == pytest.approx(1.0)

    def test_efficiency_validation(self):
        with pytest.raises(ValidationError):
            efficiency(1.0, 1.0, 0)
        with pytest.raises(ValidationError):
            speedup(1.0, 0.0)

    def test_work_per_pixel_coarse(self):
        # 12 ms * 16 procs / 512^2 pixels = 732 ns (Table 1's CM-5 row)
        w = work_per_pixel_s(12.0e-3, 16, 512)
        assert w == pytest.approx(732e-9, rel=0.01)

    def test_work_per_pixel_fine_grained(self):
        # Marks 1980: 17.25 ms, 1024 PEs / 32, 32x32 -> 539 us
        w = work_per_pixel_s(17.25e-3, 1024, 32, fine_grained=True)
        assert w == pytest.approx(539e-6, rel=0.01)

    def test_bandwidth(self):
        # 1e6 words * 4 B in 1 s = 4 MB/s
        assert bandwidth_Bps(1e6, 1.0) == pytest.approx(4e6)
        with pytest.raises(ValidationError):
            bandwidth_Bps(10, 0.0)


class TestTables:
    def test_table1_reported_work_consistent(self):
        """Reported work/pixel matches recomputation from raw fields."""
        for e in TABLE1_HISTOGRAMMING:
            if e.researchers == "Nudd, et al.":
                continue  # the paper's row uses an effective PE count
            assert normalized_work_per_pixel_s(e) == pytest.approx(
                e.work_per_pixel_s, rel=0.02
            ), e

    def test_table2_our_rows_consistent(self):
        for e in TABLE2_COMPONENTS:
            if not e.ours:
                continue
            assert normalized_work_per_pixel_s(e) == pytest.approx(
                e.work_per_pixel_s, rel=0.02
            ), e

    def test_table2_literature_rows_consistent(self):
        """Every encoded historical row's reported work/pixel matches a
        recomputation from its (time, PEs, image) fields."""
        for e in TABLE2_COMPONENTS:
            if e.ours:
                continue
            assert normalized_work_per_pixel_s(e) == pytest.approx(
                e.work_per_pixel_s, rel=0.03
            ), e

    def test_paper_beats_prior_histogramming_work(self):
        """Table 1's headline: the paper's rows have the lowest work/pixel."""
        ours = min(e.work_per_pixel_s for e in TABLE1_HISTOGRAMMING if e.ours)
        prior = min(e.work_per_pixel_s for e in TABLE1_HISTOGRAMMING if not e.ours)
        assert ours < prior

    def test_paper_beats_choudhary_on_darpa(self):
        """Table 2: 368 ms vs Choudhary/Thakur's 398-456 ms on CM-5/32."""
        ours = [
            e for e in TABLE2_COMPONENTS
            if e.ours and e.machine == "TMC CM-5" and "DARPA" in e.note
        ]
        theirs = [
            e for e in TABLE2_COMPONENTS
            if not e.ours and e.machine == "TMC CM-5" and "DARPA" in e.note
        ]
        assert ours and theirs
        assert min(e.time_s for e in ours) < min(e.time_s for e in theirs)

    def test_format_table_renders(self):
        text = format_table(TABLE1_HISTOGRAMMING, title="Table 1")
        assert "Table 1" in text
        assert "TMC CM-5" in text
        assert len(text.splitlines()) == len(TABLE1_HISTOGRAMMING) + 3

    def test_format_table_marks_extra_rows(self):
        extra = [
            TableEntry(2026, "repro", "simulated CM-5", 16, 512, 12e-3, 732e-9)
        ]
        text = format_table(TABLE1_HISTOGRAMMING, extra=extra)
        assert text.rstrip().endswith("*")

    def test_format_table_empty_rejected(self):
        with pytest.raises(ValidationError):
            format_table([])
