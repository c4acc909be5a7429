"""Tests for per-processor phase recording and the Gantt / imbalance views."""

import numpy as np
import pytest

from repro.bdm import Machine
from repro.core.connected_components import parallel_components
from repro.core.histogram import parallel_histogram
from repro.images import binary_test_image, random_greyscale
from repro.machines import CM5, IDEAL
from repro.obs import MachineRecorder, gantt, imbalance_table, sim_metrics
from repro.obs.sim import phase_balance


def utilization(rec, i):
    return phase_balance(rec.phase_records[i][1])[0]


class TestTracer:
    def test_records_phases(self):
        m = Machine(4, CM5)
        rec = MachineRecorder(m)
        with m.phase("alpha"):
            m.procs[0].charge_comp(100)
        with m.phase("beta"):
            m.procs[1].charge_comp(200)
        assert [r.name for r, _ in rec.phase_records] == ["alpha", "beta"]

    def test_busy_attribution(self):
        m = Machine(4, CM5)
        rec = MachineRecorder(m)
        with m.phase("x"):
            m.procs[2].charge_comp(1000)
        busy = rec.phase_records[0][1]
        assert busy[2] > 0
        assert busy[0] == busy[1] == busy[3] == 0

    def test_utilization_balanced_phase(self):
        m = Machine(4, CM5)
        rec = MachineRecorder(m)
        with m.phase("x"):
            for proc in m.procs:
                proc.charge_comp(500)
        assert utilization(rec, 0) == pytest.approx(1.0)

    def test_utilization_single_worker(self):
        m = Machine(4, CM5)
        rec = MachineRecorder(m)
        with m.phase("x"):
            m.procs[0].charge_comp(500)
        assert utilization(rec, 0) == pytest.approx(0.25)

    def test_report_still_correct_when_traced(self):
        """Recording must not change the machine's cost accounting."""
        img = random_greyscale(32, 16, seed=1)
        plain = parallel_histogram(img, 16, 4, CM5)
        m = Machine(4, CM5)
        MachineRecorder(m)
        traced = parallel_histogram(img, 16, 4, CM5, machine=m)
        assert traced.elapsed_s == pytest.approx(plain.elapsed_s)
        assert np.array_equal(traced.histogram, plain.histogram)


class TestRendering:
    def _traced_cc(self):
        m = Machine(8, CM5)
        rec = MachineRecorder(m)
        img = binary_test_image(9, 64)
        parallel_components(img, 8, machine=m)
        return rec

    def test_gantt_shape(self):
        rec = self._traced_cc()
        lines = gantt(rec, width=40).splitlines()
        assert len(lines) == 9  # header + 8 processors
        assert lines[1].startswith("P0")

    def test_gantt_empty(self):
        m = Machine(2, IDEAL)
        rec = MachineRecorder(m)
        assert "no phases" in gantt(rec)

    def test_imbalance_table_contains_phases(self):
        rec = self._traced_cc()
        table = imbalance_table(rec)
        assert "cc:label" in table
        assert "%" in table

    def test_merge_phases_show_imbalance(self):
        """Solve phases run on managers only: utilization well below 1."""
        rec = self._traced_cc()
        solves = [
            phase_balance(busy)[0]
            for record, busy in rec.phase_records if "solve" in record.name
        ]
        assert solves
        assert min(solves) < 0.7

    def test_label_phase_balanced(self):
        rec = self._traced_cc()
        busy = next(b for r, b in rec.phase_records if r.name == "cc:label")
        assert phase_balance(busy)[0] > 0.95

    def test_overall_utilization_bounds(self):
        rec = self._traced_cc()
        u = sim_metrics(rec)["totals"]["utilization"]
        assert 0.0 < u <= 1.0


#: ``gantt(rec, width=24)`` and ``imbalance_table(rec)`` of
#: :meth:`TestPinnedOutput._run`, as the one-per-machine tracer these
#: views replace printed them for the same run (the header pads each
#: phase name to its span, so the first line ends in spaces).
PINNED_GANTT = (
    "phase: load      |send   |sum    \n"
    "P0    |##........|#######|#######\n"
    "P1    |#####.....|.......|.......\n"
    "P2    |########..|.......|.......\n"
    "P3    |##########|#######|......."
)

PINNED_TABLE = (
    "phase           elapsed  utilization\n"
    "load           1400.0us       62.5%\n"
    "send           1061.9us       49.7%\n"
    "sum            1050.0us       25.0%"
)


class TestPinnedOutput:
    def _run(self):
        m = Machine(4, CM5)
        rec = MachineRecorder(m)
        with m.phase("load"):
            for proc in m.procs:
                proc.charge_comp(1000 * (proc.pid + 1))
        with m.phase("send"):
            m.transfer(0, 3, 2000)
        with m.phase("sum"):
            m.procs[0].charge_comp(3000)
        return rec

    def test_gantt_literal(self):
        assert gantt(self._run(), width=24) == PINNED_GANTT

    def test_imbalance_table_literal(self):
        assert imbalance_table(self._run()) == PINNED_TABLE


class TestResetAndDetach:
    def test_reset_clears_tracer_phases(self):
        """A stale recorder must not keep phases from before the reset."""
        m = Machine(4, CM5)
        rec = MachineRecorder(m)
        with m.phase("before"):
            m.procs[0].charge_comp(100)
        m.reset()
        assert rec.phase_records == []
        with m.phase("after"):
            m.procs[0].charge_comp(100)
        assert [r.name for r, _ in rec.phase_records] == ["after"]

    def test_detach_stops_recording(self):
        m = Machine(4, CM5)
        rec = MachineRecorder(m)
        with m.phase("a"):
            m.procs[0].charge_comp(100)
        rec.detach()
        with m.phase("b"):
            m.procs[0].charge_comp(100)
        assert [r.name for r, _ in rec.phase_records] == ["a"]
        # the machine still accounts phases normally after the detach
        assert [ph.name for ph in m.report().phases] == ["a", "b"]

    def test_detach_is_idempotent(self):
        m = Machine(2, IDEAL)
        rec = MachineRecorder(m)
        rec.detach()
        rec.detach()


class TestGanttWidth:
    def _run_phases(self, elapsed):
        """One phase per entry of ``elapsed`` (abstract op counts)."""
        m = Machine(2, CM5)
        rec = MachineRecorder(m)
        for i, ops in enumerate(elapsed):
            with m.phase(f"ph{i}"):
                m.procs[0].charge_comp(ops)
        return rec

    def _bar_lengths(self, chart):
        rows = chart.splitlines()[1:]
        return [len(r.split("|", 1)[1].replace("|", "")) for r in rows]

    @pytest.mark.parametrize("width", [7, 13, 40, 60])
    def test_rows_never_exceed_width(self, width):
        """Regression: per-phase int(round()) spans used to sum past width."""
        # Many near-equal phases maximize rounding accumulation.
        rec = self._run_phases([10, 11, 10, 12, 11, 10, 13, 11, 10, 12])
        for length in self._bar_lengths(gantt(rec, width=width)):
            assert length <= width

    def test_rows_fill_width_exactly(self):
        rec = self._run_phases([100, 200, 300])
        assert self._bar_lengths(gantt(rec, width=30)) == [30, 30]

    def test_rows_equal_length(self):
        rec = self._run_phases([7, 91, 23, 5, 44])
        lengths = self._bar_lengths(gantt(rec, width=33))
        assert len(set(lengths)) == 1

    def test_tiny_phase_dropped_not_overflowing(self):
        """A phase far below one column's worth of time may be dropped,
        but must never push the row past the requested width."""
        rec = self._run_phases([1, 10000, 10000])
        for length in self._bar_lengths(gantt(rec, width=10)):
            assert length <= 10


class TestOverlapBusyTimes:
    """Observers of an ``overlap=True`` machine see the same
    per-processor phase time ``max(comp, port)`` that sets the phase's
    elapsed time, not the no-overlap ``comp + port``."""

    def _run(self):
        m = Machine(4, CM5, overlap=True)
        rec = MachineRecorder(m)
        for name in ("a", "b"):
            with m.phase(name):
                for proc in m.procs:
                    proc.charge_comm(1000)
                    proc.charge_comp(50000)
        return m, rec

    def test_utilization_at_most_one(self):
        _, rec = self._run()
        snap = sim_metrics(rec)
        assert snap["totals"]["utilization"] <= 1.0
        assert all(ph["utilization"] <= 1.0 for ph in snap["phases"])

    def test_no_lane_runs_past_its_phase(self):
        m, rec = self._run()
        ends, t = {}, 0.0
        for record in m.report().phases:
            ends[record.name] = t + record.elapsed_s
            t += record.elapsed_s + record.barrier_s
        spans = [s for s in rec.log.spans if s.cat == "phase"]
        assert len(spans) == 8
        for span in spans:
            assert span.end_s <= ends[span.name] + 1e-12, span

    def test_busy_vector_peaks_at_the_phase_elapsed_time(self):
        _, rec = self._run()
        for record, busy in rec.phase_records:
            assert float(busy.max()) == record.elapsed_s


class TestMachineParameterPassing:
    def test_wrong_p_rejected(self):
        from repro.utils.errors import ValidationError

        img = random_greyscale(32, 16, seed=0)
        m = Machine(8, CM5)
        with pytest.raises(ValidationError, match="processors"):
            parallel_histogram(img, 16, 4, machine=m)

    def test_cc_accepts_machine(self):
        img = binary_test_image(5, 32)
        m = Machine(4, CM5)
        res = parallel_components(img, 4, machine=m)
        assert res.report.machine_name == "TMC CM-5"
