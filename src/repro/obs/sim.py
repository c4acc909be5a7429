"""Event recording for the simulated BDM machine.

:class:`MachineRecorder` subscribes to a
:class:`~repro.bdm.machine.Machine`'s observer stream and turns it into
an :class:`~repro.obs.events.EventLog` on the *simulated* clock plus a
per-(server, mover) communication matrix:

* every phase contributes one busy :class:`~repro.obs.events.Span` per
  processor (category ``phase``) and, for processors that finish early,
  a ``barrier`` span covering the idle wait until the phase's critical
  path plus the barrier itself;
* every remote access contributes to ``comm_matrix[server][mover]``
  (the words served by ``server``'s port and charged to ``mover`` --
  row sums therefore equal each processor's ``words_served``, column
  sums its ``words_moved``);
* detected hazards land as :class:`~repro.obs.events.Instant` events
  carrying the full provenance of the
  :class:`repro.checker.shadow.Hazard`.

Its ``phase_records`` keep each phase's per-processor busy seconds, so
load imbalance is visible -- e.g. the components merge phases, where a
handful of group managers work while the clients idle at the barrier
(:func:`gantt`, :func:`imbalance_table`).

Usage::

    machine = Machine(p, CM5)
    rec = MachineRecorder(machine)      # attach before running
    ... run the algorithm ...
    write_chrome_trace("t.json", rec.log)
    print(comm_heatmap(rec.comm_matrix))
    print(gantt(rec))                   # one row per processor
    print(imbalance_table(rec))         # per-phase utilization
"""

from __future__ import annotations

import numpy as np

from repro.bdm.machine import Machine, MachineObserver
from repro.obs.events import CAT_BARRIER, CAT_PHASE, EventLog


class MachineRecorder(MachineObserver):
    """Collects a machine's event stream into an :class:`EventLog`.

    Any number of recorders may observe one machine (they are
    independent consumers of the same stream).  Attach before the
    phases of interest; :meth:`detach` stops recording.
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        self.log = EventLog(clock="sim", source=machine.params.name)
        self.comm_matrix = np.zeros((machine.p, machine.p), dtype=np.int64)
        self.phase_records: list = []  # (PhaseRecord, busy_s ndarray) pairs
        machine.attach_observer(self)

    def detach(self) -> None:
        """Stop observing the machine (recorded events are kept)."""
        self.machine.detach_observer(self)

    # -- observer hooks ----------------------------------------------------

    def on_phase(self, record, deltas, start_s: float, busy_s) -> None:
        self.phase_records.append((record, np.array(busy_s)))
        end_s = start_s + record.elapsed_s + record.barrier_s
        for pid, (delta, busy) in enumerate(zip(deltas, busy_s)):
            if busy > 0:
                self.log.add_span(
                    record.name,
                    pid,
                    start_s,
                    busy,
                    cat=CAT_PHASE,
                    words_moved=delta.words_moved,
                    words_served=delta.words_served,
                    messages=delta.messages,
                    comp_s=delta.comp_s,
                    comm_s=delta.comm_s,
                )
            wait_s = end_s - (start_s + busy)
            if wait_s > 0:
                self.log.add_span(
                    f"{record.name}:barrier",
                    pid,
                    start_s + busy,
                    wait_s,
                    cat=CAT_BARRIER,
                )
        self.log.add_count("words_moved", record.words_moved, t_s=end_s)
        self.log.add_count("messages", record.messages, t_s=end_s)

    def on_traffic(self, server: int, mover: int, words: int) -> None:
        self.comm_matrix[server, mover] += words

    def on_instant(self, name: str, lane, t_s: float, args: dict) -> None:
        self.log.add_instant(name, lane if lane is not None else "machine", t_s, **args)
        if name.startswith("fault:"):
            self.log.add_count(name, 1, t_s=t_s)

    def fault_events(self) -> list:
        """All recorded fault-category instants (``fault:*`` names)."""
        return [i for i in self.log.instants if i.name.startswith("fault:")]

    def on_hazard(self, hazard) -> None:
        lane = getattr(hazard, "accessor", None)
        self.log.add_instant(
            f"hazard:{getattr(hazard, 'kind', 'unknown')}",
            lane if lane is not None else "hazard",
            self.machine._sim_time_s,
            **_hazard_args(hazard),
        )

    def on_reset(self) -> None:
        self.log.clear()
        self.comm_matrix[:] = 0
        self.phase_records.clear()

    # -- derived views -----------------------------------------------------

    @property
    def words_served_by(self) -> np.ndarray:
        """Row sums: words each processor's port served."""
        return self.comm_matrix.sum(axis=1)

    @property
    def words_moved_by(self) -> np.ndarray:
        """Column sums: words each processor was charged for moving."""
        return self.comm_matrix.sum(axis=0)


def _hazard_args(hazard) -> dict:
    if hazard is None:
        return {}
    args = {}
    for field in ("kind", "array", "owner", "accessor", "phase"):
        value = getattr(hazard, field, None)
        if value is not None:
            args[field] = value
    others = getattr(hazard, "others", None)
    if others is not None:
        args["others"] = list(others)
    ranges = getattr(hazard, "ranges", None)
    if ranges is not None:
        args["ranges"] = [list(r) for r in ranges]
    if not args:  # fall back to the repr so nothing is silently dropped
        args["detail"] = repr(hazard)
    return args


def comm_heatmap(matrix: np.ndarray, *, chars: str = " .:-=+*#%@") -> str:
    """Render a (server x mover) word-count matrix as a text heatmap.

    Each cell is one character from ``chars`` scaled by the cell's share
    of the largest entry; exact counts are appended per row (total words
    served), per column totals in the footer (words moved).
    """
    matrix = np.asarray(matrix)
    p = matrix.shape[0]
    peak = matrix.max(initial=0)
    lines = ["comm matrix: rows = serving processor, cols = moving processor"]
    header = "      " + "".join(f"{j % 10}" for j in range(p))
    lines.append(header)
    for i in range(p):
        cells = []
        for j in range(p):
            if peak == 0 or matrix[i, j] == 0:
                cells.append(chars[0] if matrix[i, j] == 0 else chars[1])
            else:
                idx = 1 + int((len(chars) - 2) * matrix[i, j] / peak)
                cells.append(chars[min(idx, len(chars) - 1)])
        lines.append(f"P{i:<4} " + "".join(cells) + f"  {int(matrix[i].sum())}")
    lines.append("moved " + " ".join(str(int(v)) for v in matrix.sum(axis=0)))
    return "\n".join(lines)


def phase_balance(busy: np.ndarray) -> tuple[float, float]:
    """``(utilization, imbalance)`` of one phase's per-processor busy
    seconds: mean over critical path (1 = every processor busy the
    whole phase) and its inverse (1 = perfectly even).  A phase in
    which nothing ran reads ``(1.0, 1.0)``."""
    peak = float(busy.max())
    mean = float(busy.mean())
    return (mean / peak if peak > 0 else 1.0), (peak / mean if mean > 0 else 1.0)


def gantt(rec: MachineRecorder, *, width: int = 60) -> str:
    """ASCII Gantt chart of ``rec``'s phases: one row per processor.

    Each phase occupies a horizontal span proportional to its
    critical-path time; within the span, a processor's row is filled
    ('#') for its busy fraction and dotted for idle time.  The spans
    are apportioned by largest remainder so every row is exactly
    ``width`` characters of bar (phases too short for one column are
    dropped from the rendering; per-phase rounding can therefore never
    push a row past ``width``).
    """
    phases = rec.phase_records
    if not phases:
        return "(no phases recorded)"
    elapsed = [record.elapsed_s for record, _ in phases]
    if sum(elapsed) <= 0:
        return "(no time elapsed)"
    p = rec.machine.p
    rows = [[] for _ in range(p)]
    header = []
    for (record, busy), span in zip(phases, _apportion(elapsed, width)):
        if span == 0:
            continue
        header.append(record.name[:span].ljust(span))
        for pid in range(p):
            frac = busy[pid] / record.elapsed_s if record.elapsed_s else 0.0
            fill = min(span, int(round(span * frac)))
            rows[pid].append("#" * fill + "." * (span - fill))
    lines = ["phase: " + "|".join(header)]
    for pid in range(p):
        lines.append(f"P{pid:<4} |" + "|".join(rows[pid]))
    return "\n".join(lines)


def imbalance_table(rec: MachineRecorder) -> str:
    """Per-phase critical path and utilization (mean busy / critical path)."""
    width = max([len(record.name) for record, _ in rec.phase_records] + [10])
    lines = [f"{'phase':<{width}} {'elapsed':>12} {'utilization':>12}"]
    for record, busy in rec.phase_records:
        utilization, _ = phase_balance(busy)
        lines.append(
            f"{record.name:<{width}} {record.elapsed_s * 1e6:>10.1f}us "
            f"{utilization * 100:>10.1f}%"
        )
    return "\n".join(lines)


def _apportion(weights: list[float], width: int) -> list[int]:
    """Integer spans proportional to ``weights`` summing to ``width``.

    Largest-remainder method: floor the exact quotas, then hand the
    remaining columns to the largest fractional parts.  The result sums
    to exactly ``width`` (unlike per-item rounding, which can overshoot).
    """
    total = sum(weights)
    if total <= 0 or width <= 0:
        return [0] * len(weights)
    quotas = [w / total * width for w in weights]
    spans = [int(q) for q in quotas]
    leftovers = width - sum(spans)
    order = sorted(
        range(len(weights)), key=lambda i: quotas[i] - spans[i], reverse=True
    )
    for i in order[:leftovers]:
        spans[i] += 1
    return spans
