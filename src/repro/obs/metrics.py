"""Metrics snapshots: counters and gauges as exportable JSON.

Complements the timeline exporters with the aggregate view the paper's
tables give: per-phase words moved, messages, utilization, and
imbalance, plus run-level totals and the communication matrix.  The
schema is versioned (``repro-obs-metrics/v1``) so downstream tooling
(benchmark trend lines, CI assertions) can rely on the field set.
"""

from __future__ import annotations

import json

import numpy as np

from repro.obs.sim import MachineRecorder, phase_balance

SCHEMA = "repro-obs-metrics/v1"


def sim_metrics(rec: MachineRecorder) -> dict:
    """Metrics snapshot of a simulated run observed by ``rec``.

    Per-phase ``words_moved``/``messages`` equal the corresponding
    :class:`~repro.bdm.cost.PhaseRecord` fields, so the snapshot's
    totals match ``machine.report()`` exactly.
    """
    machine = rec.machine
    phases = []
    for record, busy in rec.phase_records:
        utilization, imbalance = phase_balance(busy)
        phases.append(
            {
                "name": record.name,
                "elapsed_s": record.elapsed_s,
                "barrier_s": record.barrier_s,
                "comm_s": record.comm_s,
                "comp_s": record.comp_s,
                "words_moved": int(record.words_moved),
                "messages": int(record.messages),
                "utilization": utilization,
                "imbalance": imbalance,
            }
        )
    total_busy = sum(float(busy.sum()) for _, busy in rec.phase_records)
    total_elapsed = sum(ph["elapsed_s"] for ph in phases)
    return {
        "schema": SCHEMA,
        "engine": "sim",
        "clock": "sim",
        "machine": machine.params.name,
        "p": machine.p,
        "phases": phases,
        "totals": {
            "elapsed_s": sum(ph["elapsed_s"] + ph["barrier_s"] for ph in phases),
            "words_moved": sum(ph["words_moved"] for ph in phases),
            "messages": sum(ph["messages"] for ph in phases),
            "utilization": (
                total_busy / (machine.p * total_elapsed) if total_elapsed > 0 else 1.0
            ),
            "hazards": len(rec.log.instants),
        },
        "comm_matrix": rec.comm_matrix.tolist(),
        "words_served_by": rec.words_served_by.tolist(),
        "words_moved_by": rec.words_moved_by.tolist(),
    }


def wall_metrics(log, *, workers: int | None = None) -> dict:
    """Metrics snapshot of a real-runtime run from its wall-clock log.

    Groups spans by name: occurrence count, total and mean seconds; the
    gauge section records the observed worker lanes (OS pids) and the
    end-to-end wall time.
    """
    groups: dict[str, list[float]] = {}
    for span in log.spans:
        groups.setdefault(span.name, []).append(span.dur_s)
    lanes = [lane for lane in log.lanes() if isinstance(lane, int)]
    return {
        "schema": SCHEMA,
        "engine": "runtime",
        "clock": "wall",
        "machine": log.source,
        "p": workers if workers is not None else len(lanes),
        "phases": [
            {
                "name": name,
                "count": len(durs),
                "total_s": float(np.sum(durs)),
                "mean_s": float(np.mean(durs)),
                "max_s": float(np.max(durs)),
            }
            for name, durs in sorted(groups.items())
        ],
        "totals": {
            "elapsed_s": log.end_s,
            "spans": len(log.spans),
            "worker_lanes": lanes,
        },
    }


def write_metrics(path, snapshot: dict) -> dict:
    """Serialize a metrics snapshot to ``path`` as JSON; returns it."""
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=False)
        fh.write("\n")
    return snapshot
