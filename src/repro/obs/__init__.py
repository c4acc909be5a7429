"""Unified observability: tracing, metrics, and profiling for both engines.

The paper is an *experimental study*: its contribution is per-phase
timing breakdowns across four platforms.  This package is the repo's
equivalent instrument -- one event model
(:mod:`~repro.obs.events`) filled by two recorders:

* :class:`~repro.obs.sim.MachineRecorder` observes the simulated
  :class:`~repro.bdm.machine.Machine` (per-processor phase spans,
  barrier waits, the (server, mover) communication matrix, hazard
  provenance) on the simulated clock;
* :class:`~repro.obs.runtime.WallRecorder` is the wall-clock sink:
  installed for a darray run or a service, it receives every span,
  instant and count emitted through :mod:`repro.obs.trace` (merge
  rounds, pool dispatches, worker tasks, kernels, request trees),
  collected across processes via a queue;

and exporters that consume either:

* :func:`~repro.obs.export.chrome_trace` /
  :func:`~repro.obs.export.write_chrome_trace` -- Chrome trace-event
  JSON, loadable in Perfetto or ``chrome://tracing``;
* :func:`~repro.obs.metrics.sim_metrics` /
  :func:`~repro.obs.metrics.wall_metrics` /
  :func:`~repro.obs.metrics.write_metrics` -- counter/gauge snapshots;
* :func:`~repro.obs.sim.comm_heatmap` -- the communication matrix as a
  text heatmap.

See ``docs/OBSERVABILITY.md`` for the full tour and the ``repro
trace`` CLI subcommand for the one-shot entry point.
"""

from repro.obs.events import (
    CAT_BARRIER,
    CAT_FAULT,
    CAT_PHASE,
    CAT_REQUEST,
    CAT_ROUND,
    CAT_SETUP,
    CAT_TASK,
    CLIENT_REQUEST,
    FAULT_DEGRADE,
    FAULT_FAILOVER,
    FAULT_GIVEUP,
    FAULT_MANAGER_CRASH,
    FAULT_RESPAWN,
    FAULT_RETRY,
    FAULT_SHADOW_CRASH,
    FAULT_TIMEOUT,
    FAULT_WORKER_DEATH,
    SVC_BATCH,
    SVC_DEGRADED,
    SVC_EXPIRED,
    SVC_QUEUE_SPAN,
    SVC_REQUEST,
    SVC_SHED,
    Count,
    EventLog,
    Instant,
    Span,
)
from repro.obs.export import chrome_trace, validate_chrome_trace, write_chrome_trace
from repro.obs.metrics import sim_metrics, wall_metrics, write_metrics
from repro.obs.registry import (
    TIMESERIES_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
    write_timeseries,
)
from repro.obs.runtime import WallRecorder
from repro.obs.sim import MachineRecorder, comm_heatmap
from repro.obs.trace import TraceContext, install, trace_args, traced_span

__all__ = [
    "Span",
    "Instant",
    "Count",
    "EventLog",
    "CAT_PHASE",
    "CAT_BARRIER",
    "CAT_TASK",
    "CAT_ROUND",
    "CAT_SETUP",
    "CAT_FAULT",
    "CAT_REQUEST",
    "CLIENT_REQUEST",
    "SVC_REQUEST",
    "SVC_QUEUE_SPAN",
    "FAULT_TIMEOUT",
    "FAULT_RETRY",
    "FAULT_RESPAWN",
    "FAULT_WORKER_DEATH",
    "FAULT_GIVEUP",
    "FAULT_DEGRADE",
    "FAULT_MANAGER_CRASH",
    "FAULT_SHADOW_CRASH",
    "FAULT_FAILOVER",
    "SVC_BATCH",
    "SVC_SHED",
    "SVC_EXPIRED",
    "SVC_DEGRADED",
    "MachineRecorder",
    "comm_heatmap",
    "WallRecorder",
    "TraceContext",
    "install",
    "trace_args",
    "traced_span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "TIMESERIES_SCHEMA",
    "parse_prometheus_text",
    "write_timeseries",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "sim_metrics",
    "wall_metrics",
    "write_metrics",
]
