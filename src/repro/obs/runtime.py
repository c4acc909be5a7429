"""Wall-clock recording for the real multiprocessing runtime.

A :class:`WallRecorder` is a *sink* (:mod:`repro.obs.trace`): code
never calls it to emit, it emits through :func:`~repro.obs.trace.
traced_span`, :func:`~repro.obs.trace.instant` and friends, and the
recorder that the owner of the run installed receives every event.

The runtime runs genuine OS processes, so events must be collected
*across* processes.  A :class:`~repro.runtime.dispatch.PoolSupervisor`
built while a recorder is installed asks it for a queue
(:meth:`WallRecorder.worker_queue`) and hands that to
:func:`init_worker`, which installs a forwarding sink in every pool
worker.  A ``per_job`` pool, which outlives the jobs it serves, owns
its queue instead: a task forwards to it only if its job is traced
(:func:`trace_task`), the driver drains it into the job's sink, and a
traced job records a zero-width ``worker:init`` on the lane of each
worker it borrows (:func:`record_worker_lanes`).  Workers push tagged
tuples (``time.perf_counter`` is CLOCK_MONOTONIC, comparable across
processes on the same host), and :meth:`WallRecorder.drain` folds them
into the driver's :class:`~repro.obs.events.EventLog` on a common
epoch: ``("span", name, pid, t0, t1, cat, args)``, ``("instant", name,
pid, t, args)`` and ``("count", name, value, t)``.  A worker's spans and
instants land on its pid lane.
"""

from __future__ import annotations

import os
import threading
import time

from repro.obs import trace as _trace
from repro.obs.events import CAT_SETUP, EventLog


class WallRecorder:
    """Collects wall-clock events from the driver and pool workers.

    Driver-side events go straight into :attr:`log` (spans and instants
    outside a request on lane ``"driver"``); worker events arrive
    through the queue created by :meth:`worker_queue` and are folded in
    by :meth:`drain`.  All times are seconds since the recorder's
    construction.
    """

    def __init__(self, *, source: str = "multiprocessing"):
        self.log = EventLog(clock="wall", source=source)
        self.epoch = time.perf_counter()
        self._queue = None
        self._drain_lock = threading.Lock()

    # -- the sink interface (called by repro.obs.trace) ---------------------

    def record_span(self, name: str, lane, t0: float, t1: float,
                    cat: str, args: dict) -> None:
        self.log.add_span(name, "driver" if lane is None else lane,
                          t0 - self.epoch, t1 - t0, cat=cat, **args)

    def record_instant(self, name: str, t: float, args: dict) -> None:
        self.log.add_instant(name, "driver", t - self.epoch, **args)

    def record_count(self, name: str, value: float, t: float) -> None:
        self.log.add_count(name, value, t_s=t - self.epoch)

    def worker_queue(self, ctx):
        """The cross-process event queue (made on context ``ctx`` once)."""
        if self._queue is None:
            self._queue = ctx.SimpleQueue()
        return self._queue

    def drain(self, queue=None) -> int:
        """Fold queued worker events into the log; returns how many.

        ``queue`` is a ``per_job`` pool's own queue; by default the
        recorder's :meth:`worker_queue`.  Safe to call from several
        threads: a service drains while its dispatcher thread does.
        """
        if queue is None:
            queue = self._queue
        if queue is None:
            return 0
        n = 0
        with self._drain_lock:
            while not queue.empty():
                msg = queue.get()
                if msg[0] == "span":
                    _, name, pid, t0, t1, cat, args = msg
                    self.log.add_span(name, pid, t0 - self.epoch, t1 - t0,
                                      cat=cat, **args)
                elif msg[0] == "instant":
                    _, name, pid, t, args = msg
                    self.log.add_instant(name, pid, t - self.epoch, **args)
                else:
                    _, name, value, t = msg
                    self.log.add_count(name, value, t_s=t - self.epoch)
                n += 1
        return n

    # -- views --------------------------------------------------------------

    @property
    def worker_lanes(self) -> list[int]:
        """Distinct worker OS pids observed so far (after :meth:`drain`)."""
        return [lane for lane in self.log.lanes() if isinstance(lane, int)]

    def fault_events(self) -> list:
        """All recorded fault-category instants (``fault:*`` names)."""
        return [i for i in self.log.instants if i.name.startswith("fault:")]


# -- worker side -------------------------------------------------------------


class _QueueSink:
    """A pool worker's sink: forwards every event to the driver's queue."""

    __slots__ = ("_queue", "_pid")

    def __init__(self, queue):
        self._queue = queue
        self._pid = os.getpid()

    def record_span(self, name, lane, t0, t1, cat, args) -> None:
        self._queue.put(("span", name, self._pid, t0, t1, cat, args))

    def record_instant(self, name, t, args) -> None:
        self._queue.put(("instant", name, self._pid, t, args))

    def record_count(self, name, value, t) -> None:
        self._queue.put(("count", name, value, t))


#: A ``per_job`` pool worker's sink, which the tasks of traced jobs
#: install (see :func:`trace_task`).
_FORWARD: _QueueSink | None = None


def init_worker(queue, per_job: bool, initializer, initargs: tuple) -> None:
    """Pool initializer: set up the worker's sink, then ``initializer``.

    ``queue`` is where the worker's events go, or ``None`` to record
    nothing.  In a pool built under a recorder it is the recorder's
    :meth:`WallRecorder.worker_queue`: the worker forwards every event,
    and a ``worker:init`` span makes it appear in the trace even if task
    scheduling starves it.  A ``per_job`` pool's worker records nothing
    until a task of a traced job turns forwarding on (:func:`trace_task`).
    """
    global _FORWARD
    sink = _QueueSink(queue) if queue is not None else None
    if per_job:
        _FORWARD, sink = sink, None
    _trace.set_sink(sink)
    if sink is not None:
        now = time.perf_counter()
        sink.record_span("worker:init", None, now, now, CAT_SETUP, {})
    if initializer is not None:
        initializer(*initargs)


def trace_task(traced: bool) -> None:
    """In a ``per_job`` pool's worker: forward this task's events to the
    pool's queue if its job is traced, else record nothing."""
    _trace.set_sink(_FORWARD if traced else None)


def record_worker_lanes(pids) -> None:
    """Record a zero-width ``worker:init`` span on each of ``pids``' lanes.

    A traced job calls it for the workers of the ``per_job`` pool it
    borrows, which record no ``worker:init`` of their own, so every
    process of the pool appears in its trace.
    """
    sink = _trace.sink()
    if sink is not None:
        now = time.perf_counter()
        for pid in pids:
            sink.record_span("worker:init", pid, now, now, CAT_SETUP, {})
