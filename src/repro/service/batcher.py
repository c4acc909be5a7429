"""Micro-batching: coalesce compatible requests into single dispatches.

The process pool underneath the service charges a fixed cost per
fan-out (pickling, queue wakeups, the dispatch barrier in
:func:`repro.runtime.dispatch.run_tasks`).  Serving each request as its
own dispatch pays that cost per request; batching pays it once per
*window*.  This is the serving-side analogue of the BSP superstep:
requests that arrive within ``max_delay_s`` of each other and agree on
(op, params) ride one dispatch, up to ``max_batch`` per batch.

Compatibility is by **batch key** -- the op name plus its canonical
parameter tuple -- because only same-shaped work can share a task
function sensibly (a histogram with ``k=256`` and one with ``k=64``
produce differently-typed results and would defeat downstream caching
of the batch layout).  Incompatible requests are never delayed by each
other: each key gets its own window.

The batcher is a single asyncio consumer; flushes hand the batch to an
``execute`` coroutine (the pool executor) as a background task, so a
slow batch never stalls the accumulation of the next one.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Awaitable, Callable

from repro.obs import trace as _trace
from repro.obs.events import CAT_REQUEST, SVC_EXPIRED, SVC_QUEUE_SPAN
from repro.service.admission import AdmissionQueue, PendingRequest
from repro.service.instruments import M_BATCH_SIZE, M_EXPIRED
from repro.utils.errors import TaskTimeoutError, ValidationError

#: Default cap on requests coalesced into one dispatch.
DEFAULT_MAX_BATCH = 8

#: Default batching window: how long the first request of a batch may
#: wait for company before the batch is flushed anyway.
DEFAULT_MAX_DELAY_S = 0.002


@dataclass(frozen=True)
class BatchKey:
    """What must agree for two requests to share a dispatch."""

    op: str
    params: tuple


class _Bucket:
    """Requests accumulating toward one flush, plus their window."""

    __slots__ = ("requests", "flush_at", "opened_at")

    def __init__(self, flush_at: float, opened_at: float):
        self.requests: list[PendingRequest] = []
        self.flush_at = flush_at
        self.opened_at = opened_at


class MicroBatcher:
    """Single-consumer batching loop between admission and execution.

    ``execute(key, requests)`` is awaited in a background task per
    flushed batch; it owns resolving each request's future.  Run
    :meth:`run` as an asyncio task; cancel it to stop (remaining
    buckets are flushed on the way out so no admitted request is ever
    silently dropped).  It counts expiries and flushed batches on the
    queue's instruments.
    """

    def __init__(
        self,
        queue: AdmissionQueue,
        execute: Callable[[BatchKey, list[PendingRequest]], Awaitable[None]],
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_delay_s: float = DEFAULT_MAX_DELAY_S,
    ):
        if max_batch <= 0:
            raise ValidationError("max_batch must be positive")
        if max_delay_s < 0:
            raise ValidationError("max_delay_s must be non-negative")
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_s)
        #: Largest batch flushed so far (the cap is :attr:`max_batch`).
        self.largest_batch = 0
        self._queue = queue
        self._execute = execute
        self._instruments = queue.instruments
        self._buckets: dict[BatchKey, _Bucket] = {}
        self._inflight: set[asyncio.Task] = set()

    async def run(self) -> None:
        """Consume admitted requests forever (until cancelled)."""
        try:
            while True:
                timeout = self._next_flush_in()
                try:
                    req = await asyncio.wait_for(self._queue.get(), timeout)
                except asyncio.TimeoutError:
                    self._flush_due()
                    continue
                self._absorb(req)
                self._flush_due()
        finally:
            # Cancellation path: flush everything accumulated so far,
            # then let in-flight executions finish resolving futures.
            for key in list(self._buckets):
                self._flush(key)
            if self._inflight:
                await asyncio.gather(*self._inflight, return_exceptions=True)

    def _absorb(self, req: PendingRequest) -> None:
        now = time.monotonic()
        if req.expired(now):
            _trace.instant(SVC_EXPIRED, op=req.op, waited_s=req.waited_s(now))
            self._instruments.expired()
            if not req.future.done():
                req.future.set_exception(
                    TaskTimeoutError(
                        f"request deadline expired after {req.waited_s(now):.3f}s "
                        f"in the service queue",
                        site="svc:queue",
                    )
                )
            return
        if req.trace is not None:
            # The wait is over *now*; anchor the span by its end so the
            # monotonic-clock wait composes with perf_counter time.
            end = time.perf_counter()
            _trace.record_span(
                SVC_QUEUE_SPAN, end - req.waited_s(now), end,
                cat=CAT_REQUEST, ctx=req.trace.child(), op=req.op,
            )
        key = BatchKey(req.op, req.params)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket(now + self.max_delay_s, now)
        bucket.requests.append(req)
        if len(bucket.requests) >= self.max_batch:
            self._flush(key)

    def _next_flush_in(self) -> float | None:
        if not self._buckets:
            return None
        now = time.monotonic()
        return max(min(b.flush_at for b in self._buckets.values()) - now, 0.0)

    def _flush_due(self) -> None:
        now = time.monotonic()
        for key in [k for k, b in self._buckets.items() if now >= b.flush_at]:
            self._flush(key)

    def _flush(self, key: BatchKey) -> None:
        bucket = self._buckets.pop(key)
        if not bucket.requests:
            return
        self.largest_batch = max(self.largest_batch, len(bucket.requests))
        self._instruments.batch_flushed(
            len(bucket.requests), time.monotonic() - bucket.opened_at
        )
        task = asyncio.ensure_future(self._execute(key, bucket.requests))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    def snapshot(self) -> dict:
        """The ``batcher`` section of the service's ``stats``."""
        reg = self._instruments.registry
        sizes = reg.histogram(M_BATCH_SIZE)
        requests = int(sizes.sum)
        return {
            "batches": sizes.count,
            "requests": requests,
            "mean_batch": requests / sizes.count if sizes.count else 0.0,
            "max_batch": self.largest_batch,
            "expired": reg.count(M_EXPIRED),
        }
