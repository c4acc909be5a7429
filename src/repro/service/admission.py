"""Bounded admission queues with load shedding and per-request deadlines.

Serving heavy traffic safely means *refusing* work you cannot finish:
an unbounded queue converts overload into universal timeouts, while a
bounded queue that sheds at the door keeps latency flat for the
requests it does accept.  The admission controller here enforces an
explicit depth limit -- a full queue raises a typed
:class:`~repro.utils.errors.ServiceOverloadError` immediately, never
blocks -- and stamps every admitted request with a deadline derived
from :func:`repro.runtime.dispatch.resolve_timeout` (so the service,
the dispatcher underneath it, and the ``REPRO_TASK_TIMEOUT``
environment variable all speak the same timeout language).

A request that outlives its deadline while still queued is *expired*
at dequeue time (its future fails with
:class:`~repro.utils.errors.TaskTimeoutError`) rather than executed:
computing an answer the client has already given up on only steals
capacity from requests that can still be served.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any

from repro.obs import trace as _trace
from repro.obs.events import SVC_SHED
from repro.obs.trace import TraceContext
from repro.runtime.dispatch import resolve_timeout
from repro.service.instruments import (
    M_ADMITTED,
    M_EXPIRED,
    M_QUEUE_WAIT,
    M_SHED,
    ServiceInstruments,
)
from repro.utils.errors import ServiceOverloadError

#: Default bound on queued (admitted but not yet dispatched) requests.
DEFAULT_QUEUE_DEPTH = 64


@dataclass
class PendingRequest:
    """One admitted request waiting to be batched.

    ``params`` is the op's canonical parameter tuple (hashable, so it
    can key a batch bucket), ``key`` the content-addressed cache key
    (``None`` when caching is off), and ``future`` resolves with the
    result ndarray or the request's typed error.
    """

    op: str
    image: Any
    params: tuple
    future: asyncio.Future
    key: str | None = None
    deadline_s: float = field(default=0.0)
    enqueued_s: float = field(default_factory=time.monotonic)
    #: The request's span context (a child of the submit-level request
    #: span); ``None`` when the service runs untraced.
    trace: TraceContext | None = None

    def expired(self, now: float | None = None) -> bool:
        return (now if now is not None else time.monotonic()) >= self.deadline_s

    def waited_s(self, now: float | None = None) -> float:
        return (now if now is not None else time.monotonic()) - self.enqueued_s


class AdmissionQueue:
    """Bounded FIFO of :class:`PendingRequest` with immediate shedding.

    ``put`` is synchronous and never blocks: backpressure is delivered
    as an exception the caller can surface to its client right away.
    ``get`` is a coroutine for the single batcher consumer.

    Its event counts (admitted, shed, expired -- the batcher settles
    expiry on the same ``instruments``) live in the registry;
    :meth:`snapshot` reads them back beside the queue's own high-water
    marks.
    """

    def __init__(
        self,
        *,
        depth: int = DEFAULT_QUEUE_DEPTH,
        timeout_s: float | None = None,
        instruments: ServiceInstruments,
    ):
        self.depth = int(depth)
        if self.depth <= 0:
            raise ServiceOverloadError("queue depth must be positive", depth=depth)
        self.timeout_s = resolve_timeout(timeout_s)
        self.instruments = instruments
        self.depth_highwater = 0
        self.max_wait_s = 0.0
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=self.depth)

    def __len__(self) -> int:
        return self._queue.qsize()

    def admit(self, req: PendingRequest) -> None:
        """Stamp the deadline and enqueue, or shed with a typed error."""
        req.deadline_s = req.enqueued_s + self.timeout_s
        try:
            self._queue.put_nowait(req)
        except asyncio.QueueFull:
            _trace.instant(SVC_SHED, op=req.op, depth=self._queue.qsize())
            self.instruments.shed()
            raise ServiceOverloadError(
                f"service queue full ({self.depth} request(s) already queued); "
                f"request shed -- back off and retry",
                depth=self.depth,
            ) from None
        depth = self._queue.qsize()
        self.depth_highwater = max(self.depth_highwater, depth)
        self.instruments.admitted(depth)

    async def get(self) -> PendingRequest:
        """Next admitted request (FIFO); records its queue wait."""
        req = await self._queue.get()
        waited = req.waited_s()
        self.max_wait_s = max(self.max_wait_s, waited)
        self.instruments.queue_depth(self._queue.qsize())
        self.instruments.queue_wait(waited)
        return req

    def drain_nowait(self) -> list[PendingRequest]:
        """Every still-queued request, immediately (used at shutdown)."""
        drained = []
        while True:
            try:
                drained.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                return drained

    def snapshot(self) -> dict:
        """The ``admission`` section of the service's ``stats``."""
        reg = self.instruments.registry
        wait = reg.histogram(M_QUEUE_WAIT)
        return {
            "admitted": reg.count(M_ADMITTED),
            "shed": reg.count(M_SHED),
            "expired": reg.count(M_EXPIRED),
            "depth_highwater": self.depth_highwater,
            "mean_wait_ms": wait.sum / wait.count * 1e3 if wait.count else 0.0,
            "max_wait_ms": self.max_wait_s * 1e3,
        }
