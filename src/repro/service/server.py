"""The asyncio serving core: service, executor, client, and socket front-end.

Layering (request path, top to bottom)::

    socket front-end / in-process Client
        -> BatchService.submit      (validate, cache, coalesce, admit)
        -> AdmissionQueue           (bounded; sheds with ServiceOverloadError)
        -> MicroBatcher             (same-op/params window -> one batch)
        -> BatchExecutor            (one run_tasks dispatch on a shared
                                     PoolSupervisor; degrades to serial)

The event loop only ever *schedules*; the blocking pool dispatch runs
in a worker thread (``loop.run_in_executor``) so socket accepts, cache
hits, and shedding decisions stay responsive while a batch computes.
Results flow back through per-request asyncio futures.

Identical concurrent requests are **coalesced**: when caching is on
and a request's content key matches one already being computed, the
newcomer awaits the in-flight future instead of re-entering the queue
-- a repeated-image burst costs one computation however many clients
send it.

The wire protocol of the socket front-end is newline-delimited JSON;
see :func:`encode_array` / :func:`decode_array` for the ndarray
encoding and ``docs/SERVICE.md`` for the full request/response shapes.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import json
import math
import os
import tempfile
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import FaultPlan
from repro.kernels import resolve_backend
from repro.obs import trace as _trace
from repro.obs.events import (
    CAT_REQUEST,
    CAT_ROUND,
    CLIENT_REQUEST,
    SVC_BATCH,
    SVC_DEGRADED,
    SVC_REQUEST,
)
from repro.obs.export import chrome_trace
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import WallRecorder
from repro.obs.trace import TraceContext
from repro.runtime.dispatch import (
    PoolSupervisor,
    _pool_context,
    resolve_retries,
    resolve_timeout,
    run_tasks,
)
from repro.runtime.shmem import ShmArena, ShmDescriptor
from repro.service.admission import (
    DEFAULT_QUEUE_DEPTH,
    AdmissionQueue,
    PendingRequest,
)
from repro.service.batcher import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_DELAY_S,
    BatchKey,
    MicroBatcher,
)
from repro.service.cache import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MAX_ENTRIES,
    ResultCache,
    image_digest,
    result_key,
)
from repro.service.instruments import (
    M_BATCH_SIZE,
    M_COALESCED,
    M_COMPLETED,
    M_DEGRADED,
    M_ERRORS,
    M_REQUESTS,
    ServiceInstruments,
)
from repro.service.ops import (
    OPS,
    canonical_params,
    check_request_image,
    compute,
    materialize_request_image,
    svc_init,
    svc_task,
)
from repro.utils import errors as _errors
from repro.utils.aio import cancel_and_reap
from repro.utils.errors import (
    FaultError,
    ReproError,
    ServiceClosedError,
    ServiceDrainingError,
    ValidationError,
)


@dataclass
class ServiceConfig:
    """Everything tunable about a :class:`BatchService`.

    ``timeout_s`` / ``retries`` default through
    :func:`~repro.runtime.dispatch.resolve_timeout` /
    :func:`~repro.runtime.dispatch.resolve_retries`, so
    ``REPRO_TASK_TIMEOUT`` and ``REPRO_TASK_RETRIES`` govern the
    service exactly as they govern the batch runtime underneath it.
    """

    workers: int = 2
    kernel: str | None = None
    max_batch: int = DEFAULT_MAX_BATCH
    max_delay_s: float = DEFAULT_MAX_DELAY_S
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    cache: bool = True
    cache_entries: int = DEFAULT_MAX_ENTRIES
    cache_bytes: int = DEFAULT_MAX_BYTES
    timeout_s: float | None = None
    retries: int | None = None
    fault_plan: FaultPlan | None = None
    degrade: bool = True
    #: How long :meth:`BatchService.stop` waits for in-flight requests
    #: to finish before tearing the batcher down.  New requests shed
    #: with :class:`~repro.utils.errors.ServiceDrainingError` the whole
    #: time, so the wait is bounded by the work already admitted.
    drain_deadline_s: float = 5.0

    def __post_init__(self):
        if self.workers < 1:
            raise ValidationError("service needs at least one worker")
        if self.drain_deadline_s < 0:
            raise ValidationError("drain_deadline_s must be non-negative")
        self.kernel = resolve_backend(self.kernel)
        self.timeout_s = resolve_timeout(self.timeout_s)
        self.retries = resolve_retries(self.retries)


class BatchExecutor:
    """Runs coalesced batches on one shared, supervised process pool.

    One batch of *n* compatible requests becomes one
    :func:`~repro.runtime.dispatch.run_tasks` dispatch of *n* tasks --
    the fixed fan-out cost (pickling, pool wakeup, the collection
    barrier) is paid once per batch instead of once per request.  The
    pool persists across batches; a deadline-missing batch respawns it
    through the supervisor exactly as the batch runtime does.

    When recovery is exhausted (:class:`~repro.utils.errors.FaultError`
    from the dispatcher) and ``degrade`` is on, the batch is re-run
    serially in-process: slower, but every request still gets its
    bit-identical answer -- degraded *serving*, not an outage.
    """

    def __init__(self, config: ServiceConfig, instruments: ServiceInstruments):
        self._config = config
        self._instruments = instruments
        self._lock = threading.Lock()
        self._supervisor: PoolSupervisor | None = None

    def start(self) -> None:
        """Create the worker pool eagerly (pre-fork before threads spawn)."""
        if self._supervisor is not None:
            return
        self._supervisor = PoolSupervisor(
            _pool_context(),
            self._config.workers,
            initializer=svc_init,
            initargs=(self._config.kernel, self._config.fault_plan),
        )
        self._supervisor.pool  # noqa: B018 - touch to build the pool now

    def close(self) -> None:
        if self._supervisor is not None:
            self._supervisor.close()
            self._supervisor = None

    @property
    def respawns(self) -> int:
        return self._supervisor.respawns if self._supervisor is not None else 0

    def execute_batch(self, key: BatchKey, payloads: list,
                      trace: TraceContext | None = None) -> list:
        """Dispatch one batch (blocking; called from a worker thread).

        ``trace`` is the batch span's context; activating it here (the
        thread does not inherit the event loop's context) parents the
        dispatch span, and the serial fallback's kernel spans, into the
        request tree.
        """
        if self._supervisor is None:
            raise ServiceClosedError("executor is not started")
        with self._lock, _trace.activate(trace):
            t0 = time.perf_counter()
            try:
                return run_tasks(
                    self._supervisor,
                    svc_task,
                    payloads,
                    site="svc:exec",
                    timeout=self._config.timeout_s,
                    max_retries=self._config.retries,
                )
            except FaultError as exc:
                if not self._config.degrade:
                    raise
                _trace.instant(
                    SVC_DEGRADED, op=key.op, batch=len(payloads),
                    error=type(exc).__name__,
                )
                self._instruments.degraded()
                return [self._serial(payload) for payload in payloads]
            finally:
                self._instruments.exec_done(key.op, time.perf_counter() - t0)

    def _serial(self, payload) -> tuple:
        index, op, image, params, _ctx = payload
        try:
            # Descriptor requests materialize here too (the degrade path
            # runs on the driver, where the segment is just as visible);
            # a corrupt segment surfaces as this request's own typed
            # CorruptPayloadError marker, not a batch-level failure.
            image = materialize_request_image(image, task=index)
            return ("ok", compute(op, image, params, self._config.kernel))
        except ReproError as exc:
            return ("err", type(exc).__name__, str(exc))

    def snapshot(self) -> dict:
        """The ``executor`` section of the service's ``stats``: every
        flushed batch is one dispatch, so batches and tasks read the
        batch-size histogram the batcher feeds."""
        reg = self._instruments.registry
        sizes = reg.histogram(M_BATCH_SIZE)
        return {
            "batches": sizes.count,
            "tasks": int(sizes.sum),
            "degraded": reg.count(M_DEGRADED),
            "respawns": self.respawns,
        }


def _worker_error(name: str, message: str) -> ReproError:
    """Rehydrate a worker error marker into its original typed error.

    Workers report op failures as ``("err", type_name, message)``
    markers (see :func:`~repro.service.ops.svc_task`); re-raising them
    all as :class:`ValidationError` would mislabel genuine runtime
    faults as client input errors, so the original type is looked up in
    the error hierarchy and only unknown names fall back to the base
    :class:`ReproError`.
    """
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(f"request failed in worker: {message}")
    return ReproError(f"request failed in worker ({name}): {message}")


class BatchService:
    """The in-process serving core; see the module docstring for layering.

    Lifecycle::

        service = BatchService(ServiceConfig(workers=4))
        await service.start()
        hist = await service.submit("histogram", image, k=256)
        ...
        await service.stop()

    All coroutine methods must be called on one event loop (the one
    :meth:`start` ran on).  For synchronous callers there is
    :class:`Client`, which owns a loop thread.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 recorder: WallRecorder | None = None):
        self.config = config or ServiceConfig()
        self.recorder = recorder
        #: The one store of the service's event counts (see :meth:`snapshot`).
        self.metrics = MetricsRegistry()
        self.instruments = ServiceInstruments(self.metrics)
        self.cache = ResultCache(
            max_entries=self.config.cache_entries,
            max_bytes=self.config.cache_bytes,
            instruments=self.instruments,
        ) if self.config.cache else None
        self.executor = BatchExecutor(self.config, self.instruments)
        self._admission: AdmissionQueue | None = None
        self._batcher: MicroBatcher | None = None
        self._batcher_task: asyncio.Task | None = None
        #: key -> (future, lead request span id) for in-flight coalescing.
        self._inflight: dict[str, tuple[asyncio.Future, str | None]] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False
        self._draining = False
        #: Requests currently inside :meth:`submit` (admitted or about
        #: to be); the drain protocol waits on this, not on queue sizes,
        #: so a request between queues cannot be raced to cancellation.
        self._open_requests = 0
        self._prev_sink = None

    @property
    def running(self) -> bool:
        return self._batcher_task is not None and not self._closed

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        if self.running:
            return
        self._closed = False
        self._draining = False
        self._loop = asyncio.get_running_loop()
        if self.recorder is not None:
            # The recorder is the process's one sink until stop(), so
            # traced services nest (stop them in reverse start order);
            # installed first so the pool's workers forward to it.
            self._prev_sink = _trace.set_sink(self.recorder)
        try:
            self.executor.start()
        except BaseException:
            self._restore_sink()
            raise
        self._admission = AdmissionQueue(
            depth=self.config.queue_depth,
            timeout_s=self.config.timeout_s,
            instruments=self.instruments,
        )
        self._batcher = MicroBatcher(
            self._admission,
            self._execute,
            max_batch=self.config.max_batch,
            max_delay_s=self.config.max_delay_s,
        )
        self._batcher_task = asyncio.ensure_future(self._batcher.run())

    def begin_drain(self) -> None:
        """Stop admitting: every new :meth:`submit` sheds immediately
        with :class:`~repro.utils.errors.ServiceDrainingError` while
        already-admitted requests keep flowing toward their futures."""
        self._draining = True

    async def drain(self, deadline_s: float | None = None) -> bool:
        """Drain in-flight requests; True when all of them resolved.

        Sheds new work, then waits -- bounded by ``deadline_s``
        (default :attr:`ServiceConfig.drain_deadline_s`) -- until no
        request is still inside :meth:`submit`.  The batcher stays up
        throughout, so queued requests finish as final batches rather
        than racing a cancellation.
        """
        self.begin_drain()
        budget = (
            self.config.drain_deadline_s if deadline_s is None else deadline_s
        )
        deadline = time.monotonic() + budget
        while self._open_requests:
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    async def stop(self) -> None:
        """Graceful shutdown: drain in-flight work, then tear the pool down.

        Admitted requests get up to the drain deadline to resolve
        before the batcher is cancelled -- ``stop()`` no longer races
        pending futures; only requests still stuck *past* the deadline
        fall through to the cancellation flush below.
        """
        if self._batcher_task is None:
            return
        try:
            await self.drain()
            self._closed = True
            # Hand still-queued requests to the batcher before cancelling
            # so its cancellation path flushes them as final batches.
            task, self._batcher_task = self._batcher_task, None
            await asyncio.sleep(0)
            for req in self._admission.drain_nowait():
                self._batcher._absorb(req)
            # Not a plain ``await task``: the batcher parks in wait_for
            # (batch-window timeouts), which on 3.11 can swallow the
            # first cancel if it lands as the window expires;
            # cancel_and_reap re-cancels until the task actually ends.
            await cancel_and_reap(task)
            self.executor.close()
        finally:
            self._restore_sink()

    def _restore_sink(self) -> None:
        """Uninstall the recorder (see :meth:`start`) and fold in its
        workers' last events."""
        if self.recorder is not None:
            _trace.set_sink(self._prev_sink)
            self._prev_sink = None
            self.recorder.drain()

    async def submit(self, op: str, image, *, trace: TraceContext | None = None,
                     **params) -> np.ndarray:
        """Serve one request; returns the result array (caller-owned).

        ``image`` is either an ndarray (validated and digested here) or
        a :class:`~repro.runtime.shmem.ShmDescriptor` naming a shared
        segment the caller has already written and digested -- the
        zero-copy path, where pixels are only touched by the worker
        serving a cache miss.

        ``trace`` is the request's trace context (e.g. parsed off the
        wire by the socket front-end).  While a sink is installed (a
        recorder attached, see :meth:`start`) a context is minted when
        none is given, so every served request becomes one connected
        span tree; otherwise ``trace`` is carried but unrecorded.

        Raises :class:`~repro.utils.errors.ValidationError` for a bad
        request, :class:`~repro.utils.errors.ServiceOverloadError` when
        shed, :class:`~repro.utils.errors.TaskTimeoutError` when the
        request's deadline expires, and
        :class:`~repro.utils.errors.ServiceClosedError` after
        :meth:`stop`.
        """
        if not self.running:
            raise ServiceClosedError("service is not running (call start())")
        if self._draining:
            raise ServiceDrainingError(
                "service is draining for shutdown; retry against another shard"
            )
        self._open_requests += 1
        t0 = time.perf_counter()
        req_ctx = None
        if _trace.sink() is not None:
            # A caller-supplied context gets a child span; a locally
            # minted one IS the request span (no parentless root id).
            if trace is None:
                trace = _trace.current()
            req_ctx = TraceContext.mint() if trace is None else trace.child()
        span_args = {"op": str(op)}
        self.instruments.request_started(op)
        via = "error"
        try:
            result, via = await self._serve_request(op, image, params, req_ctx, span_args)
            self.instruments.request_completed(op)
            return result
        except Exception as exc:
            self.instruments.request_error(op, exc)
            raise
        finally:
            self._open_requests -= 1
            t1 = time.perf_counter()
            if req_ctx is not None:
                _trace.record_span(SVC_REQUEST, t0, t1, cat=CAT_REQUEST,
                                   ctx=req_ctx, via=via, **span_args)
            self.instruments.request_finished(op, t1 - t0)

    async def _serve_request(self, op, image, params,
                             req_ctx: TraceContext | None, span_args: dict) -> tuple:
        """The cache / coalesce / admit path; returns ``(result, via)``.

        A :class:`~repro.runtime.shmem.ShmDescriptor` image is the
        zero-copy path: no pixel is read on this thread -- validation
        of the actual bytes happens in the worker that materializes the
        segment, and the cache key reuses the digest the *client*
        already computed.  A cache hit therefore costs zero segment
        reads (the regression test holds us to that by unlinking the
        segment before the second request).
        """
        descriptor = isinstance(image, ShmDescriptor)
        if descriptor:
            canonical = canonical_params(op, None, params)
        else:
            image = check_request_image(image)
            canonical = canonical_params(op, image, params)
        key = None
        if self.cache is not None:
            t_lookup = time.perf_counter()
            digest = image.digest if descriptor else image_digest(image)
            key = result_key(digest, op, canonical)
            hit = self.cache.get(key)
            self.instruments.cache_lookup(time.perf_counter() - t_lookup)
            # The cache outcome rides the request span (``via=...``); the
            # cache itself counts it into the registry.
            if hit is not None:
                return np.array(hit, copy=True), "cache"
            inflight = self._inflight.get(key)
            if inflight is not None:
                in_future, lead_span = inflight
                self.instruments.coalesced()
                if req_ctx is not None and lead_span is not None:
                    # Tie this request's span tree to the lead request
                    # (whose tree contains the actual batch span).
                    span_args["coalesced_onto"] = lead_span
                result = await asyncio.shield(in_future)
                return np.array(result, copy=True), "coalesced"
        future = self._loop.create_future()
        req = PendingRequest(op=op, image=image, params=canonical,
                             future=future, key=key, trace=req_ctx)
        self._admission.admit(req)  # raises ServiceOverloadError when full
        if key is not None:
            self._inflight[key] = (
                future, req_ctx.span_id if req_ctx is not None else None
            )
            future.add_done_callback(self._make_finalizer(key))
        result = await asyncio.shield(future)
        return np.array(result, copy=True), "batched"

    @staticmethod
    def _task_wire(req: PendingRequest, batch_ctx: TraceContext | None):
        """The trace context a worker task should activate, wire-encoded.

        The context keeps the member request's ``trace_id`` but the
        batch span's ``span_id``, so the worker's task span (a child of
        the activated context) parents under the batch span while
        staying inside the request's trace.
        """
        if req.trace is None or batch_ctx is None:
            return None
        return TraceContext(
            trace_id=req.trace.trace_id,
            span_id=batch_ctx.span_id,
            parent_id=batch_ctx.parent_id,
        ).to_wire()

    def _make_finalizer(self, key: str):
        def _done(fut: asyncio.Future) -> None:
            self._inflight.pop(key, None)
            if self.cache is None or fut.cancelled() or fut.exception() is not None:
                return
            self.cache.put(key, fut.result())
        return _done

    async def _execute(self, batch_key: BatchKey, requests: list[PendingRequest]) -> None:
        """Batcher callback: run one batch and resolve its futures.

        The batch span is a child of the *lead* (first traced) request
        and carries ``links`` to every member request's span id, so one
        dispatch serving five coalesced requests is one span with five
        back-references instead of five disconnected trees.  Each task
        payload carries a wire context whose span id *is* the batch
        span (with the member request's own trace id), so worker task
        spans parent into the batch across the process boundary.
        """
        lead = next((r for r in requests if r.trace is not None), None)
        span_args = {"op": batch_key.op, "batch": len(requests)}
        if lead is not None:
            span_args["links"] = [r.trace.span_id for r in requests if r.trace is not None]
        with (
            _trace.activate(lead.trace if lead is not None else None),
            _trace.traced_span(SVC_BATCH, cat=CAT_ROUND, **span_args) as batch_ctx,
        ):
            payloads = [
                (i, req.op, req.image, req.params, self._task_wire(req, batch_ctx))
                for i, req in enumerate(requests)
            ]
            try:
                markers = await asyncio.get_running_loop().run_in_executor(
                    None, self.executor.execute_batch, batch_key, payloads, batch_ctx
                )
            except Exception as exc:  # FaultError with degrade off, or a real bug
                for req in requests:
                    if not req.future.done():
                        req.future.set_exception(exc)
                return
        for req, marker in zip(requests, markers):
            if req.future.done():
                continue
            if marker[0] == "ok":
                req.future.set_result(marker[1])
            else:
                _tag, name, message = marker
                req.future.set_exception(_worker_error(name, message))

    def snapshot(self) -> dict:
        """All layer stats as one JSON-ready dict.

        ``schema`` versions the shape: v2 added the schema field
        itself, the cache ``hit_rate``, the admission
        ``depth_highwater``, and the per-op ``latency`` quantiles.
        Every count is read back from :attr:`metrics`, so ``stats``
        and the ``metrics`` exposition cannot disagree; at rest,
        ``requests == completed + errors + open_requests``.
        """
        count = self.metrics.count
        out = {
            "schema": "repro-service-stats/v2",
            "service": {
                "requests": count(M_REQUESTS),
                "completed": count(M_COMPLETED),
                "errors": count(M_ERRORS),
                "coalesced": count(M_COALESCED),
                "running": self.running,
                "draining": self._draining,
                "open_requests": self._open_requests,
            },
            "executor": self.executor.snapshot(),
            "config": {
                "workers": self.config.workers,
                "kernel": self.config.kernel,
                "max_batch": self.config.max_batch,
                "max_delay_s": self.config.max_delay_s,
                "queue_depth": self.config.queue_depth,
                "cache": self.config.cache,
                "timeout_s": self.config.timeout_s,
                "retries": self.config.retries,
            },
        }
        if self._admission is not None:
            out["admission"] = self._admission.snapshot()
        if self._batcher is not None:
            out["batcher"] = self._batcher.snapshot()
        if self.cache is not None:
            out["cache"] = self.cache.snapshot()
        out["latency"] = self.instruments.latency_summary()
        return out


class Client:
    """Synchronous in-process facade over a :class:`BatchService`.

    Owns a private event loop on a daemon thread, so plain scripts (and
    thread-based load generators) can use the batching service without
    writing any asyncio::

        with Client(ServiceConfig(workers=4)) as client:
            hist = client.submit("histogram", image, k=256)

    ``submit`` is thread-safe: many threads sharing one client become
    concurrent requests on the service's loop -- which is exactly what
    the micro-batcher wants to see.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 recorder: WallRecorder | None = None):
        self.service = BatchService(config, recorder=recorder)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-service", daemon=True
        )
        self._started = False

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def start(self) -> "Client":
        if not self._started:
            self._thread.start()
            self._call(self.service.start())
            self._started = True
        return self

    def close(self) -> None:
        if self._started:
            self._call(self.service.stop())
            self._started = False
        if self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
        self._loop.close()

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def submit(self, op: str, image, **params) -> np.ndarray:
        """Blocking submit; raises the same typed errors as the service."""
        if not self._started:
            raise ServiceClosedError("client is not started (use 'with Client(...)')")
        return self._call(self.service.submit(op, image, **params))

    def stats(self) -> dict:
        return self.service.snapshot()

    def __enter__(self) -> "Client":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


# -- socket front-end --------------------------------------------------------

#: Hard cap on one wire request line (64 MiB of base64 covers a
#: 4096x4096 int16 image; anything bigger is a client bug or an attack).
MAX_REQUEST_BYTES = 64 << 20

#: Longest usable unix socket path: ``sockaddr_un.sun_path`` is 108
#: bytes on Linux *including* the trailing NUL.  ``bind()`` past it
#: fails with a bare OSError naming neither the limit nor the path;
#: tmpdir-nested shard sockets (pytest tmp_path, mkdtemp under a deep
#: CWD) hit this in practice, so it is validated at config time.
SUN_PATH_MAX = 107


def check_socket_path(path) -> str:
    """Validate a unix socket path against the ``sun_path`` limit.

    Returns the path as ``str``; raises
    :class:`~repro.utils.errors.ValidationError` (instead of the raw
    ``OSError`` a late ``bind()`` would give) when its *encoded* length
    exceeds :data:`SUN_PATH_MAX` bytes.
    """
    path = os.fspath(path)
    if isinstance(path, bytes):
        encoded, path = path, os.fsdecode(path)
    else:
        encoded = os.fsencode(path)
    if len(encoded) > SUN_PATH_MAX:
        raise ValidationError(
            f"unix socket path is {len(encoded)} bytes, over the "
            f"{SUN_PATH_MAX}-byte sun_path limit: {path!r} -- bind under a "
            f"shorter directory (e.g. /tmp)"
        )
    return path


def socket_dir(prefix: str, longest_name: str) -> str:
    """A fresh directory for unix sockets, made with ``tempfile.mkdtemp``.

    It lives in the temp directory unless a socket called
    ``longest_name`` inside it would pass :data:`SUN_PATH_MAX` bytes;
    then it lives under ``/tmp``, so a deep ``TMPDIR`` does not stop a
    socket from binding.  The caller removes it.
    """
    base = tempfile.gettempdir()
    # mkdtemp appends 8 random characters to the prefix.
    longest = os.path.join(base, prefix + "x" * 8, longest_name)
    if len(os.fsencode(longest)) > SUN_PATH_MAX:
        base = "/tmp"
    return tempfile.mkdtemp(prefix=prefix, dir=base)


#: ndarray dtypes accepted from the wire.
WIRE_DTYPES = ("uint8", "int8", "uint16", "int16", "int32", "int64")

#: Wire encodings a request may ask its reply in.  ``ndjson`` is the
#: portable fallback (base64 pixels inline in the JSON line); ``shmem``
#: carries only a segment descriptor -- pixels never touch the socket.
WIRES = ("ndjson", "shmem")


def encode_array(arr: np.ndarray) -> dict:
    """JSON-encodable form of an ndarray (shape, dtype, base64 bytes)."""
    arr = np.ascontiguousarray(arr)
    return {
        "shape": list(arr.shape),
        "dtype": str(arr.dtype),
        "data_b64": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(obj: dict) -> np.ndarray:
    """Inverse of :func:`encode_array`, with strict validation."""
    if not isinstance(obj, dict):
        raise ValidationError("array encoding must be an object")
    dtype = obj.get("dtype")
    if dtype not in WIRE_DTYPES:
        raise ValidationError(f"unsupported wire dtype {dtype!r}; known: {list(WIRE_DTYPES)}")
    shape = obj.get("shape")
    if (not isinstance(shape, list) or not shape
            or any(not isinstance(d, int) or d <= 0 for d in shape)):
        raise ValidationError("array 'shape' must be a list of positive ints")
    try:
        raw = base64.b64decode(obj.get("data_b64", ""), validate=True)
    except Exception:
        raise ValidationError("array 'data_b64' is not valid base64") from None
    # math.prod keeps arbitrary precision: np.prod would wrap at int64
    # on adversarial shapes and let the length check pass spuriously.
    expected = math.prod(shape) * np.dtype(dtype).itemsize
    if expected > MAX_REQUEST_BYTES:
        raise ValidationError(
            f"array of shape {shape} ({expected} bytes) exceeds the "
            f"{MAX_REQUEST_BYTES} byte request cap"
        )
    if len(raw) != expected:
        raise ValidationError(
            f"array payload is {len(raw)} byte(s), expected {expected}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def _materialize_image(obj):
    """An image from the wire: shm descriptor, explicit array, or a
    named test pattern."""
    if isinstance(obj, dict) and "shm" in obj:
        # The zero-copy request form: {"shm": {name, dtype, shape,
        # digest}}.  Only the descriptor is validated here; the pixels
        # stay untouched until a worker serves a cache miss.
        return ShmDescriptor.from_wire(obj["shm"])
    if isinstance(obj, dict) and "pattern" in obj:
        from repro.images import binary_test_image, darpa_like

        pattern = obj["pattern"]
        size = obj.get("size", 64)
        if not isinstance(pattern, int) or not 0 <= pattern <= 9:
            raise ValidationError("'pattern' must be an integer in 0..9")
        if not isinstance(size, int) or size <= 0:
            raise ValidationError("'size' must be a positive integer")
        if pattern == 0:
            levels = obj.get("levels", 256)
            if not isinstance(levels, int) or isinstance(levels, bool) or levels < 8:
                raise ValidationError("'levels' must be an integer >= 8")
            return darpa_like(size, levels)
        return binary_test_image(pattern, size)
    return decode_array(obj)


class ServiceServer:
    """Newline-delimited-JSON front-end on a local (unix-domain) socket.

    One request object per line in, one response object per line out;
    responses carry the request's ``id`` (if any) so clients may
    pipeline.  Ops: the three compute ops plus ``ping``, ``stats``,
    ``shm_release``, and ``shutdown`` (which stops the server after
    responding).

    **Shared-memory replies.**  A compute request with ``"wire":
    "shmem"`` (the default when its image arrived as a descriptor) gets
    its result in a server-minted segment: the reply carries ``{"shm":
    descriptor}`` and the client owes one ``shm_release`` for that
    segment name, on the *same connection*.  Segment lifetime is pinned
    to the connection that requested it -- whatever a client fails to
    release is torn down when it disconnects, and :meth:`stop` releases
    everything, so no reply segment can outlive the server (the
    leakcheck contract).
    """

    def __init__(self, service: BatchService, socket_path: str, *,
                 shard_id: int | None = None):
        self.service = service
        self.socket_path = check_socket_path(socket_path)
        #: Position of this server in a sharded tier (``None`` when it
        #: serves alone).  Echoed in ``ping`` and ``stats`` replies so
        #: the router's health probes confirm they reached the shard
        #: they think they did.
        self.shard_id = shard_id
        #: Owner of every reply segment this server ever mints.
        self.arena = ShmArena()
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()

    async def start(self) -> None:
        await self.service.start()
        # Without an explicit limit the StreamReader caps lines at 64 KiB
        # and readline() raises ValueError on anything longer -- even a
        # modest base64 image would drop the connection unanswered.
        self._server = await asyncio.start_unix_server(
            self._handle_client, path=self.socket_path, limit=MAX_REQUEST_BYTES
        )

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`trigger_shutdown`)."""
        await self._shutdown.wait()
        await self.stop()

    def trigger_shutdown(self) -> None:
        self._shutdown.set()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            with contextlib.suppress(OSError):  # asyncio leaves it before 3.13
                os.unlink(self.socket_path)
        await self.service.stop()
        self.arena.release_all()

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Reply segments minted for this connection and not yet released
        # by the client; reclaimed below however the connection ends.
        owned: set[str] = set()
        try:
            # The loop survives a shutdown request on purpose: while the
            # service drains, compute requests still deserve their typed
            # ServiceDrainingError reply (so a router can retry them
            # elsewhere) rather than a silently dropped connection.
            while True:
                try:
                    line = await reader.readline()
                except ConnectionResetError:
                    break
                except (ValueError, asyncio.IncompleteReadError):
                    # A line past the stream limit surfaces as ValueError
                    # (readline wraps LimitOverrunError); the stream can't
                    # be resynced mid-line, so reply once and hang up.
                    writer.write(_error_line(None, ValidationError(
                        f"request too large (limit {MAX_REQUEST_BYTES} bytes)"
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._respond(line, owned)
                writer.write(response)
                await writer.drain()
        finally:
            for name in owned:
                # Raced releases (client released right as it hung up,
                # or stop() already swept the arena) are fine here.
                with contextlib.suppress(ValidationError):
                    self.arena.release(name)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _respond(self, line: bytes, owned: set[str] | None = None) -> bytes:
        req_id = None
        try:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"request is not valid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ValidationError("request must be a JSON object")
            req_id = obj.get("id")
            op = obj.get("op")
            if op == "ping":
                if self.shard_id is None:
                    return _ok_line(req_id, "pong")
                return _ok_line(req_id, {
                    "pong": True,
                    "shard_id": self.shard_id,
                    "draining": self.service.draining,
                })
            if op == "stats":
                snap = self.service.snapshot()
                if self.shard_id is not None:
                    snap["shard"] = {"id": self.shard_id}
                return _ok_line(req_id, snap)
            if op == "metrics":
                return _ok_line(req_id, self.service.metrics.prometheus_text())
            if op == "trace":
                if self.service.recorder is None:
                    raise ValidationError(
                        "tracing is off (the server was started without a recorder)"
                    )
                self.service.recorder.drain()
                return _ok_line(req_id, chrome_trace(self.service.recorder.log))
            if op == "shm_release":
                name = obj.get("name")
                if not isinstance(name, str):
                    raise ValidationError("'name' must be a segment name string")
                self.arena.release(name)  # unknown/double -> ValidationError
                if owned is not None:
                    owned.discard(name)
                return _ok_line(req_id, "released")
            if op == "shutdown":
                # Drain protocol: shed from this moment on (new compute
                # requests get a typed ServiceDrainingError reply), let
                # in-flight batches finish inside stop()'s drain
                # deadline, then exit.
                self.service.begin_drain()
                self._shutdown.set()
                return _ok_line(req_id, "draining")
            return await self._respond_compute(req_id, op, obj, owned)
        except ReproError as exc:
            return _error_line(req_id, exc)
        except Exception as exc:
            # Anything non-typed is a server-side bug; the client still
            # deserves a reply rather than a silently dropped connection.
            return _error_line(
                req_id, ReproError(f"internal error ({type(exc).__name__}): {exc}")
            )

    async def _respond_compute(self, req_id, op, obj: dict,
                               owned: set[str] | None = None) -> bytes:
        """One compute request: decode, trace, submit, encode.

        The ``wire`` request field picks the *reply* encoding; left
        unset it follows the image encoding in kind, so a zero-copy
        request gets a zero-copy reply without saying so twice.
        """
        ctx = (
            TraceContext.from_wire(obj["trace"])
            if obj.get("trace") is not None
            else TraceContext.mint()
        )
        instruments = self.service.instruments
        t0 = time.perf_counter()
        try:
            image = _materialize_image(obj.get("image"))
            image_wire = "shmem" if isinstance(image, ShmDescriptor) else "ndjson"
            instruments.decode(time.perf_counter() - t0, wire=image_wire)
            wire = obj.get("wire")
            if wire is None:
                wire = image_wire
            if wire not in WIRES:
                raise ValidationError(
                    f"unknown reply wire {wire!r}; known: {list(WIRES)}"
                )
            params = obj.get("params", {})
            if not isinstance(params, dict):
                raise ValidationError("'params' must be an object")
            if "trace" in params:
                raise ValidationError(
                    "'trace' is a top-level request field, not an op parameter"
                )
            result = await self.service.submit(op, image, trace=ctx, **params)
            t_enc = time.perf_counter()
            if wire == "shmem":
                desc = self.arena.mint(result)
                if owned is not None:
                    owned.add(desc.name)
                payload = {"shm": desc.to_wire()}
            else:
                payload = encode_array(result)
            instruments.encode(time.perf_counter() - t_enc, wire=wire)
            return _ok_line(req_id, payload, trace_id=ctx.trace_id)
        finally:
            _trace.record_span(CLIENT_REQUEST, t0, time.perf_counter(),
                               cat=CAT_REQUEST, ctx=ctx, op=str(op))


def _ok_line(req_id, result, *, trace_id: str | None = None) -> bytes:
    payload = {"id": req_id, "ok": True, "result": result}
    if trace_id is not None:
        payload["trace_id"] = trace_id
    return (json.dumps(payload) + "\n").encode()


def _error_line(req_id, exc: Exception) -> bytes:
    payload = {
        "id": req_id,
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    return (json.dumps(payload) + "\n").encode()


async def request_over_socket(socket_path: str, obj: dict,
                              *, trace: TraceContext | None = None) -> dict:
    """One-shot client helper: send one request object, await its reply.

    Compute requests are stamped with a trace context (the given one,
    or a freshly minted one) so the server can tie every hop of the
    request to a single trace id -- echoed back as ``trace_id`` in the
    response for ``repro trace --follow``.
    """
    obj = dict(obj)
    if "trace" not in obj and obj.get("op") in OPS:
        obj["trace"] = (trace if trace is not None else TraceContext.mint()).to_wire()
    reader, writer = await asyncio.open_unix_connection(
        socket_path, limit=MAX_REQUEST_BYTES
    )
    try:
        writer.write((json.dumps(obj) + "\n").encode())
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ReproError("service closed the connection without replying")
        return json.loads(line)
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()
