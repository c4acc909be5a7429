"""Deadline-aware, fault-tolerant task dispatch for the process pool.

The seed runtime fanned every parallel step out with a bare
``pool.map`` -- an *unbounded* barrier: one crashed worker (its task is
simply lost by ``multiprocessing.Pool``) or one hung task deadlocked
the driver forever.  This module replaces it:

* every task attempt gets a **deadline** (``AsyncResult``-based
  collection instead of ``pool.map``; default from the
  ``REPRO_TASK_TIMEOUT`` environment variable);
* faulted attempts are **retried with exponential backoff**, up to a
  bounded budget (``REPRO_TASK_RETRIES``); retryable faults are missed
  deadlines (covering both hangs and hard worker crashes) and the
  typed transient errors
  (:class:`~repro.utils.errors.TransientTaskError`,
  :class:`~repro.utils.errors.CorruptPayloadError`) -- any other
  exception is a real bug and propagates immediately;
* a missed deadline **respawns the pool** (the
  :class:`PoolSupervisor` re-runs the initializer in fresh workers),
  because a pool that lost or wedged a worker cannot be trusted with
  the retry -- nor, once the budget is spent, with the next dispatch;
* exhausted budgets raise typed
  :class:`~repro.utils.errors.FaultError` subclasses -- never a hang;
* every recovery step is visible as a ``fault:*`` instant/counter in
  the installed sink (:mod:`repro.obs.trace`), and each dispatch as a
  ``dispatch:<site>`` span.

A pool outlives one dispatch.  The ``shmem`` transport goes further and
borrows a *warm* pool (:func:`borrow_pool`), which the process keeps
for every job it runs: its workers are forked once, and each task
carries its own job's state, fault plan included.

Task functions receive ``(payload, attempt)`` tuples; the attempt
number feeds the deterministic fault injector
(:mod:`repro.faults.inject`), which is how a seeded plan can fault the
first attempt of a task and let its retry through.
"""

from __future__ import annotations

import atexit
import ctypes
import mmap
import multiprocessing as mp
import os
import threading
import time

from repro.obs.events import (
    CAT_ROUND,
    FAULT_GIVEUP,
    FAULT_RESPAWN,
    FAULT_RETRY,
    FAULT_TIMEOUT,
    FAULT_WORKER_DEATH,
)
from repro.obs import trace as _trace
from repro.obs.runtime import init_worker
from repro.runtime.shmem import MEMFD_TAG, new_memfd
from repro.utils.errors import (
    ConfigurationError,
    CorruptPayloadError,
    RecoveryExhaustedError,
    ReproError,
    TaskTimeoutError,
    TransientTaskError,
    ValidationError,
)

#: Environment variable holding the default per-task deadline, seconds.
ENV_TIMEOUT = "REPRO_TASK_TIMEOUT"

#: Environment variable holding the default retry budget per task.
ENV_RETRIES = "REPRO_TASK_RETRIES"

#: Fallback deadline when neither argument nor environment provides one.
DEFAULT_TIMEOUT_S = 300.0

#: Fallback retry budget (retries *after* the first attempt).
DEFAULT_RETRIES = 2

#: Exceptions the dispatcher treats as transient and retries.
RETRYABLE = (TransientTaskError, CorruptPayloadError)

#: Poll step while waiting for results (bounded, so deadlines are
#: checked promptly even when the pool has silently lost a task).
_POLL_S = 0.005

#: Linux's ``MAP_FIXED``, which the :mod:`mmap` module does not export.
_MAP_FIXED = 0x10

#: libc's ``mmap`` and ``munmap``, resolved before any worker forks: a
#: worker forked while another thread held the dynamic loader's lock
#: could not.
_libc = ctypes.CDLL(None, use_errno=True)
_libc_mmap = _libc.mmap
_libc_mmap.restype = ctypes.c_void_p
_libc_mmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int,
                       ctypes.c_int, ctypes.c_int, ctypes.c_long)
_libc_munmap = _libc.munmap
_libc_munmap.restype = ctypes.c_int
_libc_munmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t)

#: ``MAP_FAILED`` as ``_libc_mmap`` returns it.
_MAP_FAILED = ctypes.c_void_p(-1).value


def resolve_timeout(timeout: float | None = None) -> float:
    """Per-task deadline: argument, else ``REPRO_TASK_TIMEOUT``, else default."""
    if timeout is None:
        raw = os.environ.get(ENV_TIMEOUT)
        if raw is None or not raw.strip():
            return DEFAULT_TIMEOUT_S
        try:
            timeout = float(raw)
        except ValueError:
            raise ValidationError(f"{ENV_TIMEOUT}={raw!r} is not a number") from None
    timeout = float(timeout)
    if timeout <= 0:
        raise ValidationError("task timeout must be positive")
    return timeout


def resolve_retries(retries: int | None = None) -> int:
    """Retry budget: argument, else ``REPRO_TASK_RETRIES``, else default."""
    if retries is None:
        raw = os.environ.get(ENV_RETRIES)
        if raw is None or not raw.strip():
            return DEFAULT_RETRIES
        try:
            retries = int(raw)
        except ValueError:
            raise ValidationError(f"{ENV_RETRIES}={raw!r} is not an integer") from None
    retries = int(retries)
    if retries < 0:
        raise ValidationError("retry budget must be non-negative")
    return retries


def _pool_context():
    """The pool start method: fork, else :class:`ConfigurationError`.

    A forked worker starts in milliseconds, without re-importing the
    program, and inherits its initializer arguments unpickled.
    """
    try:
        return mp.get_context("fork")
    except ValueError:
        raise ConfigurationError("the worker pool needs the 'fork' start method") from None


class PoolSupervisor:
    """Owns a worker pool it can respawn from its recorded recipe.

    A ``multiprocessing.Pool`` that lost a worker mid-task has lost the
    task forever, and a wedged worker occupies a slot indefinitely --
    so recovery always goes through :meth:`respawn`: terminate the old
    pool (SIGTERM reaches even a sleeping worker) and build a fresh one
    with the same initializer, which re-installs the fault plan in the
    new workers.

    Workers record into the sink installed when the supervisor is
    built: :func:`~repro.obs.runtime.init_worker` runs before
    ``initializer`` and forwards their events to its queue.  A
    ``per_job`` pool serves jobs of any sink instead: it owns its
    :attr:`queue`, a task forwards to it only if its job is traced, and
    :meth:`drain` folds it into whichever sink the driver has installed.
    """

    def __init__(self, ctx, processes: int, initializer=None, initargs: tuple = (),
                 *, per_job: bool = False):
        self._ctx = ctx
        self.processes = processes
        if per_job:
            self.sink = None
            self.queue = ctx.SimpleQueue()
        else:
            #: The sink the workers forward to (drained while dispatching).
            self.sink = _trace.sink()
            self.queue = self.sink.worker_queue(ctx) if self.sink is not None else None
        self._initargs = (self.queue, per_job, initializer, initargs)
        self._pool = None
        self.respawns = 0

    @property
    def pool(self):
        if self._pool is None:
            self._pool = self._ctx.Pool(
                self.processes, initializer=init_worker, initargs=self._initargs
            )
        return self._pool

    def worker_pids(self) -> list[int]:
        """OS pids of the pool's live workers (builds the pool)."""
        return [p.pid for p in self.pool._pool if p.exitcode is None]

    def dead_workers(self) -> list[int]:
        """Exit codes of workers that died abnormally (best effort)."""
        procs = getattr(self._pool, "_pool", None) or []
        return [
            p.exitcode
            for p in procs
            if getattr(p, "exitcode", None) not in (None, 0)
        ]

    def drain(self) -> None:
        """Fold the workers' queued events into the sink: the one the
        pool was built under, or, for a ``per_job`` pool, the one the
        driver has installed now."""
        if self.sink is not None:
            self.sink.drain()
        elif self.queue is not None:
            sink = _trace.sink()
            if sink is not None:
                sink.drain(self.queue)

    def respawn(self, *, reason: str = "") -> None:
        """Terminate the pool and build a fresh one."""
        if self._pool is not None:
            dead = self.dead_workers()
            if dead:
                _trace.instant(FAULT_WORKER_DEATH, exitcodes=dead, reason=reason)
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self.respawns += 1
        _trace.instant(FAULT_RESPAWN, reason=reason)

    def close(self) -> None:
        if self._pool is not None:
            # terminate (not close/join): a wedged worker would block a
            # graceful close forever, and every completed result has
            # already been collected by run_tasks.
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "PoolSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def job_file(nbytes: int) -> int:
    """A new zero-filled ``memfd`` of ``nbytes`` for one job's arrays.

    Returns its fd, which the caller closes.  A task on a ``per_job``
    pool opens it with :func:`~repro.runtime.shmem.open_memfd` and maps
    it itself.
    """
    fd = new_memfd("job")
    try:
        os.ftruncate(fd, nbytes)
    except BaseException:
        os.close(fd)
        raise
    return fd


class SharedMapping:
    """The first ``nbytes`` of file ``fd``, mapped shared and writable.

    Mapped by libc's ``mmap``, so -- unlike :class:`mmap.mmap` before
    Python 3.13, which keeps a dup of the fd while it lives -- it holds
    no fd, and the caller may close ``fd`` at once.  ``numpy.asarray``
    reads it as a ``uint8`` array whose base it is; the pages are
    unmapped when the last array over them is freed.
    """

    _addr = None

    def __init__(self, fd: int, nbytes: int):
        addr = _libc_mmap(None, nbytes, mmap.PROT_READ | mmap.PROT_WRITE,
                          mmap.MAP_SHARED, fd, 0)
        if addr in (None, _MAP_FAILED):
            err = ctypes.get_errno()
            raise ReproError(f"cannot map {nbytes} bytes of fd {fd}: {os.strerror(err)}")
        self._addr, self._nbytes = addr, nbytes
        self.__array_interface__ = {
            "version": 3, "shape": (nbytes,), "typestr": "|u1", "data": (addr, False),
        }

    def __del__(self) -> None:
        if self._addr is not None:
            _libc_munmap(self._addr, self._nbytes)


def drop_inherited_memfds() -> None:
    """Pool worker initializer: let go of the memfds -- job files and
    wire files -- it inherited, open or mapped, from its parent.

    Fork copies every fd and mapping, so a worker forked while a job
    runs, while its results live or while a reply waits for its
    release, would otherwise keep their pages for as long as it lives.
    The fd numbers and address ranges stay taken -- by ``/dev/null``
    and by inaccessible anonymous memory -- because the inherited
    objects that own them may still be freed here, and would then close
    or unmap whatever took their place.
    """
    tag = MEMFD_TAG
    null = os.open(os.devnull, os.O_RDONLY)
    for name in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{name}").startswith(tag):
                os.dup2(null, int(name))
        except OSError:  # the listing's own fd, closed by now
            pass
    os.close(null)
    with open("/proc/self/maps") as maps:
        spans = [line.split()[0] for line in maps if tag in line]
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | _MAP_FIXED
    for span in spans:
        lo, hi = (int(end, 16) for end in span.split("-"))
        # A failed remap leaves the mapping, which then only holds its
        # pages longer; raising would kill every new worker.
        _libc_mmap(lo, hi - lo, 0, flags, -1, 0)


def _job_pool(processes: int) -> PoolSupervisor:
    return PoolSupervisor(_pool_context(), processes, drop_inherited_memfds, per_job=True)


#: The process's warm ``per_job`` pool (see :func:`borrow_pool`), whether
#: a job holds it, and the lock over both.
_warm: PoolSupervisor | None = None
_warm_held = False
_warm_lock = threading.Lock()


def borrow_pool(processes: int) -> PoolSupervisor:
    """A ``per_job`` pool of ``processes`` workers, for one job.

    The process keeps one warm pool, so its jobs fork their workers
    once: a job gets it unless another job holds it, after it is
    replaced if it has another worker count.  A job that finds it held
    gets a private pool of the same construction.  Either pool forks at
    its first dispatch, and its workers start by dropping the job files
    they inherit; give it back with :func:`return_pool`.
    """
    global _warm, _warm_held
    stale = None
    with _warm_lock:
        if _warm_held:
            return _job_pool(processes)
        if _warm is not None and _warm.processes != processes:
            stale, _warm = _warm, None
        if _warm is None:
            _warm = _job_pool(processes)
        _warm_held = True
        supervisor = _warm
    if stale is not None:
        stale.close()
    return supervisor


def return_pool(supervisor: PoolSupervisor, *, warm: bool) -> None:
    """Give back a pool from :func:`borrow_pool`.

    The warm pool stays warm for the next job if ``warm``; otherwise --
    its job's dispatch raised, so a straggling task may still run -- it
    is closed and the next job builds a new one.  A private pool is
    closed.
    """
    global _warm, _warm_held
    with _warm_lock:
        if supervisor is _warm:
            _warm_held = False
            if warm:
                return
            _warm = None
    supervisor.close()


def _close_warm_pool() -> None:
    global _warm
    with _warm_lock:
        supervisor, _warm = _warm, None
    if supervisor is not None:
        supervisor.close()


#: Warm pools a forked child inherited (see :func:`_forget_warm_pool`).
_inherited: list[PoolSupervisor] = []


def _forget_warm_pool() -> None:
    # A forked child inherits the slot but neither the pool's workers nor
    # its threads, and maybe the lock held by another thread.  The pool
    # stays referenced, unused: collecting it would signal the parent's
    # pool through a lock that a sibling killed mid-fork may still hold.
    global _warm, _warm_held, _warm_lock
    if _warm is not None:
        _inherited.append(_warm)
    _warm, _warm_held, _warm_lock = None, False, threading.Lock()


atexit.register(_close_warm_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_warm_pool)


def run_tasks(
    supervisor: PoolSupervisor,
    fn,
    payloads,
    *,
    site: str,
    timeout: float | None = None,
    max_retries: int | None = None,
    backoff_s: float = 0.05,
):
    """Run ``fn((payload, attempt))`` for each payload; return results in order.

    The deadline-aware replacement for ``pool.map``: same barrier
    semantics (returns only when every task has a result), but a lost
    or wedged attempt is detected within ``timeout`` seconds, the pool
    respawned, and the attempt retried with exponential backoff
    (``backoff_s * 2**attempt``) up to ``max_retries`` extra attempts.

    The whole dispatch (including retries and respawns) is one
    ``dispatch:<site>`` span -- a child of the caller's trace context
    when one is active, its ``tasks`` argument the number of payloads
    -- and while it waits the driver drains the workers' events
    (:meth:`PoolSupervisor.drain`), so chatty workers never block on a
    full pipe; it drains once more before it returns or raises.

    Raises :class:`~repro.utils.errors.TaskTimeoutError` when a task
    misses its deadline with no budget left (after respawning the
    pool, whose worker may still run it), and
    :class:`~repro.utils.errors.RecoveryExhaustedError` when a
    retryable exception persists -- naming the exception's own fault
    site when it has one, else ``site``; any non-retryable task
    exception propagates unwrapped at once.
    """
    timeout = resolve_timeout(timeout)
    retries = resolve_retries(max_retries)
    payloads = list(payloads)
    with _trace.traced_span(f"dispatch:{site}", cat=CAT_ROUND, tasks=len(payloads)):
        try:
            return _run(supervisor, fn, payloads, site, timeout, retries, backoff_s)
        finally:
            supervisor.drain()


def _run(supervisor, fn, payloads, site, timeout, retries, backoff_s):
    n = len(payloads)
    results = [None] * n
    pending: dict[int, tuple] = {}  # idx -> (AsyncResult, deadline, attempt)
    n_retries = n_timeouts = 0

    def dispatch(idx: int, attempt: int) -> None:
        res = supervisor.pool.apply_async(fn, ((payloads[idx], attempt),))
        pending[idx] = (res, time.monotonic() + timeout, attempt)

    def backoff(attempt: int) -> None:
        time.sleep(backoff_s * (2**attempt))

    for idx in range(n):
        dispatch(idx, 0)

    while pending:
        for idx in list(pending):
            res, _deadline, attempt = pending[idx]
            if not res.ready():
                continue
            del pending[idx]
            try:
                results[idx] = res.get()
            except RETRYABLE as exc:
                if attempt >= retries:
                    _trace.instant(FAULT_GIVEUP, site=site, task=idx, attempt=attempt)
                    _note_counts(site, n_retries, n_timeouts)
                    raise RecoveryExhaustedError(
                        f"{site} task {idx} still failing after "
                        f"{attempt + 1} attempts: {exc}",
                        site=exc.site or site,
                    ) from exc
                n_retries += 1
                _trace.instant(
                    FAULT_RETRY, site=site, task=idx,
                    attempt=attempt, error=type(exc).__name__,
                )
                backoff(attempt)
                dispatch(idx, attempt + 1)
            # non-retryable exceptions propagate: they are real bugs,
            # and masking them behind retries would hide miscounts.

        if not pending:
            break
        now = time.monotonic()
        expired = {idx for idx, (_r, dl, _a) in pending.items() if now >= dl}
        if expired:
            n_timeouts += len(expired)
            for idx in sorted(expired):
                _trace.instant(
                    FAULT_TIMEOUT, site=site, task=idx,
                    attempt=pending[idx][2], timeout_s=timeout,
                )
            exhausted = sorted(
                idx for idx in expired if pending[idx][2] >= retries
            )
            if exhausted:
                _trace.instant(
                    FAULT_GIVEUP, site=site, tasks=exhausted,
                    attempt=pending[exhausted[0]][2],
                )
                _note_counts(site, n_retries, n_timeouts)
                # A worker still runs the hung task: respawn, so the
                # pool's next dispatch does not queue behind it.
                supervisor.respawn(reason=f"{site} deadline")
                raise TaskTimeoutError(
                    f"{site} task(s) {exhausted} missed the {timeout:g}s deadline "
                    f"on every allowed attempt "
                    f"({pending[exhausted[0]][2] + 1} of {retries + 1})",
                    site=site,
                )
            # The pool lost or wedged at least one worker; nothing it
            # still holds can be trusted, so respawn and re-dispatch
            # every pending attempt (expired ones count a retry and
            # back off; collateral ones keep their attempt number, so
            # deterministic injection decisions are unaffected).
            survivors = {idx: a for idx, (_r, _d, a) in pending.items()}
            pending.clear()
            supervisor.respawn(reason=f"{site} deadline")
            min_attempt = min(survivors[idx] for idx in expired)
            backoff(min_attempt)
            for idx, attempt in sorted(survivors.items()):
                if idx in expired:
                    n_retries += 1
                    _trace.instant(
                        FAULT_RETRY, site=site, task=idx,
                        attempt=attempt, error="TaskTimeout",
                    )
                    dispatch(idx, attempt + 1)
                else:
                    dispatch(idx, attempt)
        else:
            supervisor.drain()
            next_dl = min(dl for _r, dl, _a in pending.values())
            step = min(max(next_dl - time.monotonic(), 0.0), _POLL_S)
            # Wait on an arbitrary pending result; the bounded step
            # keeps deadline checks prompt even if that one is hung.
            next(iter(pending.values()))[0].wait(step)

    _note_counts(site, n_retries, n_timeouts)
    return results


def _note_counts(site: str, n_retries: int, n_timeouts: int) -> None:
    if n_retries:
        _trace.count(f"{FAULT_RETRY}:{site}", n_retries)
    if n_timeouts:
        _trace.count(f"{FAULT_TIMEOUT}:{site}", n_timeouts)
