"""The one emit API: spans, instants and counts, plus request tracing.

Everything the wall-clock runtime records goes through this module to
the process's one installed *sink*: the driver's
:class:`~repro.obs.runtime.WallRecorder`, or, in a pool worker, a sink
that forwards to that recorder's queue.  With no sink installed every
emit is a no-op, so untraced hot paths pay one ``is None`` check.

* :func:`install` installs a sink for a scope (:func:`set_sink` for
  callers whose lifetime is not one block, such as a service between
  ``start`` and ``stop``);
* :func:`traced_span` times a block, :func:`record_span` records an
  interval that already ended, :func:`instant` and :func:`count` record
  point events and counter samples.

A *trace* is one request's journey through the service tier: the client
mints a :class:`TraceContext` (``trace_id``/``span_id``/``parent_id``),
ships it in the ndjson wire envelope, and every layer that does work on
the request's behalf records a span carrying the context's ids -- so a
single request yields one connected span tree even though its spans are
produced by the socket handler, the batcher coroutine, a pool worker in
another process, and the kernel underneath it.

Propagation has two legs:

* **In-process** the current context lives in a :mod:`contextvars`
  variable: :func:`activate` installs a context for a scope,
  :func:`current` reads it, and :func:`traced_span` records a child of
  it (trace ids, parentage and the request's lane) and makes that
  child current inside the block.  asyncio tasks inherit contextvars,
  so the context follows a request through ``await`` boundaries.
* **Cross-process** the context rides the task payload (the wire form
  of :meth:`TraceContext.to_wire`); the worker re-activates it, and
  worker spans flow back through the recorder's queue with the trace
  ids in their ``args`` -- the ids, not the contextvar, are what cross
  the process boundary.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import random
import time
from dataclasses import dataclass
from typing import Iterator

from repro.obs.events import CAT_TASK
from repro.utils.errors import ValidationError

#: Hex-digit lengths of the wire ids (128-bit trace, 64-bit span).
TRACE_ID_HEX = 32
SPAN_ID_HEX = 16

_HEX = set("0123456789abcdef")

#: Id source: a dedicated urandom-seeded PRNG.  Trace ids need to be
#: collision-resistant, not unpredictable, and ``getrandbits`` is a
#: single C call -- an order of magnitude cheaper than ``secrets`` on
#: the per-request mint path (and what OpenTelemetry SDKs do too).
#: Forked pool workers would inherit the parent's PRNG state and mint
#: colliding span ids, so the child reseeds from the OS.
_IDS = random.Random()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_IDS.seed)


def _check_id(field: str, value: str, length: int) -> str:
    if (
        not isinstance(value, str)
        or len(value) != length
        or not set(value) <= _HEX
    ):
        raise ValidationError(
            f"trace context {field!r} must be {length} lowercase hex digits"
        )
    return value


@dataclass(frozen=True)
class TraceContext:
    """One node of a request's span tree, in OpenTelemetry-style ids.

    ``trace_id`` names the whole tree, ``span_id`` this node, and
    ``parent_id`` the node that caused it (``None`` at the root).
    Contexts are immutable; descending a level goes through
    :meth:`child`, which keeps the trace id and re-parents.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None

    @classmethod
    def mint(cls) -> "TraceContext":
        """A fresh root context with random ids."""
        return cls(
            trace_id=f"{_IDS.getrandbits(128):032x}",
            span_id=f"{_IDS.getrandbits(64):016x}",
        )

    def child(self) -> "TraceContext":
        """A child context: same trace, new span, parented here."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=f"{_IDS.getrandbits(64):016x}",
            parent_id=self.span_id,
        )

    def to_wire(self) -> dict:
        """The JSON-encodable wire form carried in the request envelope."""
        out = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        return out

    @classmethod
    def from_wire(cls, obj) -> "TraceContext":
        """Parse and validate a wire-form context; raises on junk."""
        if not isinstance(obj, dict):
            raise ValidationError("'trace' must be an object")
        unknown = set(obj) - {"trace_id", "span_id", "parent_id"}
        if unknown:
            raise ValidationError(
                f"unknown trace context field(s): {sorted(unknown)}"
            )
        trace_id = _check_id("trace_id", obj.get("trace_id"), TRACE_ID_HEX)
        span_id = _check_id("span_id", obj.get("span_id"), SPAN_ID_HEX)
        parent = obj.get("parent_id")
        if parent is not None:
            parent = _check_id("parent_id", parent, SPAN_ID_HEX)
        return cls(trace_id=trace_id, span_id=span_id, parent_id=parent)

    def span_args(self) -> dict:
        """The ids as span ``args`` (what exporters and viewers see)."""
        out = {"trace": self.trace_id, "span": self.span_id}
        if self.parent_id is not None:
            out["parent"] = self.parent_id
        return out

    @property
    def lane(self) -> str:
        """The per-request timeline lane this trace's spans render on."""
        return f"req:{self.trace_id[:8]}"


# -- in-process propagation ---------------------------------------------------

_CURRENT: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_context", default=None
)


def current() -> TraceContext | None:
    """The active trace context of this task/thread, if any."""
    return _CURRENT.get()


@contextlib.contextmanager
def activate(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Install ``ctx`` as the current context for the scope."""
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)


def trace_args() -> dict:
    """The current context's span args, or ``{}`` when untraced."""
    ctx = _CURRENT.get()
    return ctx.span_args() if ctx is not None else {}


# -- the sink and the emit API -------------------------------------------------

#: The process's installed sink; see :func:`set_sink`.
_SINK = None


def sink():
    """The installed sink, or ``None`` when nothing records."""
    return _SINK


def set_sink(new):
    """Install ``new`` as the process-wide sink; returns the previous one.

    A sink receives ``record_span(name, lane, t0, t1, cat, args)``,
    ``record_instant(name, t, args)`` and ``record_count(name, value,
    t)`` with ``perf_counter`` times; ``lane`` is ``None`` for the
    sink's own lane.  It also hands pool workers their queue
    (``worker_queue(ctx)``) and folds queued worker events into its log
    (``drain()``, or ``drain(queue)`` for a queue a pool owns).  ``None``
    uninstalls.
    """
    global _SINK
    previous, _SINK = _SINK, new
    return previous


@contextlib.contextmanager
def install(new) -> Iterator[None]:
    """Install ``new`` as the sink for the scope, then restore the previous one.

    ``None`` leaves the installed sink in place, so a call that was
    handed no recorder still records into an enclosing one.
    """
    if new is None:
        yield
        return
    previous = set_sink(new)
    try:
        yield
    finally:
        set_sink(previous)


def record_span(name: str, t0: float, t1: float, *, cat: str = CAT_TASK,
                ctx: TraceContext | None = None, **args) -> None:
    """Record the finished interval ``[t0, t1]`` (``perf_counter`` seconds).

    With ``ctx`` the span *is* that context: it carries its ids and
    renders on its request lane; without, it lands on the sink's lane.
    """
    target = _SINK
    if target is None:
        return
    if ctx is None:
        target.record_span(name, None, t0, t1, cat, args)
    else:
        target.record_span(name, ctx.lane, t0, t1, cat, {**ctx.span_args(), **args})


#: What :func:`traced_span` returns when nothing records.
_UNTRACED = contextlib.nullcontext()


def traced_span(name: str, *, cat: str = CAT_TASK, **args):
    """A context manager recording the block as one span.

    Records whenever a sink is installed.  When a context is active the
    span is a fresh child of it, current inside the block (so nested
    calls chain parentage) and yielded; otherwise it has no ids and the
    block sees ``None``.  With no sink the block runs bare.
    """
    if _SINK is None:
        return _UNTRACED
    return _recorded(name, cat, args)


@contextlib.contextmanager
def _recorded(name: str, cat: str, args: dict) -> Iterator[TraceContext | None]:
    parent = _CURRENT.get()
    child = parent.child() if parent is not None else None
    token = _CURRENT.set(child)
    t0 = time.perf_counter()
    try:
        yield child
    finally:
        t1 = time.perf_counter()
        _CURRENT.reset(token)
        record_span(name, t0, t1, cat=cat, ctx=child, **args)


def instant(name: str, **args) -> None:
    """Record a point event (fault, retry, shed, ...) on the sink's lane."""
    target = _SINK
    if target is not None:
        target.record_instant(name, time.perf_counter(), args)


def count(name: str, value: float) -> None:
    """Record one counter sample at the current time."""
    target = _SINK
    if target is not None:
        target.record_count(name, value, time.perf_counter())
