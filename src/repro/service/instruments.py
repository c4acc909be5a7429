"""The service tier's metric catalog, bound to one MetricsRegistry.

Every metric the serving layers emit is declared here -- one place for
names, help strings, units, and label sets -- so the Prometheus
exposition, the JSON time-series, ``docs/OBSERVABILITY.md``, and the
tests cannot drift apart.  The layers (:class:`~repro.service.server.
BatchService`, :class:`~repro.service.admission.AdmissionQueue`,
:class:`~repro.service.batcher.MicroBatcher`,
:class:`~repro.service.cache.ResultCache`, the socket front-end)
hold a :class:`ServiceInstruments` and call its typed methods; none of
them spells a metric name inline.  The registry is also the only store
of the service's event counts: the ``stats`` snapshot reads its counts
back from these families (``docs/SERVICE.md`` maps each key to one).

Label cardinality is bounded by construction: the only labels are the
op name (clamped to the known :data:`~repro.service.ops.OPS` plus
``"other"`` for rejected ops) and the error type name (always one of
the typed :mod:`repro.utils.errors` classes by the time it reaches the
counter).
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry
from repro.service.ops import OPS

#: Latency histograms (seconds) -- one per instrumented segment.
M_REQUEST_LATENCY = "repro_request_latency_seconds"
M_QUEUE_WAIT = "repro_queue_wait_seconds"
M_BATCH_ASSEMBLY = "repro_batch_assembly_seconds"
M_EXEC = "repro_exec_seconds"
M_CACHE_LOOKUP = "repro_cache_lookup_seconds"
M_DECODE = "repro_decode_seconds"
M_ENCODE = "repro_encode_seconds"

#: Size distribution of dispatched batches (requests per batch).
M_BATCH_SIZE = "repro_batch_size"

#: Counters.
M_REQUESTS = "repro_requests_total"
M_COMPLETED = "repro_requests_completed_total"
M_ERRORS = "repro_request_errors_total"
M_ADMITTED = "repro_requests_admitted_total"
M_CACHE_HITS = "repro_cache_hits_total"
M_CACHE_MISSES = "repro_cache_misses_total"
M_CACHE_EVICTIONS = "repro_cache_evictions_total"
M_CACHE_UNCACHEABLE = "repro_cache_uncacheable_total"
M_COALESCED = "repro_requests_coalesced_total"
M_SHED = "repro_requests_shed_total"
M_EXPIRED = "repro_requests_expired_total"
M_DEGRADED = "repro_batches_degraded_total"

#: Gauges.
M_QUEUE_DEPTH = "repro_queue_depth"
M_INFLIGHT = "repro_inflight_requests"
M_CACHE_ENTRIES = "repro_cache_entries"
M_CACHE_BYTES = "repro_cache_bytes"


#: Wire-mode label values for the front-end decode/encode histograms.
WIRE_LABELS = ("ndjson", "shmem")


def op_label(op) -> str:
    """Clamp an op name to a bounded label value."""
    return op if op in OPS else "other"


def wire_label(wire) -> str:
    """Clamp a wire mode to a bounded label value."""
    return wire if wire in WIRE_LABELS else "ndjson"


class ServiceInstruments:
    """Typed emit methods over the shared registry; one per service.

    Instrument handles are resolved **once** here and cached: the label
    space is bounded by construction (the clamped op set), so the hot
    request path touches a plain dict/attribute instead of paying the
    registry's name validation and family lookup per event.  Only the
    error counter (labelled by exception type, cold path) still goes
    through the registry at emit time.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        ops = (*OPS, "other")
        # Touch the un-labelled families once so an idle service still
        # exposes them (scrapers see the catalog, not just past traffic).
        self._queue_wait = registry.histogram(
            M_QUEUE_WAIT, "Admission-to-batch queue wait", unit="seconds")
        self._batch_assembly = registry.histogram(
            M_BATCH_ASSEMBLY, "Window open to flush per dispatched batch",
            unit="seconds")
        self._cache_lookup = registry.histogram(
            M_CACHE_LOOKUP, "Result-cache lookup time", unit="seconds")
        self._batch_size = registry.histogram(
            M_BATCH_SIZE, "Requests coalesced per dispatch")
        self._queue_depth = registry.gauge(
            M_QUEUE_DEPTH, "Requests admitted but not yet batched")
        self._inflight = registry.gauge(
            M_INFLIGHT, "Requests inside submit() right now")
        self._requests = {
            op: registry.counter(M_REQUESTS, "Requests received",
                                 labels={"op": op})
            for op in ops
        }
        self._completed = {
            op: registry.counter(M_COMPLETED, "Requests answered with a result",
                                 labels={"op": op})
            for op in ops
        }
        self._admitted = registry.counter(
            M_ADMITTED, "Requests admitted to the queue")
        self._latency = {
            op: registry.histogram(M_REQUEST_LATENCY,
                                   "End-to-end submit latency",
                                   unit="seconds", labels={"op": op})
            for op in ops
        }
        self._exec = {
            op: registry.histogram(M_EXEC, "Pool dispatch time per batch",
                                   unit="seconds", labels={"op": op})
            for op in ops
        }
        self._cache_hits = registry.counter(M_CACHE_HITS, "Result-cache hits")
        self._cache_misses = registry.counter(
            M_CACHE_MISSES, "Result-cache misses")
        self._cache_evictions = registry.counter(
            M_CACHE_EVICTIONS, "LRU evictions")
        self._cache_uncacheable = registry.counter(
            M_CACHE_UNCACHEABLE, "Results refused as larger than the cache")
        self._cache_entries = registry.gauge(M_CACHE_ENTRIES, "Cached results")
        self._cache_bytes = registry.gauge(
            M_CACHE_BYTES, "Cached result bytes", unit="bytes")
        self._coalesced = registry.counter(
            M_COALESCED, "Requests coalesced onto an in-flight twin")
        # Decode/encode are split by wire mode, so the shmem-vs-ndjson
        # comparison the zero-copy plane exists for is readable straight
        # off the exposition instead of needing a benchmark run.
        self._decode = {
            w: registry.histogram(M_DECODE, "Wire image decode time",
                                  unit="seconds", labels={"wire": w})
            for w in WIRE_LABELS
        }
        self._encode = {
            w: registry.histogram(M_ENCODE, "Wire result encode time",
                                  unit="seconds", labels={"wire": w})
            for w in WIRE_LABELS
        }

    # -- request lifecycle -------------------------------------------------

    def request_started(self, op) -> None:
        self._requests[op_label(op)].inc()
        self._inflight.inc()

    def request_finished(self, op, seconds: float) -> None:
        self._inflight.dec()
        self._latency[op_label(op)].observe(seconds)

    def request_completed(self, op) -> None:
        self._completed[op_label(op)].inc()

    def request_error(self, op, exc: BaseException) -> None:
        self.registry.counter(
            M_ERRORS, "Requests failed, by error type",
            labels={"op": op_label(op), "type": type(exc).__name__},
        ).inc()

    # -- cache / coalescing ------------------------------------------------

    def cache_lookup(self, seconds: float) -> None:
        self._cache_lookup.observe(seconds)

    def cache_hit(self) -> None:
        self._cache_hits.inc()

    def cache_miss(self) -> None:
        self._cache_misses.inc()

    def cache_evicted(self) -> None:
        self._cache_evictions.inc()

    def cache_uncacheable(self) -> None:
        self._cache_uncacheable.inc()

    def cache_size(self, entries: int, total_bytes: int) -> None:
        self._cache_entries.set(entries)
        self._cache_bytes.set(total_bytes)

    def coalesced(self) -> None:
        self._coalesced.inc()

    # -- admission / batching ----------------------------------------------

    def admitted(self, depth: int) -> None:
        self._admitted.inc()
        self._queue_depth.set(depth)

    def shed(self) -> None:
        self.registry.counter(M_SHED, "Requests shed at admission").inc()

    def expired(self) -> None:
        self.registry.counter(M_EXPIRED, "Requests expired in queue").inc()

    def queue_depth(self, depth: int) -> None:
        self._queue_depth.set(depth)

    def queue_wait(self, seconds: float) -> None:
        self._queue_wait.observe(seconds)

    def batch_flushed(self, size: int, assembly_seconds: float) -> None:
        self._batch_size.observe(size)
        self._batch_assembly.observe(assembly_seconds)

    def exec_done(self, op, seconds: float) -> None:
        self._exec[op_label(op)].observe(seconds)

    def degraded(self) -> None:
        self.registry.counter(M_DEGRADED,
                              "Batches degraded to serial execution").inc()

    # -- wire front-end ----------------------------------------------------

    def decode(self, seconds: float, *, wire: str = "ndjson") -> None:
        self._decode[wire_label(wire)].observe(seconds)

    def encode(self, seconds: float, *, wire: str = "ndjson") -> None:
        self._encode[wire_label(wire)].observe(seconds)

    # -- reading back ------------------------------------------------------

    def latency_summary(self) -> dict:
        """Per-op end-to-end latency quantiles for ``stats`` snapshots."""
        family = self.registry.family(M_REQUEST_LATENCY)
        if family is None:
            return {}
        out = {}
        for values, hist in sorted(family.children.items()):
            if hist.count == 0:
                continue  # pre-registered op never driven; keep summaries lean
            label = values[0] if values else ""
            out[label] = {
                "count": hist.count,
                "p50_ms": hist.quantile(0.50) * 1e3,
                "p95_ms": hist.quantile(0.95) * 1e3,
                "p99_ms": hist.quantile(0.99) * 1e3,
            }
        return out
