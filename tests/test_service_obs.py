"""End-to-end tests for the service tier's observability plane.

The tentpole contract: one request through the service yields one
*connected* span tree -- request, queue wait, batch, dispatch, worker
task, kernel -- even though those spans are produced by three different
layers and two different processes.  Plus the metrics plane around it:
instrument counts, the Prometheus ``metrics`` control op, the ``trace``
control op, the v2 stats schema, and the ``repro top`` / ``repro trace
--follow`` CLI views over a live socket.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.images import darpa_like
from repro.obs import (
    CLIENT_REQUEST,
    SVC_BATCH,
    SVC_QUEUE_SPAN,
    SVC_REQUEST,
    TraceContext,
    WallRecorder,
    chrome_trace,
    parse_prometheus_text,
    validate_chrome_trace,
)
from repro.service import (
    BatchService,
    ServiceConfig,
    ServiceInstruments,
    ServiceServer,
    encode_array,
    request_over_socket,
)
from repro.utils.errors import (
    ServiceOverloadError,
    TaskTimeoutError,
    ValidationError,
)

def spans_of_trace(log, trace_id):
    return [s for s in log.spans if s.args.get("trace") == trace_id]


def assert_connected(spans):
    """Every span except the root parents onto another span in the set."""
    by_id = {s.args["span"]: s for s in spans}
    roots = []
    for s in spans:
        parent = s.args.get("parent")
        if parent is None or parent not in by_id:
            roots.append(s)
    assert len(roots) == 1, (
        f"expected one root, got {[(s.name, s.args.get('parent')) for s in roots]}"
    )
    return roots[0]


class TestServiceSpanTree:
    def test_one_request_yields_one_connected_tree(self):
        recorder = WallRecorder(source="test-svc")
        service = BatchService(ServiceConfig(workers=2), recorder=recorder)

        async def scenario():
            await service.start()
            try:
                image = darpa_like(32, 256, seed=5)
                await service.submit("components", image, connectivity=8)
            finally:
                await service.stop()

        asyncio.run(scenario())
        recorder.drain()
        traces = {s.args["trace"] for s in recorder.log.spans
                  if s.args.get("trace")}
        assert len(traces) == 1
        spans = spans_of_trace(recorder.log, traces.pop())
        names = {s.name for s in spans}
        assert SVC_REQUEST in names
        assert SVC_QUEUE_SPAN in names
        assert SVC_BATCH in names
        assert "dispatch:svc:exec" in names
        assert "svc:components[0]" in names
        assert "kernel:tile_label" in names
        root = assert_connected(spans)
        assert root.name == SVC_REQUEST
        # worker spans crossed the process boundary onto an OS-pid lane
        worker = next(s for s in spans if s.name == "svc:components[0]")
        assert isinstance(worker.lane, int)
        # the export is a valid, nesting-clean Chrome trace
        validate_chrome_trace(chrome_trace(recorder.log))

    def test_coalesced_request_links_to_lead_span(self):
        recorder = WallRecorder(source="test-svc")
        service = BatchService(
            ServiceConfig(workers=2, max_delay_s=0.05), recorder=recorder
        )

        async def scenario():
            await service.start()
            try:
                image = darpa_like(32, 256, seed=6)
                await asyncio.gather(
                    service.submit("histogram", image, k=256),
                    service.submit("histogram", image, k=256),
                )
            finally:
                await service.stop()

        asyncio.run(scenario())
        recorder.drain()
        spans = [s for s in recorder.log.spans if s.args.get("trace")]
        requests = [s for s in spans if s.name == SVC_REQUEST]
        assert len(requests) == 2
        coalesced = [s for s in requests if s.args.get("coalesced_onto")]
        assert len(coalesced) == 1
        lead = next(s for s in requests if s is not coalesced[0])
        assert coalesced[0].args["coalesced_onto"] == lead.args["span"]
        batch = next(s for s in spans if s.name == SVC_BATCH)
        assert lead.args["span"] in batch.args["links"]

    def test_untraced_service_records_nothing(self):
        service = BatchService(ServiceConfig(workers=2))

        async def scenario():
            await service.start()
            try:
                await service.submit(
                    "histogram", darpa_like(16, 256, seed=7), k=256
                )
            finally:
                await service.stop()

        asyncio.run(scenario())
        assert service.recorder is None


class TestSnapshotV2:
    def run_requests(self):
        service = BatchService(ServiceConfig(workers=2))

        async def scenario():
            await service.start()
            try:
                image = darpa_like(24, 256, seed=8)
                await service.submit("histogram", image, k=256)
                await service.submit("histogram", image, k=256)  # cache hit
            finally:
                await service.stop()

        asyncio.run(scenario())
        return service

    def test_schema_hit_rate_and_highwater(self):
        snap = self.run_requests().snapshot()
        assert snap["schema"] == "repro-service-stats/v3"
        assert "kernel" not in snap["config"]
        assert snap["cache"]["hit_rate"] == pytest.approx(0.5)
        assert snap["admission"]["depth_highwater"] >= 1

    def test_latency_quantiles_present(self):
        snap = self.run_requests().snapshot()
        lat = snap["latency"]["histogram"]
        assert lat["count"] == 2
        assert 0 < lat["p50_ms"] <= lat["p95_ms"] <= lat["p99_ms"]


def sample_totals(text: str) -> dict[str, float]:
    """Each sample name of an exposition summed over its label sets."""
    totals: dict[str, float] = {}
    for family in parse_prometheus_text(text).values():
        for sample in family["samples"]:
            totals[sample["name"]] = totals.get(sample["name"], 0) + sample["value"]
    return totals


#: ``stats`` (section, key) -> the exposition sample it must equal.
STATS_FAMILIES = {
    ("service", "requests"): "repro_requests_total",
    ("service", "completed"): "repro_requests_completed_total",
    ("service", "errors"): "repro_request_errors_total",
    ("service", "coalesced"): "repro_requests_coalesced_total",
    ("admission", "admitted"): "repro_requests_admitted_total",
    ("admission", "shed"): "repro_requests_shed_total",
    ("admission", "expired"): "repro_requests_expired_total",
    ("batcher", "batches"): "repro_batch_size_count",
    ("batcher", "requests"): "repro_batch_size_sum",
    ("batcher", "expired"): "repro_requests_expired_total",
    ("executor", "batches"): "repro_batch_size_count",
    ("executor", "tasks"): "repro_batch_size_sum",
    ("executor", "degraded"): "repro_batches_degraded_total",
    ("cache", "hits"): "repro_cache_hits_total",
    ("cache", "misses"): "repro_cache_misses_total",
    ("cache", "evictions"): "repro_cache_evictions_total",
    ("cache", "uncacheable"): "repro_cache_uncacheable_total",
}


class TestStatsReadTheRegistry:
    """``stats`` and ``metrics`` are one store read two ways, so they
    cannot disagree about any count."""

    def test_queue_expiry_reaches_admission_stats_and_top(self, capsys):
        from repro.drills import _render_top

        service = BatchService(ServiceConfig(workers=1, timeout_s=0.01))

        async def scenario():
            await service.start()
            try:
                task = asyncio.ensure_future(
                    service.submit("histogram", darpa_like(16, 256, seed=3), k=256)
                )
                await asyncio.sleep(0)  # admitted; the batcher wakes after us
                time.sleep(0.05)  # the deadline passes while it is queued
                with pytest.raises(TaskTimeoutError):
                    await task
            finally:
                await service.stop()

        asyncio.run(scenario())
        snap = service.snapshot()
        assert snap["admission"]["expired"] == 1
        assert snap["batcher"]["expired"] == 1
        assert snap["batcher"]["batches"] == 0  # never dispatched
        families = parse_prometheus_text(service.metrics.prometheus_text())
        _render_top(snap, families, clear=False)
        assert "expired 1" in capsys.readouterr().out

    def test_counts_balance_and_equal_their_families(self):
        service = BatchService(ServiceConfig(workers=1, queue_depth=1))
        image = darpa_like(16, 256, seed=21)

        async def scenario():
            await service.start()
            try:
                # All four reach the queue before the batcher runs: the
                # first fills it (depth 1), its twin coalesces, a distinct
                # image is shed, and a float64 image is rejected.
                return await asyncio.gather(
                    service.submit("histogram", image, k=256),
                    service.submit("histogram", image, k=256),
                    service.submit("histogram", darpa_like(24, 256, seed=22), k=256),
                    service.submit("histogram", image.astype(np.float64), k=256),
                    return_exceptions=True,
                )
            finally:
                await service.stop()

        ok, twin, shed, rejected = asyncio.run(scenario())
        assert np.array_equal(ok, twin)
        assert isinstance(shed, ServiceOverloadError)
        assert isinstance(rejected, ValidationError)
        snap = service.snapshot()
        svc = snap["service"]
        assert (svc["requests"], svc["completed"], svc["errors"]) == (4, 2, 2)
        assert svc["requests"] == svc["completed"] + svc["errors"] + svc["open_requests"]
        assert svc["coalesced"] == 1 and snap["admission"]["shed"] == 1
        totals = sample_totals(service.metrics.prometheus_text())
        for (section, key), sample in STATS_FAMILIES.items():
            assert snap[section][key] == totals.get(sample, 0), (section, key)

    def test_cache_counts_equal_their_families(self):
        # One entry of at most 4 KiB: a 256-bin histogram (2 KiB) fits,
        # a 32x32 label map (8 KiB) does not.
        service = BatchService(
            ServiceConfig(workers=1, cache_entries=1, cache_bytes=4096)
        )
        a, b = darpa_like(24, 256, seed=31), darpa_like(24, 256, seed=32)

        async def scenario():
            await service.start()
            try:
                await service.submit("histogram", a, k=256)  # miss, stored
                await service.submit("histogram", a, k=256)  # hit
                await service.submit("histogram", b, k=256)  # miss, evicts a
                await service.submit("components", darpa_like(32, 256, seed=33))
            finally:
                await service.stop()

        asyncio.run(scenario())
        snap = service.snapshot()
        cache = snap["cache"]
        assert (cache["hits"], cache["misses"]) == (1, 3)
        assert (cache["evictions"], cache["uncacheable"]) == (1, 1)
        assert (cache["entries"], cache["bytes"]) == (1, 2048)
        totals = sample_totals(service.metrics.prometheus_text())
        for (section, key), sample in STATS_FAMILIES.items():
            assert snap[section][key] == totals.get(sample, 0), (section, key)
        assert totals["repro_cache_entries"] == 1
        assert totals["repro_cache_bytes"] == 2048


class TestInstruments:
    def test_request_lifecycle_counts(self):
        from repro.obs import MetricsRegistry
        from repro.service.instruments import M_ERRORS, M_INFLIGHT, M_REQUESTS

        reg = MetricsRegistry()
        ins = ServiceInstruments(reg)
        ins.request_started("histogram")
        assert reg.gauge(M_INFLIGHT).value == 1
        ins.request_finished("histogram", 0.01)
        assert reg.gauge(M_INFLIGHT).value == 0
        ins.request_error("histogram", ValueError("x"))
        assert reg.counter(M_REQUESTS, labels={"op": "histogram"}).value == 1
        fam = reg.family(M_ERRORS)
        assert sum(c.value for c in fam.children.values()) == 1

    def test_unknown_op_clamped_to_other(self):
        from repro.obs import MetricsRegistry
        from repro.service.instruments import M_REQUESTS, op_label

        assert op_label("histogram") == "histogram"
        assert op_label("__proto__") == "other"
        reg = MetricsRegistry()
        ins = ServiceInstruments(reg)
        ins.request_started("nonsense")
        assert reg.counter(M_REQUESTS, labels={"op": "other"}).value == 1

    def test_latency_summary_quantiles(self):
        from repro.obs import MetricsRegistry

        ins = ServiceInstruments(MetricsRegistry())
        for _ in range(20):
            ins.request_finished("histogram", 0.010)
        summary = ins.latency_summary()
        assert summary["histogram"]["count"] == 20
        assert summary["histogram"]["p50_ms"] == pytest.approx(10.0, rel=0.10)


class _LiveServer:
    """A socket server on its own thread, for CLI- and client-side tests."""

    def __init__(self, tmp_path, config=None, recorder=None):
        self.socket_path = str(tmp_path / "svc.sock")
        self.config = config or ServiceConfig(workers=2)
        self.recorder = recorder
        self.service = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self.service = BatchService(self.config, recorder=self.recorder)
            server = ServiceServer(self.service, self.socket_path)
            await server.start()
            self._ready.set()
            await server.serve_until_shutdown()

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=30), "server did not come up"
        return self

    def __exit__(self, *exc):
        self.ask({"op": "shutdown"})
        self._thread.join(timeout=30)

    def ask(self, obj, **kw):
        return asyncio.run(
            request_over_socket(self.socket_path, obj, **kw)
        )


class TestSocketObservability:
    def test_metrics_op_exposes_latency_histogram(self, tmp_path):
        with _LiveServer(tmp_path) as live:
            img = encode_array(darpa_like(24, 256, seed=9))
            reply = live.ask(
                {"op": "histogram", "image": img, "params": {"k": 256}}
            )
            assert reply["ok"]
            text = live.ask({"op": "metrics"})["result"]
            families = parse_prometheus_text(text)
            lat = families["repro_request_latency_seconds"]
            assert lat["type"] == "histogram"
            counts = [
                s for s in lat["samples"]
                if s["name"].endswith("_count")
                and s["labels"].get("op") == "histogram"
            ]
            assert counts and counts[0]["value"] >= 1

    def test_trace_id_echoed_and_client_context_honored(self, tmp_path):
        recorder = WallRecorder(source="test-serve")
        with _LiveServer(tmp_path, recorder=recorder) as live:
            ctx = TraceContext.mint()
            reply = live.ask(
                {"op": "components", "image": {"pattern": 3, "size": 24},
                 "trace": ctx.to_wire()},
            )
            assert reply["ok"]
            assert reply["trace_id"] == ctx.trace_id
            exported = live.ask({"op": "trace"})["result"]
            validate_chrome_trace(exported)
            mine = [
                e for e in exported["traceEvents"]
                if e.get("ph") == "X"
                and e.get("args", {}).get("trace") == ctx.trace_id
            ]
            names = {e["name"] for e in mine}
            assert CLIENT_REQUEST in names and SVC_REQUEST in names

    def test_minted_trace_id_when_client_sends_none(self, tmp_path):
        with _LiveServer(tmp_path) as live:
            reply = live.ask(
                {"op": "components", "image": {"pattern": 1, "size": 16}}
            )
            assert reply["ok"]
            assert len(reply["trace_id"]) == 32

    def test_trace_inside_params_rejected(self, tmp_path):
        with _LiveServer(tmp_path) as live:
            reply = live.ask(
                {"op": "components", "image": {"pattern": 1, "size": 16},
                 "params": {"trace": {"trace_id": "x"}}},
            )
            assert not reply["ok"]
            assert reply["error"]["type"] == "ValidationError"
            assert "top-level" in reply["error"]["message"]

    def test_trace_op_without_recorder_is_a_typed_error(self, tmp_path):
        with _LiveServer(tmp_path) as live:
            reply = live.ask({"op": "trace"})
            assert not reply["ok"]
            assert reply["error"]["type"] == "ValidationError"


class TestCliViews:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_top_renders_one_frame(self, tmp_path, capsys):
        with _LiveServer(tmp_path) as live:
            img = encode_array(darpa_like(24, 256, seed=10))
            req = {"op": "histogram", "image": img, "params": {"k": 256}}
            live.ask(req)
            live.ask(req)
            out = self.run_cli(
                capsys, "top", "--socket", live.socket_path,
                "--count", "1", "--no-clear",
            )
        assert "requests 2" in out
        assert "hit-rate 50.0%" in out
        assert "p99" in out and "histogram" in out

    def test_follow_prints_the_span_tree(self, tmp_path, capsys):
        recorder = WallRecorder(source="test-serve")
        with _LiveServer(tmp_path, recorder=recorder) as live:
            reply = live.ask(
                {"op": "components", "image": {"pattern": 2, "size": 24}}
            )
            out = self.run_cli(
                capsys, "trace", "--follow", reply["trace_id"][:8],
                "--socket", live.socket_path,
            )
        assert f"trace {reply['trace_id']}" in out
        for name in (CLIENT_REQUEST, SVC_REQUEST, "kernel:tile_label"):
            assert name in out

    def test_follow_unknown_id_errors_with_known_ids(self, tmp_path, capsys):
        from repro.cli import main

        recorder = WallRecorder(source="test-serve")
        with _LiveServer(tmp_path, recorder=recorder) as live:
            live.ask({"op": "components", "image": {"pattern": 1, "size": 16}})
            code = main(
                ["trace", "--follow", "feedfeed",
                 "--socket", live.socket_path]
            )
        err = capsys.readouterr().err
        assert code != 0
        assert "known trace(s)" in err


class TestWireTraceStamping:
    def test_compute_requests_are_stamped(self, tmp_path):
        with _LiveServer(tmp_path) as live:
            ctx = TraceContext.mint()
            reply = live.ask(
                {"op": "components", "image": {"pattern": 1, "size": 16}},
                trace=ctx,
            )
            assert reply["trace_id"] == ctx.trace_id

    def test_control_ops_are_not_stamped(self, tmp_path):
        with _LiveServer(tmp_path) as live:
            reply = live.ask({"op": "ping"}, trace=TraceContext.mint())
            assert reply["ok"] and "trace_id" not in reply


def test_numpy_results_survive_tracing(tmp_path):
    """Tracing must not perturb results: traced == untraced output."""
    image = darpa_like(32, 256, seed=11)

    def run(recorder):
        service = BatchService(ServiceConfig(workers=2), recorder=recorder)

        async def scenario():
            await service.start()
            try:
                return await service.submit("components", image, grey=True)
            finally:
                await service.stop()

        return asyncio.run(scenario())

    untraced = run(None)
    traced = run(WallRecorder(source="check"))
    assert np.array_equal(untraced, traced)
