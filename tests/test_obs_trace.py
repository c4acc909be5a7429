"""Tests for repro.obs.trace: contexts, propagation, and the sink."""

import pytest

from repro.obs import WallRecorder
from repro.obs import trace as trace_mod
from repro.obs.events import CAT_TASK
from repro.obs.trace import (
    SPAN_ID_HEX,
    TRACE_ID_HEX,
    TraceContext,
    activate,
    current,
    install,
    set_sink,
    trace_args,
    traced_span,
)
from repro.utils.errors import ValidationError


class TestTraceContext:
    def test_mint_shapes(self):
        ctx = TraceContext.mint()
        assert len(ctx.trace_id) == TRACE_ID_HEX
        assert len(ctx.span_id) == SPAN_ID_HEX
        assert ctx.parent_id is None

    def test_child_keeps_trace_reparents(self):
        root = TraceContext.mint()
        kid = root.child()
        assert kid.trace_id == root.trace_id
        assert kid.parent_id == root.span_id
        assert kid.span_id != root.span_id

    def test_wire_round_trip(self):
        ctx = TraceContext.mint().child()
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    def test_root_wire_omits_parent(self):
        assert "parent_id" not in TraceContext.mint().to_wire()

    @pytest.mark.parametrize(
        "wire",
        [
            "not-a-dict",
            {},
            {"trace_id": "short", "span_id": "0" * 16},
            {"trace_id": "0" * 32, "span_id": "0" * 16, "extra": 1},
            {"trace_id": "0" * 32, "span_id": "Z" * 16},
            {"trace_id": "0" * 32, "span_id": "0" * 16, "parent_id": "nope"},
        ],
    )
    def test_from_wire_rejects_junk(self, wire):
        with pytest.raises(ValidationError):
            TraceContext.from_wire(wire)

    def test_span_args_and_lane(self):
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8,
                           parent_id="ef" * 8)
        args = ctx.span_args()
        assert args == {"trace": "ab" * 16, "span": "cd" * 8,
                        "parent": "ef" * 8}
        assert ctx.lane == "req:abababab"


class TestPropagation:
    def test_activate_scopes_current(self):
        assert current() is None
        ctx = TraceContext.mint()
        with activate(ctx):
            assert current() is ctx
            assert trace_args() == ctx.span_args()
        assert current() is None
        assert trace_args() == {}

    def test_activate_none_is_a_clean_scope(self):
        outer = TraceContext.mint()
        with activate(outer):
            with activate(None):
                assert current() is None
            assert current() is outer

    def test_set_sink_returns_previous(self):
        sink = WallRecorder()
        assert set_sink(sink) is None
        assert set_sink(None) is sink


class TestTracedSpan:
    def test_records_through_sink_with_chained_parentage(self):
        rec = WallRecorder()
        root = TraceContext.mint()
        with install(rec), activate(root):
            with traced_span("outer", weight=2) as outer_ctx:
                with traced_span("inner"):
                    pass
        spans = rec.log.spans
        assert [s.name for s in spans] == ["inner", "outer"]
        inner_args = spans[0].args
        outer_args = spans[1].args
        assert outer_args["parent"] == root.span_id
        assert inner_args["parent"] == outer_ctx.span_id
        assert outer_args["trace"] == inner_args["trace"] == root.trace_id
        assert outer_args["weight"] == 2
        assert spans[1].cat == CAT_TASK

    def test_records_without_ids_without_context(self):
        rec = WallRecorder()
        with install(rec):
            with traced_span("orphan") as ctx:
                assert ctx is None
        (span,) = rec.log.spans
        assert span.name == "orphan"
        assert span.lane == "driver"
        assert "trace" not in span.args and "span" not in span.args

    def test_noop_without_sink(self):
        with activate(TraceContext.mint()):
            with traced_span("unsinked") as ctx:
                assert ctx is None

    def test_records_even_when_body_raises(self):
        rec = WallRecorder()
        with install(rec), activate(TraceContext.mint()):
            with pytest.raises(RuntimeError):
                with traced_span("doomed"):
                    raise RuntimeError("boom")
            # the failed scope's context was popped again
            assert trace_mod.current().parent_id is None
        assert [s.name for s in rec.log.spans] == ["doomed"]
