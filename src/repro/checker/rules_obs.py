"""OBS5xx: observability-hygiene rules.

A span opened imperatively -- a ``begin`` call hands back a handle
that records nothing until ``h.finish()`` runs.  OBS501 encodes the
obvious failure shape: a handle whose ``finish()`` sits in
straight-line code vanishes from the trace whenever an exception takes
the early exit, which is exactly the path a trace exists to explain.
The guard test mirrors RES202: a ``finish()`` inside a ``finally`` or
an exception handler survives every edge; anything else does not.  The
repo's own emit API (:mod:`repro.obs.trace`) has no handles: a block is
timed with the :func:`~repro.obs.trace.traced_span` context manager,
and an interval that cannot be one block is recorded with
:func:`~repro.obs.trace.record_span` from a ``finally``.

OBS502 covers the other chronic bug of optional instrumentation: half
the emitting call sites take ``recorder=None`` (tracing off is the
default), so every ``recorder.count(...)`` needs a ``None`` guard.  An
unguarded emit works fine in the traced test and crashes in the
untraced production path -- the worst possible polarity.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.checker.astutil import iter_functions, own_scope_walk
from repro.checker.rules import LintDiagnostic, LintRule, register_rules

register_rules(
    LintRule(
        "OBS501",
        "span handle not finished on exception edges",
        "error",
        "A span handle opened by a begin() call is finished only in "
        "straight-line code (or never): any exception between begin and "
        "finish drops the span from the trace. Move finish() into a "
        "finally, or time the block with repro.obs.trace.traced_span() "
        "(record_span() from a finally for an interval that is not one "
        "block).",
    ),
    LintRule(
        "OBS502",
        "emit on an optional recorder without a None guard",
        "warning",
        "An event is emitted on a parameter that defaults to None "
        "without checking it first: the call works under tracing and "
        "raises AttributeError on the untraced default path.",
    ),
)

#: Methods that emit events/samples when called on a recorder-like object.
_EMIT_METHODS = {
    "span", "begin", "instant", "count",
    "add_span", "add_instant", "add_count",
    "span_sink", "drain",
}


def _nodes_under(roots: list[ast.stmt]) -> set[ast.AST]:
    seen: set[ast.AST] = set()
    for root in roots:
        seen.update(own_scope_walk(root))
    return seen


# -- OBS501 ------------------------------------------------------------------

@dataclass
class _Handle:
    name: str
    node: ast.AST  # the .begin() call, for the diagnostic location


def _begin_call(value: ast.AST) -> ast.Call | None:
    """The ``<recv>.begin(...)`` call inside an assigned value, if any.

    Conditional forms (``x.begin(...) if traced else None``) open the
    span only sometimes, but when they do the closing obligation is the
    same, so the ternary arms are searched too.
    """
    if isinstance(value, ast.IfExp):
        return _begin_call(value.body) or _begin_call(value.orelse)
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == "begin"
    ):
        return value
    return None


def _finish_calls(scope: ast.AST, name: str) -> list[ast.Call]:
    out = []
    for node in own_scope_walk(scope):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "finish"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        ):
            out.append(node)
    return out


def _escapes(scope: ast.AST, name: str, begin_node: ast.AST) -> bool:
    """True when the handle leaves this scope's custody.

    Returned, yielded, stored into an attribute/container, or passed as
    a call argument: someone else may finish it, so the file-local
    analysis stays silent.
    """
    for node in own_scope_walk(scope):
        if isinstance(node, (ast.Return, ast.Yield)) and node.value is not None:
            if any(
                isinstance(n, ast.Name) and n.id == name
                for n in ast.walk(node.value)
            ):
                return True
        if isinstance(node, ast.Call) and node is not begin_node:
            for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                if isinstance(arg, ast.Name) and arg.id == name:
                    return True
        if isinstance(node, ast.Assign) and any(
            not isinstance(t, ast.Name) for t in node.targets
        ):
            if any(
                isinstance(n, ast.Name)
                and n.id == name
                and isinstance(n.ctx, ast.Load)
                for n in ast.walk(node.value)
            ):
                return True
    return False


def _check_obs501(scope: ast.AST, scope_name: str,
                  filename: str) -> list[LintDiagnostic]:
    protected: set[ast.AST] = set()
    for node in own_scope_walk(scope):
        if isinstance(node, ast.Try):
            protected.update(_nodes_under(node.finalbody))
            for handler in node.handlers:
                protected.update(_nodes_under(handler.body))

    handles: list[_Handle] = []
    for node in own_scope_walk(scope):
        if not isinstance(node, ast.Assign):
            continue
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            continue
        call = _begin_call(node.value)
        if call is not None:
            handles.append(_Handle(node.targets[0].id, call))

    diags = []
    for h in handles:
        finishes = _finish_calls(scope, h.name)
        if any(c in protected for c in finishes):
            continue
        if _escapes(scope, h.name, h.node):
            continue
        how = (
            "is finished only in straight-line code"
            if finishes
            else "is never finished in this scope"
        )
        diags.append(
            LintDiagnostic(
                rule="OBS501",
                message=(
                    f"span handle {h.name!r} {how}; an exception between "
                    "begin() and finish() drops the span from the trace"
                ),
                file=filename,
                line=h.node.lineno,
                col=h.node.col_offset,
                function=scope_name,
            )
        )
    return diags


# -- OBS502 ------------------------------------------------------------------

def _optional_params(fn: ast.AST) -> set[str]:
    """Parameter names whose default is the literal ``None``."""
    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    out: set[str] = set()
    a = fn.args
    for params, defaults in (
        (a.posonlyargs + a.args, a.defaults),
        (a.kwonlyargs, a.kw_defaults),
    ):
        for param, default in zip(reversed(params), reversed(defaults)):
            if (
                default is not None
                and isinstance(default, ast.Constant)
                and default.value is None
            ):
                out.add(param.arg)
    return out


def _names_read(node: ast.AST) -> set[str]:
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _exits(stmts: list[ast.stmt]) -> bool:
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _check_obs502(fn: ast.AST, filename: str) -> list[LintDiagnostic]:
    optional = _optional_params(fn)
    if not optional:
        return []
    # A reassignment (``rec = rec or WallRecorder()``) changes the
    # story mid-function; give up on that name rather than guess.
    for node in own_scope_walk(fn):
        for target in getattr(node, "targets", []):
            if isinstance(target, ast.Name):
                optional.discard(target.id)
    if not optional:
        return []

    diags: list[LintDiagnostic] = []

    def visit(node: ast.AST, guarded: frozenset) -> None:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _EMIT_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in optional
            and node.func.value.id not in guarded
        ):
            name = node.func.value.id
            diags.append(
                LintDiagnostic(
                    rule="OBS502",
                    message=(
                        f"emit call {name}.{node.func.attr}() on a "
                        f"parameter that defaults to None, outside any "
                        f"guard on {name!r}"
                    ),
                    file=filename,
                    line=node.lineno,
                    col=node.col_offset,
                    function=fn.name,
                )
            )
        if isinstance(node, (ast.If, ast.IfExp)):
            inner = guarded | _names_read(node.test)
            # ``if rec is None: return`` guards the rest of the block.
            if isinstance(node, ast.If) and _exits(node.body):
                nonlocal_guard.update(_names_read(node.test))
            visit(node.test, guarded)
            for child in [*node.body, *node.orelse] if isinstance(
                node, ast.If
            ) else [node.body, node.orelse]:
                visit(child, inner)
            return
        if isinstance(node, ast.BoolOp) and len(node.values) > 1:
            # ``rec and rec.count(...)`` short-circuits either way.
            visit(node.values[0], guarded)
            inner = guarded | _names_read(node.values[0])
            for value in node.values[1:]:
                visit(value, inner)
            return
        if isinstance(node, ast.Assert):
            nonlocal_guard.update(_names_read(node.test))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            visit(child, guarded | frozenset(nonlocal_guard))

    nonlocal_guard: set[str] = set()
    for stmt in fn.body:
        visit(stmt, frozenset(nonlocal_guard))
    return diags


def check(tree: ast.AST, filename: str) -> list[LintDiagnostic]:
    diags: list[LintDiagnostic] = []

    scopes: list[tuple[ast.AST, str]] = [(tree, "<module>")]
    scopes += [(fn, fn.name) for fn in iter_functions(tree)]
    for scope, scope_name in scopes:
        diags.extend(_check_obs501(scope, scope_name, filename))

    for fn in iter_functions(tree):
        diags.extend(_check_obs502(fn, filename))
    return diags
