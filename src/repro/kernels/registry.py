"""Kernel dispatch registry: one name, a reference and a vectorized backend.

The hot *local* steps of the paper's algorithms -- the per-tile tally of
Section 4 step 1, the per-tile labeling of Section 5.1, border pixel
extraction for the merge iterations, and the change-array relabel of
Procedure 1 -- are isolated behind a tiny registry with two backends:

* ``"numpy"``  -- the vectorized kernels every engine runs;
* ``"python"`` -- the per-pixel reference implementations (the exact
  procedures the paper describes, at interpreter speed), which the
  differential property suite (``tests/test_kernels_differential``)
  and the golden fixtures (``tests/test_kernels_golden``) prove the
  numpy kernels **bit-identical** to.

Only local computation hides behind a kernel; communication, cost
accounting (``CostCounter``) and observability (``repro.obs``) never
see which backend ran.
"""

from __future__ import annotations

import functools
from typing import Callable

from repro.obs import trace as _trace
from repro.utils.errors import ValidationError

#: The backend :func:`get` returns when none is named.
DEFAULT_BACKEND = "numpy"

#: The registered backends, reference first.
BACKENDS = ("python", "numpy")

_REGISTRY: dict[tuple[str, str], Callable] = {}


def register(name: str, backend: str) -> Callable[[Callable], Callable]:
    """Decorator: register a function as kernel ``name`` for ``backend``."""
    if backend not in BACKENDS:
        raise ValidationError(f"unknown backend {backend!r}; known: {list(BACKENDS)}")

    def _register(fn: Callable) -> Callable:
        key = (name, backend)
        if key in _REGISTRY:
            raise ValidationError(f"kernel {name!r} already registered for {backend!r}")
        _REGISTRY[key] = fn
        return fn

    return _register


@functools.lru_cache(maxsize=None)
def _traced(name: str, backend: str) -> Callable:
    """A trace-aware wrapper over the registered kernel function.

    While a sink is installed (:mod:`repro.obs.trace`) every kernel call
    records a ``kernel:<name>`` span: in a pool worker on its pid lane
    under the task span, on the driver under the enclosing phase span,
    and parented into the request tree when a trace context is active.
    Untraced callers pay a single ``is None`` check.
    """
    fn = _REGISTRY[(name, backend)]
    span_name = f"kernel:{name}"

    @functools.wraps(fn)
    def _dispatch(*args, **kwargs):
        if _trace.sink() is None:
            return fn(*args, **kwargs)
        with _trace.traced_span(span_name, backend=backend):
            return fn(*args, **kwargs)

    return _dispatch


def get(name: str, backend: str | None = None) -> Callable:
    """Kernel ``name`` of ``backend``; ``None`` is :data:`DEFAULT_BACKEND`.

    The returned callable is the registered function behind a
    trace-dispatch shim; its behavior is unchanged.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if (name, backend) not in _REGISTRY:
        if backend not in BACKENDS:
            raise ValidationError(
                f"unknown kernel backend {backend!r}; known: {list(BACKENDS)}"
            )
        raise ValidationError(
            f"unknown kernel {name!r}; known kernels: {kernel_names()}"
        )
    return _traced(name, backend)


def kernel_names() -> list[str]:
    """Sorted names of all registered kernels."""
    return sorted({name for name, _ in _REGISTRY})
