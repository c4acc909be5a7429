"""Kernel dispatch registry: one name, several interchangeable backends.

The hot *local* steps of the paper's algorithms -- the per-tile tally of
Section 4 step 1, the per-tile labeling of Section 5.1, border pixel
extraction for the merge iterations, and the change-array relabel of
Procedure 1 -- are isolated behind a tiny registry so each can be
served by either

* ``"python"`` -- the per-pixel reference implementations (the exact
  procedures the paper describes, at interpreter speed),
* ``"numpy"``  -- vectorized equivalents proven **bit-identical** by
  the differential property suite (``tests/test_kernels_differential``)
  and the golden fixtures (``tests/test_kernels_golden``), or
* ``"numba"``  -- JIT-compiled scalar loops (optional: registered only
  when the ``numba`` package is importable; selecting it without numba
  installed raises a clear :class:`ValidationError`).  Held to the same
  bit-identity contract by the same suites.

Only local computation hides behind a kernel; communication, cost
accounting (``CostCounter``) and observability (``repro.obs``) are
untouched by the backend choice.

Selection precedence: an explicit ``backend=`` argument, else the
``REPRO_KERNEL_BACKEND`` environment variable, else ``"numpy"``.
"""

from __future__ import annotations

import functools
import os
from typing import Callable

from repro.obs import trace as _trace
from repro.utils.errors import ValidationError

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Fallback backend when neither argument nor environment selects one.
DEFAULT_BACKEND = "numpy"

#: The recognized backends, in reference-first order.  ``numba`` is
#: recognized even when the package is absent (so CLI/env selection
#: fails with a clear message, not "unknown backend"); whether it is
#: *usable* is a registration question -- see :func:`available_backends`.
BACKENDS = ("python", "numpy", "numba")

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


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend name from the argument, environment, or default.

    A *recognized but unavailable* backend (``numba`` without the numba
    package) is rejected here, at selection time, so a misconfigured
    service fails its config validation instead of its first request.
    """
    if backend is None:
        backend = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    backend = str(backend).strip().lower()
    if backend not in BACKENDS:
        raise ValidationError(
            f"unknown kernel backend {backend!r}; known: {list(BACKENDS)}"
        )
    if backend not in available_backends():
        raise ValidationError(
            f"kernel backend {backend!r} is not available in this "
            f"environment (is the {backend!r} package installed?); "
            f"available: {available_backends()}"
        )
    return backend


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
    """Look up kernel ``name`` for ``backend`` (resolved per precedence).

    The returned callable is the registered function behind a
    trace-dispatch shim; its behavior (and bit-identity across
    backends) is unchanged.
    """
    backend = resolve_backend(backend)
    if (name, backend) not in _REGISTRY:
        if backend not in available_backends():
            raise ValidationError(
                f"kernel backend {backend!r} is not available in this "
                f"environment (is the {backend!r} package installed?); "
                f"available: {available_backends()}"
            )
        known = sorted({n for n, _ in _REGISTRY})
        raise ValidationError(
            f"unknown kernel {name!r} for backend {backend!r}; known kernels: {known}"
        )
    return _traced(name, backend)


def kernel_names() -> list[str]:
    """Sorted names of all registered kernels."""
    return sorted({name for name, _ in _REGISTRY})


def available_backends() -> list[str]:
    """Backends with at least one registered kernel, reference-first.

    ``python`` and ``numpy`` are always present; ``numba`` appears only
    when the optional package imported cleanly at startup.
    """
    registered = {b for _, b in _REGISTRY}
    return [b for b in BACKENDS if b in registered]


def backends_of(name: str) -> list[str]:
    """Backends registered for kernel ``name`` (reference-first order)."""
    found = [b for b in BACKENDS if (name, b) in _REGISTRY]
    if not found:
        raise ValidationError(f"unknown kernel {name!r}; known kernels: {kernel_names()}")
    return found
