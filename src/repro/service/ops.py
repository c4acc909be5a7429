"""The service's operations: validation, canonical params, execution.

Three pure ops are served, all defined over a single greyscale/binary
image:

* ``histogram``  -- grey-level tally (``k`` bins), ``int64[k]``;
* ``components`` -- connected-component labels (``connectivity``,
  ``grey``), ``int64[h, w]`` in the engines' canonical convention
  (background 0, label = 1 + row-major index of first pixel);
* ``equalize``   -- histogram-equalized image through the CDF LUT of
  :func:`repro.core.equalization.equalization_lut`, ``int64[h, w]``.

Every request is validated **at admission**, on the driver: a worker
exception would otherwise abort the whole coalesced dispatch and take
innocent batch-mates down with it.  The worker task itself still wraps
execution defensively -- an op failure inside a worker comes back as a
per-request error marker, not a batch-level exception -- so one bad
request can never poison its batch.

The worker entry points (:func:`svc_init`, :func:`svc_task`) are
module-level so they pickle by name into pool workers; ``svc_task``
fires the deterministic fault injector at the ``svc:exec`` site before
touching the payload, mirroring the other hardened task functions.
"""

from __future__ import annotations

import numpy as np

from repro.core.equalization import equalization_lut
from repro.faults.inject import corrupt_pixels, fire, install_plan
from repro.faults.plan import FaultPlan
from repro.kernels import get as get_kernel
from repro.obs import trace as _trace
from repro.obs.trace import TraceContext
from repro.runtime.dispatch import drop_inherited_memfds
from repro.runtime.shmem import ShmDescriptor, verify_descriptor_digest
from repro.utils.errors import ReproError, ValidationError
from repro.utils.validation import check_image, check_power_of_two

#: The ops the service knows how to execute.
OPS = ("histogram", "components", "equalize")


def canonical_params(op: str, image: np.ndarray | None, params: dict) -> tuple:
    """Validate a request and return its canonical, hashable param tuple.

    The tuple is sorted by name and fully defaulted, so two requests
    that mean the same computation always produce the same batch key
    and the same cache key, however the caller spelled them.

    ``image`` is ``None`` for a shared-memory descriptor request: the
    driver never reads descriptor pixels (that is the zero-copy
    contract), so the grey-level-vs-``k`` check is deferred to the
    kernel's own validation inside the worker.
    """
    if op not in OPS:
        raise ValidationError(f"unknown service op {op!r}; known: {list(OPS)}")
    params = dict(params)
    out: dict = {}
    if op in ("histogram", "equalize"):
        k = int(params.pop("k", 256))
        check_power_of_two("k", k)
        if image is not None and image.max(initial=0) >= k:
            raise ValidationError(f"image has grey levels >= k={k}")
        out["k"] = k
    else:  # components
        connectivity = int(params.pop("connectivity", 8))
        if connectivity not in (4, 8):
            raise ValidationError("connectivity must be 4 or 8")
        out["connectivity"] = connectivity
        out["grey"] = bool(params.pop("grey", False))
    if params:
        raise ValidationError(
            f"unknown parameter(s) for op {op!r}: {sorted(params)}"
        )
    return tuple(sorted(out.items()))


def check_request_image(image) -> np.ndarray:
    """Validate and canonicalize a request image (contiguous int array)."""
    image = check_image(np.asarray(image), square=False)
    return np.ascontiguousarray(image)


def materialize_request_image(image, *, task=None, attempt: int = 0) -> np.ndarray:
    """Resolve a request image to pixels wherever the task runs.

    An ndarray passes through untouched.  A :class:`~repro.runtime.
    shmem.ShmDescriptor` is the zero-copy path: open the client's file
    (:func:`~repro.runtime.shmem.open_memfd` checks it is the one
    named), copy it out **once** with ``preadv`` (the wire never carried
    the pixels), close it, then verify the copy against the
    descriptor's content digest.  Copy-before-verify means the
    computation can never see a torn concurrent write that the digest
    check missed, and closing before compute means a client closing its
    file mid-request cannot fault the worker.

    Failure typing matters here: a file that is gone, is not the one
    named or is too small raises :class:`~repro.utils.errors.
    ValidationError` (a per-request JSON error), while a digest mismatch
    raises :class:`~repro.utils.errors.CorruptPayloadError` --
    retryable, because a torn write heals on re-read.  The ``svc:shmem``
    fault site fires between the copy and the digest check; its
    ``corrupt`` kind tampers the copied pixels so the digest check must
    catch it, exactly like ``darray:border`` corruption.
    """
    if not isinstance(image, ShmDescriptor):
        return image
    pixels = image.read()
    spec = fire("svc:shmem", task=task, attempt=attempt)
    if spec is not None and spec.kind == "corrupt":
        pixels = corrupt_pixels(pixels)
    verify_descriptor_digest(image, pixels)
    return pixels


def compute(op: str, image: np.ndarray, params: tuple) -> np.ndarray:
    """Execute one op serially through the kernel registry."""
    opts = dict(params)
    if op == "histogram":
        return get_kernel("histogram")(image, opts["k"])
    if op == "components":
        return get_kernel("tile_label")(
            image, connectivity=opts["connectivity"], grey=opts["grey"]
        )
    if op == "equalize":
        hist = get_kernel("histogram")(image, opts["k"])
        lut = equalization_lut(hist)
        return lut[image]
    raise ValidationError(f"unknown service op {op!r}")


# -- worker side (pickled by name into pool workers) ------------------------


def svc_init(plan: FaultPlan | None = None) -> None:
    """Pool initializer: drop the memfds the worker inherited (reply
    files held for clients among them) and install the fault plan."""
    drop_inherited_memfds()
    install_plan(plan)


def svc_task(arg):
    """Worker: execute one request of a batch; never raises op errors.

    Payload is ``(index, op, image, params, trace_wire)``; the returned
    marker is ``("ok", result)`` or ``("err", exc_type_name, message)``
    so a single bad request surfaces on its own future instead of
    aborting the batch.  ``trace_wire`` (``None`` when untraced) is the
    request's batch-level trace context: activating it here makes the
    task span -- and the kernel spans beneath it -- children of the
    driver's batch span, across the process boundary.  Injected faults
    (crash/hang/exception) fire *before* the marker wrapper, so the
    dispatcher's recovery machinery sees them exactly as it does at
    every other site.
    """
    (index, op, image, params, trace_wire), attempt = arg
    fire("svc:exec", task=index, attempt=attempt)
    ctx = TraceContext.from_wire(trace_wire) if trace_wire is not None else None
    with _trace.activate(ctx):
        with _trace.traced_span(f"svc:{op}[{index}]", op=op, index=index):
            # Descriptor materialization sits *outside* the marker
            # wrapper for its fault-typed errors: CorruptPayloadError
            # must reach the dispatcher (it is retryable -- the re-run
            # re-reads the file), while a ValidationError (a file that
            # is gone, not the one named or too small) is this
            # request's own typed error.
            try:
                image = materialize_request_image(image, task=index, attempt=attempt)
            except ValidationError as exc:
                return ("err", type(exc).__name__, str(exc))
            try:
                return ("ok", compute(op, image, params))
            except ReproError as exc:
                return ("err", type(exc).__name__, str(exc))
