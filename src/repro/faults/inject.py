"""Worker/driver-side fault injection.

The driver serializes the active :class:`~repro.faults.plan.FaultPlan`
into each pool worker through the pool initializer
(:func:`install_plan`); task functions -- or, where a task runs a block
of items, each item -- then call :func:`fire` at entry with their site
and selectors.  With no plan installed the call is a cheap no-op, so
the production path pays nothing.

An item's fault fires before that item writes shared memory.  Earlier
items of its block may have written already; the retry re-runs them,
which is why every item a block carries must be idempotent.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.faults.plan import FaultPlan, FaultSpec
from repro.utils.errors import TransientTaskError

#: Exit code of an injected worker crash (visible in pool diagnostics).
CRASH_EXIT_CODE = 70

#: The plan installed in this process (worker side), or None.
_PLAN: FaultPlan | None = None


def install_plan(plan: FaultPlan | None) -> None:
    """Install ``plan`` as this process's active fault plan."""
    global _PLAN
    _PLAN = plan


def _fired(site: str, round, group, task, attempt: int) -> FaultSpec | None:
    """The plan's spec for this invocation, once a ``crash`` or an
    ``exception`` has acted; a ``hang`` or ``corrupt`` spec is returned."""
    if _PLAN is None:
        return None
    spec = _PLAN.match(site, round=round, group=group, task=task, attempt=attempt)
    if spec is None:
        return None
    if spec.kind == "crash":
        # Hard death, as a segfault would be: no cleanup, no exception
        # crossing back to the driver.  The task's deadline expiring is
        # the only signal the driver gets.
        os._exit(CRASH_EXIT_CODE)
    if spec.kind == "exception":
        raise TransientTaskError(
            f"injected transient fault at {site} "
            f"(round={round}, group={group}, task={task}, attempt={attempt})",
            site=site,
        )
    return spec


def fire(site: str, *, round=None, group=None, task=None, attempt: int = 0) -> FaultSpec | None:
    """Inject the matching fault for this invocation, if any.

    ``crash`` exits the process hard, ``hang`` sleeps past the
    deadline, ``exception`` raises
    :class:`~repro.utils.errors.TransientTaskError`.  A matching
    ``corrupt`` spec is *returned* instead of acted on -- the caller
    owns the payload and applies :func:`corrupt_labels` itself.
    """
    spec = _fired(site, round, group, task, attempt)
    if spec is not None and spec.kind == "hang":
        time.sleep(spec.hang_s)
        return None
    return spec


async def fire_async(site: str, *, round=None, group=None, task=None,
                     attempt: int = 0) -> FaultSpec | None:
    """Event-loop-safe :func:`fire` for the router's ``svc:route`` /
    ``svc:health`` sites.

    A ``hang`` spec awaits ``asyncio.sleep`` instead of blocking the
    loop (a blocked router loop would stall *every* shard's traffic,
    not just the faulted one); the other kinds behave exactly as
    :func:`fire`.
    """
    spec = _fired(site, round, group, task, attempt)
    if spec is not None and spec.kind == "hang":
        import asyncio  # not at module level: the pool workers never need it

        await asyncio.sleep(spec.hang_s)
        return None
    return spec


def corrupt_labels(labels: np.ndarray) -> np.ndarray:
    """Return a corrupted copy of a border label payload.

    Foreground labels are negated -- impossible under the engine's
    label convention (background 0, labels >= 1), so
    :func:`validate_border_labels` always detects the damage.
    """
    out = np.array(labels, copy=True)
    out[out > 0] *= -1
    return out


def corrupt_pixels(image: np.ndarray) -> np.ndarray:
    """Return a bit-flipped copy of a shared-memory image payload.

    Every pixel's low bit is toggled, so the copy can never hash to the
    descriptor's digest -- :func:`repro.runtime.shmem.
    verify_descriptor_digest` always detects the damage (the
    ``svc:shmem`` analogue of :func:`corrupt_labels`).
    """
    return np.array(image, copy=True) ^ 1


def validate_border_labels(labels: np.ndarray, *, site: str) -> None:
    """Reject a border payload carrying out-of-range labels.

    Raises :class:`~repro.utils.errors.CorruptPayloadError` naming
    ``site`` -- a retryable fault: the dispatcher re-runs the border
    task, which re-extracts the payload from shared memory.
    """
    from repro.utils.errors import CorruptPayloadError

    labels = np.asarray(labels)
    if labels.size and int(labels.min()) < 0:
        bad = int((labels < 0).sum())
        raise CorruptPayloadError(
            f"border payload failed validation: {bad} negative label(s)", site=site
        )
