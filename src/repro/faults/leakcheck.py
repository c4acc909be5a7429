"""Shared-memory leak detection for tests and the chaos CLI.

POSIX shared memory created by :class:`multiprocessing.shared_memory`
lives in ``/dev/shm`` under names prefixed ``psm_``; a segment whose
owner never calls ``unlink`` persists after every process exits.  This
package makes none: it shares memory through memfds
(:mod:`repro.runtime.shmem`), which go with their last fd.  So the
check has two halves: no named segment appears in ``/dev/shm``, and the
calling process holds no ``repro-*`` memfd it did not hold before --
every request, reply and job file it made was closed.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Callable, Iterator

from repro.runtime.shmem import MEMFD_TAG

#: Where POSIX shared memory is mounted on Linux.
SHM_DIR = "/dev/shm"

#: Name prefix of segments created by multiprocessing.shared_memory.
SHM_PREFIX = "psm_"


def shm_segments() -> set[str]:
    """Names of live ``psm_``-prefixed shared-memory segments.

    Empty on platforms without a scannable ``/dev/shm`` (the leak
    check degrades to a no-op there rather than failing).
    """
    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return set()
    return {n for n in names if n.startswith(SHM_PREFIX)}


def _held_memfds() -> set[str]:
    """The ``repro-*`` memfds this process holds open, one entry per fd:
    ``"fd <n> (inode <i>)"``, so a reused fd number reads as new."""
    held = set()
    for name in os.listdir("/proc/self/fd"):
        path = f"/proc/self/fd/{name}"
        try:
            if os.readlink(path).startswith(MEMFD_TAG):
                held.add(f"fd {name} (inode {os.stat(path).st_ino})")
        except OSError:  # closed meanwhile, or the listing's own fd
            pass
    return held


def _new_since(probe: Callable[[], set[str]], before: set[str],
               grace_s: float) -> set[str]:
    deadline = time.monotonic() + grace_s
    while True:
        new = probe() - before
        if not new or time.monotonic() >= deadline:
            return new
        time.sleep(0.05)


def leaked_since(before: set[str], *, grace_s: float = 1.0) -> set[str]:
    """Segments present now but not in ``before``.

    Unlink can lag a terminated pool by a beat, so re-check for up to
    ``grace_s`` before declaring a leak.
    """
    return _new_since(shm_segments, before, grace_s)


@contextlib.contextmanager
def assert_no_shm_leak(*, grace_s: float = 1.0) -> Iterator[None]:
    """Assert the wrapped block leaks no shared memory: no new
    ``/dev/shm`` segment, and no new ``repro-*`` memfd still open in
    this process, each re-checked for up to ``grace_s``.

    The assertion runs even when the block raises, so a test can wrap
    a call it *expects* to fail and still check teardown::

        with assert_no_shm_leak():
            with pytest.raises(FaultError):
                components(img, fault_plan=plan, degrade=False)
    """
    before = shm_segments()
    held_before = _held_memfds()
    try:
        yield
    finally:
        leaked = leaked_since(before, grace_s=grace_s)
        held = _new_since(_held_memfds, held_before, grace_s)
        if leaked or held:
            raise AssertionError(
                f"leaked shared-memory segment(s): {sorted(leaked)}; "
                f"memfd(s) still open: {sorted(held)}"
            )
