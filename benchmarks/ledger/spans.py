"""Span-stack tracer that times layer calls from outside the program.

The ledger attributes a job's wall time to this repo's layers without
touching ``src/``: :meth:`Tracer.patched` swaps each layer's public
entry point for a timing shim, records one span per call on an
in-memory stack, and restores the originals on exit.  A span's *self
time* is its duration minus the time its child spans cover, so the
self times of one job (including the root ``job`` span, whose self
time is the unattributed residual) sum exactly to the job's wall time.

Only calls made in the process that installs the shims are seen.
Kernels the ``shmem`` transport runs inside pool workers show up as
``dispatch.wait`` time in the calling process, not as ``kernels.*`` spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class Tracer:
    """Aggregates self time, call counts and item counts per span name."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, count=None):
        """``fn`` behind a shim recording a ``name`` span per call.

        ``count(*args)`` (optional) adds a work count to ``items[name]``,
        e.g. the number of union pairs in one ``union_edges`` call.
        """
        stack = self._stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                self.self_s[name] += dur - frame[0]
                self.calls[name] += 1
                if count is not None:
                    self.items[name] += count(*args)
                if stack:
                    stack[-1][0] += dur

        return shim

    def snapshot(self) -> tuple[dict, dict, dict]:
        return dict(self.self_s), dict(self.calls), dict(self.items)

    @contextlib.contextmanager
    def patched(self):
        """Install the layer shims for the duration of the block."""
        import repro.darray.engine as engine
        import repro.darray.local as local
        import repro.darray.mmap_transport as mmap_transport
        import repro.darray.shmem_transport as shmem_transport
        from repro.baselines.union_find import UnionFind
        from repro.darray.array import DistributedArray
        from repro.kernels import get as get_kernel

        def traced_get(name, backend=None):
            return self.wrap(f"kernels.{name}", get_kernel(name, backend))

        def n_pairs(_uf, a, _b):
            return len(a)

        def method(cls, attr, name, count=None):
            return cls, attr, self.wrap(name, getattr(cls, attr), count)

        open_fn = DistributedArray.__dict__["open"].__func__
        swaps = [
            (local, "get_kernel", traced_get),
            (mmap_transport, "get_kernel", traced_get),
            method(UnionFind, "union_edges", "kernels.union", n_pairs),
            method(engine, "solve_border_merge", "core.solve"),
            method(engine, "count_components", "darray.count"),
            method(local, "create_tile_hooks", "core.hooks"),
            method(local, "apply_hooks", "core.hooks"),
            method(mmap_transport, "create_tile_hooks", "core.hooks"),
            method(mmap_transport, "apply_hooks_isolated", "core.hooks"),
            method(shmem_transport, "run_tasks", "dispatch.wait"),
            (DistributedArray, "open", classmethod(self.wrap("darray.open", open_fn))),
        ]
        for verb in ("label", "border", "publish", "finalize", "gather", "close"):
            swaps.append(method(DistributedArray, verb, f"darray.{verb}"))
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in swaps]
        try:
            for owner, attr, shim in swaps:
                setattr(owner, attr, shim)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
