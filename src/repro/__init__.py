"""repro: parallel image histogramming and connected components.

A production-quality Python reproduction of

    David A. Bader and Joseph JaJa, "Parallel Algorithms for Image
    Histogramming and Connected Components with an Experimental
    Study", PPoPP 1995 / UMD technical report, December 1994.

The package provides

* the paper's algorithms executed on a simulated Block Distributed
  Memory machine with full cost accounting
  (:func:`repro.core.parallel_histogram`,
  :func:`repro.core.parallel_components`),
* the BDM substrate itself (:mod:`repro.bdm`) with the transpose and
  broadcast primitives of Section 2,
* machine models for the five platforms of the experimental study
  (:mod:`repro.machines`),
* sequential baselines and test-image generators,
* a distributed array (:mod:`repro.darray`) whose ``shmem`` transport
  runs the same schedule on a real process pool for wall-clock parallel
  runs on multi-core hosts, and
* a kernel registry (:mod:`repro.kernels`) holding the vectorized
  ``numpy`` kernels every engine runs for the hot local steps and the
  per-pixel ``python`` reference they are bit-identical to (see
  docs/KERNELS.md).

Quickstart::

    import repro
    from repro.images import binary_test_image
    from repro.machines import CM5

    img = binary_test_image(9, 512)           # the dual-spiral pattern
    result = repro.parallel_components(img, p=32, machine_params=CM5)
    print(result.n_components, result.elapsed_s)
"""

from repro import kernels
from repro.faults import FaultPlan, FaultSpec
from repro.core.connected_components import parallel_components, ComponentsResult
from repro.core.equalization import parallel_equalize, EqualizationResult
from repro.core.histogram import parallel_histogram, HistogramResult
from repro.core.tiles import ProcessorGrid
from repro.baselines.sequential import (
    sequential_components,
    sequential_histogram,
)
from repro.machines.params import MACHINES, get_machine

#: 2.0.0 is a breaking release: ``repro.runtime.components`` /
#: ``histogram`` / ``resolve_workers`` are gone (use
#: ``repro.darray.darray_components`` / ``darray_histogram`` with
#: ``transport="shmem"``), ``repro trace --engine runtime`` became
#: ``--engine darray``, ``repro chaos --engine process`` became
#: ``--engine darray``, and the ``hist:band`` / ``cc:*`` fault sites
#: became ``darray:*`` (docs/FAULTS.md maps them).
#:
#: 3.0.0 is a breaking release: :mod:`repro.obs.trace` is the one emit
#: API and a ``WallRecorder`` is only a sink, so the recorder's own
#: emit methods, the span-handle and span-bridge forms, and the
#: ``service:batch-size`` / ``queue-wait`` / ``cache-*`` counts and
#: ``router:*`` events are gone (README.md lists the names); the pool,
#: dispatch, queue, batcher, transport and router classes take no
#: ``recorder=`` (install one with ``repro.obs.install``), ``run_tasks``
#: takes no ``trace=`` (activate the context), and ``repro serve
#: --shards N`` rejects ``--trace-out`` / ``--metrics-out`` /
#: ``--metrics-interval`` / ``--fault-plan`` instead of ignoring them.
#:
#: 4.0.0 is a breaking release: the metrics registry is the service
#: tier's only counter store, so ``AdmissionStats`` / ``BatcherStats``
#: (and the layers' ``.stats`` attributes) are gone -- read counts from
#: ``snapshot()`` or the registry -- and so are ``ServiceConfig.metrics``,
#: ``RouterConfig.metrics`` and ``repro serve --no-metrics``.
#:
#: 5.0.0 is a breaking release: ``repro.runtime.shmem.ShmMeta``,
#: ``SharedNDArray.attach`` and ``SharedNDArray.meta`` are gone (attach
#: through ``SharedNDArray.attach_descriptor``; a segment's name is
#: ``SharedNDArray.name``), and so are ``DistributedArray.place`` and
#: ``DistributedArray.tile`` (slice ``image[grid.tile_slices(pid)]``).
#:
#: 6.0.0 is a breaking release: ``MergeStepStats.n_edges`` is gone; the
#: simulator runs the shared ``repro.darray.label_components`` driver,
#: whose border-graph solve is the only step that knows the edge count.
#:
#: 7.0.0 is a breaking release: each count has one store.
#: ``repro.service.CacheStats``, ``BreakerStats`` and ``repro.bdm.Tracer``
#: / ``PhaseTrace`` (with ``repro.bdm.trace``) are gone; ``ResultCache``
#: and ``CircuitBreaker`` take a required ``instruments=`` and count into
#: it (read ``snapshot()``), ``CircuitBreaker`` takes no ``on_transition``,
#: ``MachineObserver.on_phase`` receives each processor's busy time, and
#: the Gantt chart and imbalance table are ``repro.obs.gantt(rec)`` /
#: ``imbalance_table(rec)`` over a ``MachineRecorder``.
#:
#: 8.0.0 is a breaking release: each paper algorithm has one form, the
#: phase form.  The generator-based SPMD executor (``repro.bdm``'s
#: executor, context and handle), its transpose, broadcast, histogram
#: and connected-components programs in ``repro.core``, the SPMD lint
#: rule family (``repro check --select SPMD`` now exits 2), the
#: checker's pytest plugin, ``LintError`` and
#: ``repro.checker.engine.analyze_callable`` are gone; the parse-failure
#: diagnostic is now PARSE000, and the ``repro.checker`` package
#: re-exports nothing (import from its submodules).
#:
#: 9.0.0 is a breaking release: ``repro.service.compute_over_socket``
#: and ``health.PROBE_LIMIT_BYTES`` are gone, and the socket helpers of
#: ``repro.service.server`` moved to ``repro.service.lines``.
#:
#: 10.0.0 is a breaking release: the engines stop choosing kernels and
#: always run the numpy ones.  The ``kernel=`` parameters of
#: ``parallel_components``, ``parallel_histogram``, ``darray_components``,
#: ``darray_histogram``, the darray transports and ``ServiceConfig`` are
#: gone, and so are ``parallel_components(engine=)``, the ``--kernel``
#: option, the ``REPRO_KERNEL_BACKEND`` environment variable, the
#: ``numba`` backend, ``repro.baselines.kernel_label`` (with
#: ``ENGINES["kernel"]``) and ``repro.kernels.resolve_backend`` /
#: ``ENV_VAR`` / ``available_backends`` / ``backends_of`` /
#: ``NUMBA_AVAILABLE``.  ``repro.kernels.get(name, backend="python")``
#: still returns the per-pixel reference kernels.  The service ``stats``
#: reply is ``repro-service-stats/v3`` (no ``config.kernel``),
#: ``ops.compute`` and ``svc_init`` take no kernel, the router's
#: ``stats`` gain ``shards.<sid>.last_probe_error``, and
#: ``WorkerCrashError`` (never raised) is gone.
#:
#: 11.0.0 is a breaking release: each computation has one copy, so
#: second copies went (README.md lists every removed name): the
#: ``repro.bdm.collectives`` module with the ``repro.bdm`` exports
#: ``allgather``, ``allreduce``, ``prefix_sum``, ``reduce_to`` and
#: ``scatter_from`` and its cost model; ``repro.bdm``'s closed forms of
#: eqs. (1)-(2) (use ``repro.analysis.predict_transpose`` /
#: ``predict_broadcast``) and its sequence-placing helper (use
#: ``GlobalArray.place``); ``GlobalArray.to_list``; the change-array
#: relabel of ``repro.core.change_array`` (use
#: ``repro.kernels.get("relabel")``); ``stripe_components(engine=)``;
#: and the CLI's ``--runtime`` and ``--engine runtime`` (use ``--engine
#: darray --transport shmem``; the old spellings exit 2).
#: ``open_transport`` and ``DistributedArray.open`` raise
#: ``ValidationError`` on an option that no transport takes, and the
#: transport classes take only their own options.
#:
#: 12.0.0 is a breaking release: stored labels are int32
#: (``repro.baselines.run_label.LABEL_DTYPE``), as the paper's keys are.
#: ``DarrayResult.labels`` and every transport's ``gather()`` are int32
#: on every path, a degraded run's included, and so is the ``mmap``
#: transport's ``labels.bin``; ``darray_components`` raises
#: ``ValidationError`` on an image of 2**31 pixels or more
#: (``MAX_LABEL_PIXELS``) before any transport opens.  ``TileRuns``
#: gains ``starts``, its ``labels`` and ``lengths`` are int32, and
#: ``TileRuns.paint(out)`` takes no foreground mask: it writes every
#: pixel of the tile.  ``tile_runs`` and ``tile_label`` raise
#: ``ValidationError`` when a label does not fit int32.  The
#: ``tile_label`` kernel, the service's ``components`` reply and the
#: simulator still give int64.
#:
#: 13.0.0 is a breaking release: the service's ``shmem`` wire shares
#: memory through memfds, as the darray ``shmem`` transport does.  A
#: wire descriptor is ``{pid, fd, inode, dtype, shape, digest}`` in place
#: of ``{name, dtype, shape, digest}``: the reader opens
#: ``/proc/<pid>/fd/<fd>`` (same host, user and PID namespace; Linux
#: only), and ``shm_release`` takes the reply's ``inode`` in place of its
#: ``name``.  ``SharedNDArray``, ``ShmArena.checkout``,
#: ``ShmArena.checkin``, ``ShmDescriptor.for_array`` and
#: ``repro.service.mint_shared_image`` are gone (use
#: ``repro.runtime.share_array``, whose descriptor's ``fd`` the caller
#: closes).  The router's ``stats`` are ``repro-router-stats/v2``, without
#: the per-shard ``minted_live``.  ``read_pnm`` returns uint8 for P4 and
#: P5 files (P1 and P2 stay int32).
__version__ = "13.0.0"

__all__ = [
    "kernels",
    "FaultPlan",
    "FaultSpec",
    "parallel_components",
    "ComponentsResult",
    "parallel_histogram",
    "HistogramResult",
    "parallel_equalize",
    "EqualizationResult",
    "ProcessorGrid",
    "sequential_components",
    "sequential_histogram",
    "MACHINES",
    "get_machine",
    "__version__",
]
