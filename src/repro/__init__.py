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
* a kernel registry (:mod:`repro.kernels`) dispatching the hot local
  steps to a per-pixel ``python`` reference or a bit-identical
  vectorized ``numpy`` backend (see docs/KERNELS.md).

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
__version__ = "7.0.0"

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
