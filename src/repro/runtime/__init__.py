"""Process-parallel plumbing: shared memory and fault-tolerant dispatch.

The BDM simulator (:mod:`repro.bdm`) reproduces the paper's *cost
model*; wall-clock parallel runs go through the distributed array's
``shmem`` transport (:func:`repro.darray.darray_components` /
:func:`repro.darray.darray_histogram` with ``transport="shmem"``).
CPython's GIL rules out thread parallelism for this workload, hence
processes + :mod:`multiprocessing.shared_memory`, as is standard for
Python HPC.  This package holds the two layers that transport and the
serving layer (:mod:`repro.service`) share:

* :mod:`repro.runtime.shmem` -- :class:`SharedNDArray` segments plus
  the zero-copy wire plane (:class:`ShmDescriptor`, :class:`ShmArena`);
* :mod:`repro.runtime.dispatch` -- the supervised pool and the
  deadline/retry/respawn task dispatcher.
"""

from repro.runtime.shmem import (
    SharedNDArray,
    ShmArena,
    ShmDescriptor,
    array_digest,
    verify_descriptor_digest,
)

__all__ = [
    "SharedNDArray",
    "ShmArena",
    "ShmDescriptor",
    "array_digest",
    "verify_descriptor_digest",
]
