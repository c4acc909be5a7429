"""Process-parallel plumbing: fault-tolerant dispatch and shared memory.

The BDM simulator (:mod:`repro.bdm`) reproduces the paper's *cost
model*; wall-clock parallel runs go through the distributed array's
``shmem`` transport (:func:`repro.darray.darray_components` /
:func:`repro.darray.darray_histogram` with ``transport="shmem"``).
CPython's GIL rules out thread parallelism for this workload, hence
processes over shared memory, as is standard for Python HPC:

* :mod:`repro.runtime.dispatch` -- the supervised fork pool and the
  deadline/retry/respawn task dispatcher, which that transport (on the
  process's warm pool, its arrays in one memfd per job) and
  :mod:`repro.service` share;
* :mod:`repro.runtime.shmem` -- the service's zero-copy wire plane:
  :class:`SharedNDArray` segments, :class:`ShmDescriptor`, :class:`ShmArena`.
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
