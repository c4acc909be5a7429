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
* :mod:`repro.runtime.shmem` -- the one shared-memory mechanism: a
  producer's ``memfd``, which another process opens as
  ``/proc/<pid>/fd/<fd>`` through :func:`open_memfd` (same host, user
  and PID namespace; Linux only), and which nothing can leak, since its
  pages go with its last fd.  Darray's job files and the service's
  zero-copy wire (:func:`share_array`, :class:`ShmDescriptor`,
  :class:`ShmArena`) both use it.
"""

from repro.runtime.shmem import (
    ShmArena,
    ShmDescriptor,
    array_digest,
    open_memfd,
    share_array,
    verify_descriptor_digest,
)

__all__ = [
    "ShmArena",
    "ShmDescriptor",
    "array_digest",
    "open_memfd",
    "share_array",
    "verify_descriptor_digest",
]
