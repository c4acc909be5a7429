"""NumPy arrays backed by POSIX shared memory.

Workers attach to the segment by name, so large images are shared with
the pool instead of being pickled per task -- the standard idiom for
process-parallel NumPy.

Two layers live here:

* :class:`SharedNDArray` -- one segment viewed as an array (the owner
  creates it, a consumer attaches through its descriptor).
* The **zero-copy wire plane**: :class:`ShmDescriptor` (a validated,
  JSON-able content-addressed handle: name / dtype / shape / digest)
  and :class:`ShmArena` (a refcounted owner of segments whose lifetime
  outlives a single call -- the service's reply segments).  The unix
  socket carries only the descriptor; pixels never touch the wire.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

try:  # POSIX only; Windows shared memory needs no tracker bookkeeping
    from multiprocessing import resource_tracker as _resource_tracker
except ImportError:  # pragma: no cover
    _resource_tracker = None

import numpy as np

from repro.utils.errors import ValidationError

#: dtypes a shared segment may carry over the wire (mirrors the ndjson
#: wire's integer dtypes; the service ops are integer-image ops).
SHARABLE_DTYPES = ("uint8", "int8", "uint16", "int16", "int32", "int64")

#: Hard cap on one shared segment (matches the ndjson request cap, so
#: neither wire can make a worker map more than this).
MAX_SEGMENT_BYTES = 64 << 20

#: Segment names as the kernel and multiprocessing produce them:
#: no leading slash, no path separators, bounded length.
_NAME_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.\-]{0,249}$")


def array_digest(arr: np.ndarray) -> str:
    """Content address of an array: sha256 over dtype, shape, and bytes.

    Identical to :func:`repro.service.cache.image_digest` (which is an
    alias of this), so a shared-memory descriptor's digest and an
    ndjson request's server-side digest address the same cache entry.
    """
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


#: Serializes the Python < 3.13 attach path, which swaps the tracker's
#: ``register`` for the duration of one ``SharedMemory(name=...)`` call.
_ATTACH_LOCK = threading.Lock()


def _reset_attach_lock() -> None:
    # A pool worker forked while another thread held the lock would
    # inherit it held and deadlock on its first attach.
    global _ATTACH_LOCK
    _ATTACH_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_attach_lock)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment *without* adopting cleanup duty.

    ``SharedMemory(name=...)`` registers the segment with this
    process's resource tracker even when merely attaching (CPython
    bpo-39959, fixed by ``track=`` only in 3.13) -- so an attacher's
    tracker would "clean up" segments it never owned: spurious unlinks
    of live segments and leak warnings at exit.  Ownership here is
    explicit (creator unlinks, attachers only close), so the attach
    path never registers at all.

    Registering and then unregistering is not enough: forked workers
    share one tracker daemon, so two workers attaching the same shard
    interleave as REG, REG, UNREG, UNREG and the second UNREG raises
    ``KeyError`` inside the daemon.  Before 3.13 the registration is
    therefore skipped for this thread's attach only; a segment another
    thread creates meanwhile still registers normally.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        pass
    if _resource_tracker is None:  # pragma: no cover - non-POSIX
        return shared_memory.SharedMemory(name=name)
    attaching = threading.get_ident()
    with _ATTACH_LOCK:
        register = _resource_tracker.register

        def register_unless_attaching(seg_name, rtype):
            if threading.get_ident() != attaching:
                register(seg_name, rtype)

        _resource_tracker.register = register_unless_attaching
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            _resource_tracker.register = register


@dataclass(frozen=True)
class ShmDescriptor:
    """A validated wire handle for a shared-memory image segment.

    The descriptor is everything the socket carries for a zero-copy
    request: which segment (``name``), how to view it (``dtype``,
    ``shape``), and what its pixels hash to (``digest`` -- sha256 over
    dtype/shape/bytes, computed by the *producer* so consumers can key
    caches without touching a single pixel).
    """

    name: str
    dtype: str
    shape: tuple[int, ...]
    digest: str

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * np.dtype(self.dtype).itemsize

    @classmethod
    def for_array(cls, name: str, arr: np.ndarray) -> "ShmDescriptor":
        return cls(
            name=name,
            dtype=str(arr.dtype),
            shape=tuple(int(d) for d in arr.shape),
            digest=array_digest(arr),
        )

    def to_wire(self) -> dict:
        return {
            "name": self.name,
            "dtype": self.dtype,
            "shape": list(self.shape),
            "digest": self.digest,
        }

    @classmethod
    def from_wire(cls, obj) -> "ShmDescriptor":
        """Parse and strictly validate a wire descriptor object.

        Every rejection is a typed :class:`ValidationError`: an invalid
        descriptor must produce a JSON error reply, never reach a pool
        worker, and never name a segment outside the shared namespace.
        """
        if not isinstance(obj, dict):
            raise ValidationError("shm descriptor must be an object")
        name = obj.get("name")
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValidationError(
                "shm descriptor 'name' must be a plain segment name "
                "(letters, digits, '_', '.', '-'; no leading '/')"
            )
        dtype = obj.get("dtype")
        if dtype not in SHARABLE_DTYPES:
            raise ValidationError(
                f"unsupported shm dtype {dtype!r}; known: {list(SHARABLE_DTYPES)}"
            )
        shape = obj.get("shape")
        if (not isinstance(shape, list) or not shape
                or any(isinstance(d, bool) or not isinstance(d, int) or d <= 0
                       for d in shape)):
            raise ValidationError("shm descriptor 'shape' must be a list of positive ints")
        # math.prod keeps arbitrary precision -- adversarial shapes
        # cannot wrap the size check at int64.
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        if nbytes > MAX_SEGMENT_BYTES:
            raise ValidationError(
                f"shm segment of shape {shape} ({nbytes} bytes) exceeds the "
                f"{MAX_SEGMENT_BYTES} byte cap"
            )
        digest = obj.get("digest")
        if (not isinstance(digest, str) or len(digest) != 64
                or any(c not in "0123456789abcdef" for c in digest)):
            raise ValidationError(
                "shm descriptor 'digest' must be a lowercase sha256 hex string"
            )
        return cls(name=name, dtype=dtype, shape=tuple(shape), digest=digest)


class SharedNDArray:
    """A NumPy array living in a shared-memory segment.

    Create with :meth:`create` (owner) or :meth:`attach_descriptor`
    (consumer); the owner should call :meth:`unlink` when done, every
    process :meth:`close`.  Usable as a context manager on the owning
    side.
    """

    def __init__(self, shm: shared_memory.SharedMemory, shape, dtype, *, owner: bool):
        self._shm = shm
        self._owner = owner
        self.array = np.ndarray(shape, dtype=dtype, buffer=shm.buf)

    @classmethod
    def create(cls, shape, dtype) -> "SharedNDArray":
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        if nbytes <= 0:
            raise ValidationError(f"cannot share empty array of shape {shape}")
        # Ownership of the raw segment transfers to the instance (whose
        # __exit__ tears it down); if constructing the view fails we are
        # still on the hook for the segment, hence the explicit unwind.
        shm = shared_memory.SharedMemory(create=True, size=nbytes)  # check: ignore[RES201]
        try:
            return cls(shm, shape, dtype, owner=True)
        except BaseException:
            shm.close()
            shm.unlink()
            raise

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "SharedNDArray":
        out = cls.create(arr.shape, arr.dtype)
        out.array[:] = arr
        return out

    @classmethod
    def attach_descriptor(cls, desc: ShmDescriptor) -> "SharedNDArray":
        """Attach to a wire descriptor's segment, with typed failures.

        A missing segment (the client unlinked it early, or never
        created it) and a descriptor whose claimed view does not fit
        the actual segment both raise :class:`ValidationError` -- the
        caller turns these into JSON error replies, never crashes.
        """
        try:
            shm = _attach_segment(desc.name)
        except FileNotFoundError:
            raise ValidationError(
                f"unknown shared-memory segment {desc.name!r} (already "
                "released, never created, or not visible to the server)"
            ) from None
        # The mapping is live from here on: every exit path below that
        # does not hand ownership to a SharedNDArray must close it.
        if shm.size < desc.nbytes:
            shm.close()
            raise ValidationError(
                f"shm descriptor claims {desc.nbytes} byte(s) "
                f"({desc.dtype}{list(desc.shape)}) but segment "
                f"{desc.name!r} holds only {shm.size}"
            )
        try:
            return cls(shm, desc.shape, np.dtype(desc.dtype), owner=False)
        except BaseException:
            shm.close()
            raise

    @property
    def name(self) -> str:
        """The segment's name, as a descriptor carries it."""
        return self._shm.name

    def close(self) -> None:
        # Drop the view first; closing a segment with live exports fails.
        self.array = None
        self._shm.close()

    def unlink(self) -> None:
        self._shm.unlink()

    def __enter__(self) -> "SharedNDArray":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self._owner:
            self.unlink()


def verify_descriptor_digest(desc: ShmDescriptor, arr: np.ndarray) -> None:
    """Check a mapped view against its descriptor's claimed digest.

    Raises :class:`~repro.utils.errors.CorruptPayloadError` (a
    *retryable* fault: a torn concurrent write heals on re-read) when
    the pixels do not hash to the claim -- tampered or corrupted
    segments are detected before any computation runs.
    """
    from repro.utils.errors import CorruptPayloadError

    actual = array_digest(arr)
    if actual != desc.digest:
        raise CorruptPayloadError(
            f"shared segment {desc.name!r} failed digest verification "
            f"(descriptor claims {desc.digest[:12]}..., pixels hash to "
            f"{actual[:12]}...)",
            site="svc:shmem",
        )


class ShmArena:
    """A refcounted owner of named shared segments.

    The service's reply plane needs segments that outlive one function
    call: the server writes a result, hands the descriptor to the
    client, and must keep the segment alive until the client releases
    it (or disconnects).  The arena is that owner -- every segment it
    mints is tracked by name, released exactly once, and guaranteed
    torn down by :meth:`release_all` however the server exits.

    ``checkout``/``checkin`` cover the read side: repeated checkouts of
    one segment share a single mapping under a refcount, so a client
    pipelining many requests against one image costs one attach.

    All methods are thread-safe only by confinement: the service uses
    the arena from its event-loop thread exactly as it uses the result
    cache.
    """

    def __init__(self, *, max_segments: int = 256):
        if max_segments <= 0:
            raise ValidationError("arena max_segments must be positive")
        self.max_segments = int(max_segments)
        #: name -> (segment, refcount, owned)
        self._segments: dict[str, list] = {}

    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, name: str) -> bool:
        return name in self._segments

    def mint(self, arr: np.ndarray) -> ShmDescriptor:
        """Copy ``arr`` into a fresh owned segment; returns its descriptor.

        The arena owns the segment until :meth:`release` (or
        :meth:`release_all`) unlinks it.
        """
        if len(self._segments) >= self.max_segments:
            raise ValidationError(
                f"shm arena is full ({self.max_segments} live segment(s)); "
                "release reply segments (op 'shm_release') before minting more"
            )
        seg = None
        try:
            seg = SharedNDArray.from_array(np.ascontiguousarray(arr))
            desc = ShmDescriptor.for_array(seg.name, seg.array)
            self._segments[desc.name] = [seg, 1, True]
            seg = None  # ownership transferred to the arena
        finally:
            if seg is not None:
                seg.close()
                seg.unlink()
        return desc

    def checkout(self, desc: ShmDescriptor) -> SharedNDArray:
        """Attach (or re-use the live mapping of) a descriptor's segment."""
        entry = self._segments.get(desc.name)
        if entry is not None:
            entry[1] += 1
            return entry[0]
        seg = SharedNDArray.attach_descriptor(desc)
        self._segments[desc.name] = [seg, 1, False]
        return seg

    def checkin(self, name: str) -> None:
        """Drop one reference; the last checkin of a borrowed segment
        closes the mapping (owned segments stay until released)."""
        entry = self._segments.get(name)
        if entry is None:
            raise ValidationError(
                f"segment {name!r} is not checked out of this arena"
            )
        entry[1] -= 1
        if entry[1] <= 0 and not entry[2]:
            del self._segments[name]
            entry[0].close()

    def release(self, name: str) -> None:
        """Unlink an owned segment exactly once.

        A second release (or a release of a name the arena never
        owned) raises :class:`ValidationError` -- double-release is a
        protocol error the client should hear about, not a silent
        no-op that masks lifetime bugs.
        """
        entry = self._segments.get(name)
        if entry is None or not entry[2]:
            raise ValidationError(
                f"unknown or already-released segment {name!r}"
            )
        del self._segments[name]
        seg = entry[0]
        seg.close()
        seg.unlink()

    def release_all(self) -> int:
        """Tear down every live segment; returns how many were dropped.

        Safe to call repeatedly; used at server shutdown so no reply
        segment can outlive the process (the leakcheck contract).
        """
        n = len(self._segments)
        for name in list(self._segments):
            seg, _refs, owned = self._segments.pop(name)
            seg.close()
            if owned:
                seg.unlink()
        return n

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.release_all()
