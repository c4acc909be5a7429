"""Arrays shared between processes through ``memfd`` files.

A memfd is an anonymous file: its pages go when its last fd or mapping
goes, so a process that dies -- SIGKILL included -- leaves nothing
behind, and no name is made in ``/dev/shm``.  Its producer holds the
fd; any other process reaches the file as ``/proc/<pid>/fd/<fd>``
through :func:`open_memfd`, which checks that the fd still names the
file it expects.  That needs the same host, the same user and the same
PID namespace, and it is Linux only.

Two planes share memory this way:

* the distributed array's ``shmem`` transport, whose job file
  (:func:`repro.runtime.dispatch.job_file`) holds a job's labels and
  image;
* the service's **zero-copy wire**: :func:`share_array` writes an array
  into a memfd, :class:`ShmDescriptor` (a validated, JSON-able,
  content-addressed handle: pid / fd / inode / dtype / shape / digest)
  names it, and :class:`ShmArena` holds the service's reply files until
  they are released.  The unix socket carries only the descriptor;
  pixels never touch the wire.
"""

from __future__ import annotations

import hashlib
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ValidationError

#: dtypes a shared array may carry over the wire (mirrors the ndjson
#: wire's integer dtypes; the service ops are integer-image ops).
SHARABLE_DTYPES = ("uint8", "int8", "uint16", "int16", "int32", "int64")

#: Hard cap on one shared array (matches the ndjson request cap, so
#: neither wire can make a worker read more than this).
MAX_SEGMENT_BYTES = 64 << 20

#: The name of every memfd this package makes starts with this.
MEMFD_PREFIX = "repro-"

#: How ``/proc/<pid>/fd/<n>`` reads for such a memfd.
MEMFD_TAG = "/memfd:" + MEMFD_PREFIX


def new_memfd(use: str) -> int:
    """A new empty memfd named ``repro-<use>``; the caller closes its fd."""
    return os.memfd_create(MEMFD_PREFIX + use, os.MFD_CLOEXEC)


def pwrite_array(fd: int, arr: np.ndarray, offset: int = 0) -> None:
    """Write ``arr``'s bytes, in C order, into file ``fd`` at ``offset``."""
    data = np.ascontiguousarray(arr).reshape(-1).view(np.uint8)
    written = 0
    while written < data.size:
        written += os.pwrite(fd, data[written:], offset + written)


def open_memfd(pid: int, fd: int, inode: int, nbytes: int, *,
               writable: bool = False) -> int:
    """Open fd ``fd`` of process ``pid``: the one way to reach another
    process's memfd.

    Accepts only a regular file that is a memfd of this package, whose
    inode is ``inode`` and that holds at least ``nbytes``, so a closed or
    reused fd number, a pipe, a socket, a file on disk or a process that
    is gone each raise :class:`ValidationError`.  The open never blocks,
    even on a pipe.  Returns the new fd, which the caller closes.
    """
    flags = (os.O_RDWR if writable else os.O_RDONLY) | os.O_NONBLOCK | os.O_CLOEXEC
    try:
        own = os.open(f"/proc/{pid}/fd/{fd}", flags)
    except OSError as exc:
        raise ValidationError(
            f"cannot open fd {fd} of process {pid}: {exc.strerror}"
        ) from None
    try:
        st = os.fstat(own)
        target = os.readlink(f"/proc/self/fd/{own}")
        if (not stat.S_ISREG(st.st_mode) or not target.startswith(MEMFD_TAG)
                or st.st_ino != inode):
            raise ValidationError(
                f"fd {fd} of process {pid} is {target!r} (inode {st.st_ino}), "
                f"not a {MEMFD_PREFIX}* memfd of inode {inode}"
            )
        if st.st_size < nbytes:
            raise ValidationError(
                f"shm descriptor claims {nbytes} byte(s) but fd {fd} of "
                f"process {pid} holds only {st.st_size}"
            )
    except BaseException:
        os.close(own)
        raise
    return own


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


def _wire_int(obj: dict, key: str, low: int) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValidationError(f"shm descriptor {key!r} must be an integer >= {low}")
    return value


@dataclass(frozen=True)
class ShmDescriptor:
    """A validated wire handle for an array in a producer's memfd.

    The descriptor is everything the socket carries for a zero-copy
    request or reply: which file (fd ``fd`` of process ``pid``, whose
    inode is ``inode``), how to view it (``dtype``, ``shape``), and what
    its pixels hash to (``digest`` -- sha256 over dtype/shape/bytes,
    computed by the *producer* so consumers can key caches without
    touching a single pixel).
    """

    pid: int
    fd: int
    inode: int
    dtype: str
    shape: tuple[int, ...]
    digest: str

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * np.dtype(self.dtype).itemsize

    def to_wire(self) -> dict:
        return {
            "pid": self.pid,
            "fd": self.fd,
            "inode": self.inode,
            "dtype": self.dtype,
            "shape": list(self.shape),
            "digest": self.digest,
        }

    @classmethod
    def from_wire(cls, obj) -> "ShmDescriptor":
        """Parse and strictly validate a wire descriptor object.

        Every rejection is a typed :class:`ValidationError`: an invalid
        descriptor must produce a JSON error reply and never reach a
        pool worker.
        """
        if not isinstance(obj, dict):
            raise ValidationError("shm descriptor must be an object")
        pid = _wire_int(obj, "pid", 1)
        fd = _wire_int(obj, "fd", 0)
        inode = _wire_int(obj, "inode", 1)
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
                f"shm array of shape {shape} ({nbytes} bytes) exceeds the "
                f"{MAX_SEGMENT_BYTES} byte cap"
            )
        digest = obj.get("digest")
        if (not isinstance(digest, str) or len(digest) != 64
                or any(c not in "0123456789abcdef" for c in digest)):
            raise ValidationError(
                "shm descriptor 'digest' must be a lowercase sha256 hex string"
            )
        return cls(pid=pid, fd=fd, inode=inode, dtype=dtype, shape=tuple(shape),
                   digest=digest)

    def read(self) -> np.ndarray:
        """Copy the array out of its producer's file, not yet verified.

        The file is open only for the copy, so a producer that closes it
        right after cannot fault the computation.  A file that is not
        the one named, or too small, raises :class:`ValidationError`.
        """
        fd = open_memfd(self.pid, self.fd, self.inode, self.nbytes)
        try:
            out = np.empty(self.shape, dtype=self.dtype)
            buf = memoryview(out.reshape(-1).view(np.uint8))
            done = 0
            while done < len(buf):
                n = os.preadv(fd, [buf[done:]], done)
                if n == 0:
                    raise ValidationError(
                        f"fd {self.fd} of process {self.pid} shrank to "
                        f"{done} byte(s) while it was read"
                    )
                done += n
        finally:
            os.close(fd)
        return out


def share_array(arr: np.ndarray) -> ShmDescriptor:
    """Write ``arr`` into a new memfd of this process; its descriptor.

    The caller owns the file's fd, ``desc.fd``: it keeps the array
    readable until the caller closes it with :func:`os.close`.
    """
    arr = np.ascontiguousarray(arr)
    fd = new_memfd("wire")
    try:
        pwrite_array(fd, arr)
        return ShmDescriptor(
            pid=os.getpid(),
            fd=fd,
            inode=os.fstat(fd).st_ino,
            dtype=str(arr.dtype),
            shape=tuple(int(d) for d in arr.shape),
            digest=array_digest(arr),
        )
    except BaseException:
        os.close(fd)
        raise


def verify_descriptor_digest(desc: ShmDescriptor, arr: np.ndarray) -> None:
    """Check a copied-out array against its descriptor's claimed digest.

    Raises :class:`~repro.utils.errors.CorruptPayloadError` (a
    *retryable* fault: a torn concurrent write heals on re-read) when
    the pixels do not hash to the claim -- tampered or corrupted
    files are detected before any computation runs.
    """
    from repro.utils.errors import CorruptPayloadError

    actual = array_digest(arr)
    if actual != desc.digest:
        raise CorruptPayloadError(
            f"shared array (fd {desc.fd} of process {desc.pid}) failed digest "
            f"verification (descriptor claims {desc.digest[:12]}..., pixels "
            f"hash to {actual[:12]}...)",
            site="svc:shmem",
        )


class ShmArena:
    """The service's reply files, each held until it is released.

    The server writes a result, hands the descriptor to the client, and
    must keep the file readable until the client releases it (or
    disconnects).  The arena holds one fd per live reply, keyed by the
    reply's inode -- the release key, so a reused fd number can never
    release another reply -- closes each exactly once, and closes every
    one in :meth:`release_all` however the server stops.  A server that
    dies holds nothing: its files go with its fds.

    All methods are thread-safe only by confinement: the service uses
    the arena from its event-loop thread exactly as it uses the result
    cache.
    """

    def __init__(self, *, max_segments: int = 256):
        if max_segments <= 0:
            raise ValidationError("arena max_segments must be positive")
        self.max_segments = int(max_segments)
        #: inode -> fd of every live reply file.
        self._files: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._files)

    def __contains__(self, inode: int) -> bool:
        return inode in self._files

    def mint(self, arr: np.ndarray) -> ShmDescriptor:
        """Copy ``arr`` into a fresh reply file; returns its descriptor.

        The arena holds the file until :meth:`release` (or
        :meth:`release_all`) closes it.
        """
        if len(self._files) >= self.max_segments:
            raise ValidationError(
                f"shm arena is full ({self.max_segments} live reply file(s)); "
                "release replies (op 'shm_release') before minting more"
            )
        desc = share_array(arr)
        self._files[desc.inode] = desc.fd
        return desc

    def release(self, inode: int) -> None:
        """Close a reply file exactly once.

        A second release (or a release of an inode the arena never
        held) raises :class:`ValidationError` -- double-release is a
        protocol error the client should hear about, not a silent
        no-op that masks lifetime bugs.
        """
        fd = self._files.pop(inode, None)
        if fd is None:
            raise ValidationError(f"unknown or already-released reply {inode!r}")
        os.close(fd)

    def release_all(self) -> int:
        """Close every live reply file; returns how many were closed.

        Safe to call repeatedly; used at server shutdown so no reply
        file outlives the server (the leakcheck contract).
        """
        files, self._files = self._files, {}
        for fd in files.values():
            os.close(fd)
        return len(files)

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.release_all()
