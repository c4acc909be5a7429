"""Content-addressed result cache with LRU eviction and byte bounds.

A serving layer for pure functions gets to treat results as values: the
histogram of an image is fully determined by (image bytes, op, params),
so the cache key is a digest of exactly that and nothing else -- no
timestamps, no request ids.  Two different clients sending the same
image therefore share one computation, and a repeated-image workload
(the common case for dashboards and test rigs) is served from memory.

Bounds are enforced on **both** axes: entry count (protects the key
space) and total result bytes (protects the heap -- a components label
map is 8 bytes/pixel, so a handful of large images could otherwise
evict everything useful).  Eviction is least-recently-used; every hit
refreshes recency.  A single result larger than the byte budget is
simply not cached.

The cache is loop-confined by design: :class:`~repro.service.server.
BatchService` only touches it from its event-loop thread, so no lock
is taken on the hot path.  It keeps only its state (the entry map and
the byte total); each hit, miss, eviction and uncacheable put is
counted once, into the owning service's metrics registry, which is
safe to read from any thread.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.runtime.shmem import array_digest as _array_digest
from repro.service.instruments import (
    M_CACHE_EVICTIONS,
    M_CACHE_HITS,
    M_CACHE_MISSES,
    M_CACHE_UNCACHEABLE,
    ServiceInstruments,
)
from repro.utils.errors import ValidationError

#: Default bound on cached entries.
DEFAULT_MAX_ENTRIES = 256

#: Default bound on total cached result bytes (64 MiB).
DEFAULT_MAX_BYTES = 64 << 20


def image_digest(image: np.ndarray) -> str:
    """Content address of an image: sha256 over dtype, shape, and bytes.

    The dtype and shape are folded in so a (64, 64) int32 image and its
    flattened or reinterpreted twin cannot collide.

    This is :func:`repro.runtime.shmem.array_digest` by another name --
    deliberately the *same* function, so the digest a shared-memory
    client stamps into its descriptor and the digest the server computes
    for an ndjson image address the same cache entry.  A zero-copy
    request is keyed by its descriptor's digest without the server ever
    reading a pixel; the bytes are verified in the worker on a miss.
    """
    return _array_digest(image)


def result_key(digest: str, op: str, params) -> str:
    """The cache key of (image digest, op, canonical params)."""
    return f"{op}|{params!r}|{digest}"


@dataclass
class _Entry:
    value: np.ndarray
    nbytes: int = field(default=0)


class ResultCache:
    """LRU cache of ndarray results keyed by content address.

    ``get`` returns the stored array itself (callers copy if they hand
    it out mutably); ``put`` stores without copying.  Both are O(1).
    Event counts go to ``instruments`` (the owning service's registry);
    :meth:`snapshot` reads them back beside the occupancy.
    """

    def __init__(
        self,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
        instruments: ServiceInstruments,
    ):
        if max_entries <= 0:
            raise ValidationError("cache max_entries must be positive")
        if max_bytes <= 0:
            raise ValidationError("cache max_bytes must be positive")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self.instruments = instruments
        #: Total bytes of the cached results.
        self.nbytes = 0
        self._entries: OrderedDict[str, _Entry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> np.ndarray | None:
        """The cached result for ``key`` (refreshing recency), or None."""
        entry = self._entries.get(key)
        if entry is None:
            self.instruments.cache_miss()
            return None
        self._entries.move_to_end(key)
        self.instruments.cache_hit()
        return entry.value

    def put(self, key: str, value: np.ndarray) -> bool:
        """Cache ``value`` under ``key``; returns whether it was stored."""
        value = np.asarray(value)
        nbytes = int(value.nbytes)
        if nbytes > self.max_bytes:
            self.instruments.cache_uncacheable()
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self.nbytes -= old.nbytes
        self._entries[key] = _Entry(value, nbytes)
        self.nbytes += nbytes
        self._evict()
        self.instruments.cache_size(len(self._entries), self.nbytes)
        return key in self._entries

    def _evict(self) -> None:
        while len(self._entries) > self.max_entries or self.nbytes > self.max_bytes:
            _key, entry = self._entries.popitem(last=False)
            self.nbytes -= entry.nbytes
            self.instruments.cache_evicted()

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0
        self.instruments.cache_size(0, 0)

    def snapshot(self) -> dict:
        """The ``cache`` section of the service's ``stats``."""
        count = self.instruments.registry.count
        hits, misses = count(M_CACHE_HITS), count(M_CACHE_MISSES)
        return {
            "hits": hits,
            "misses": misses,
            "evictions": count(M_CACHE_EVICTIONS),
            "uncacheable": count(M_CACHE_UNCACHEABLE),
            "entries": len(self._entries),
            "bytes": self.nbytes,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }
