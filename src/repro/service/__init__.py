"""repro.service: async batch serving with caching and backpressure.

The serving layer turns the batch engines into an always-on facility:
requests stream in (over a local socket or the in-process client),
compatible ones coalesce into micro-batches on a shared supervised
worker pool, results are content-address cached, and overload is shed
at the door instead of queued into oblivion.  See ``docs/SERVICE.md``.
"""

from repro.service.admission import (
    DEFAULT_QUEUE_DEPTH,
    AdmissionQueue,
    PendingRequest,
)
from repro.service.batcher import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_DELAY_S,
    BatchKey,
    MicroBatcher,
)
from repro.service.cache import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MAX_ENTRIES,
    ResultCache,
    image_digest,
    result_key,
)
from repro.service.health import CircuitBreaker, HealthMonitor
from repro.service.instruments import ServiceInstruments
from repro.service.lines import (
    SUN_PATH_MAX,
    check_socket_path,
    request_over_socket,
    socket_dir,
)
from repro.service.ops import (
    OPS,
    canonical_params,
    compute,
    materialize_request_image,
)
from repro.service.router import (
    HashRing,
    RouterConfig,
    RouterInstruments,
    ShardProcess,
    ShardRouter,
)
from repro.service.server import (
    WIRES,
    BatchExecutor,
    BatchService,
    Client,
    ServiceConfig,
    ServiceServer,
    decode_array,
    encode_array,
)
from repro.service.wire import WireClient, raise_reply_error

__all__ = [
    "AdmissionQueue",
    "BatchExecutor",
    "BatchKey",
    "BatchService",
    "CircuitBreaker",
    "Client",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MAX_DELAY_S",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_QUEUE_DEPTH",
    "HashRing",
    "HealthMonitor",
    "MicroBatcher",
    "OPS",
    "PendingRequest",
    "ResultCache",
    "RouterConfig",
    "RouterInstruments",
    "SUN_PATH_MAX",
    "ServiceConfig",
    "ServiceInstruments",
    "ServiceServer",
    "ShardProcess",
    "ShardRouter",
    "WIRES",
    "WireClient",
    "canonical_params",
    "check_socket_path",
    "compute",
    "decode_array",
    "encode_array",
    "image_digest",
    "materialize_request_image",
    "raise_reply_error",
    "request_over_socket",
    "result_key",
    "socket_dir",
]
