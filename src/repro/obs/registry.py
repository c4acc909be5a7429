"""A metrics registry: counters, gauges, and log-bucketed histograms.

The service tier needs *distributions*, not lifetime means: a p99 that
doubles under load is invisible in ``total_wait_s / admitted``.  This
module is the minimal metrics plane for that -- three instrument kinds
registered by name (plus label sets), a Prometheus text exposition for
scrapers, and a JSON snapshot for time-series files:

* :class:`Counter` -- monotone float, ``inc()``;
* :class:`Gauge`   -- settable float, ``set()``/``inc()``/``dec()``;
* :class:`Histogram` -- log-bucketed observations with quantile
  extraction.  Buckets grow geometrically (factor ``2**(1/8)``, about
  9% per bucket) from 1 microsecond to beyond an hour, so any latency
  the service can produce lands in a bucket whose *relative* width is
  constant -- quantiles are accurate to one bucket's relative error at
  every magnitude, which is what latency monitoring needs (an exact
  p50 of 230us and a reported 242us are the same answer; a p99 of 8ms
  reported as 80ms is not).

Histograms with the same bucket bounds **merge** by adding counts --
associatively and commutatively -- which is the property the sharded
service tier (ROADMAP item 2) needs to aggregate per-shard latency
into a fleet view; ``tests/test_obs_registry.py`` proves it with
Hypothesis.

Thread-safety: every mutation takes the owning registry's lock.  The
cost (an uncontended lock acquire, ~100ns) is noise next to the pool
dispatch the instrumented paths wrap, and it makes the registry safe
to share between the event loop, the executor thread, and scrapers.
"""

from __future__ import annotations

import json
import math
import threading
import time
from typing import Iterable, Mapping

from repro.utils.errors import ValidationError

#: Schema tag of the JSON time-series snapshot.
TIMESERIES_SCHEMA = "repro-obs-timeseries/v1"

#: Geometric bucket growth: 2**(1/8) per bucket (~9.05% relative width).
BUCKET_GROWTH = 2.0 ** 0.125

#: First finite upper bound, seconds (1 microsecond).
BUCKET_BASE = 1e-6

#: Finite bucket count: 1us growing 9%/bucket covers past 5000s.
BUCKET_COUNT = 264

#: The shared finite upper bounds (one +Inf bucket is implicit).
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    BUCKET_BASE * BUCKET_GROWTH**i for i in range(BUCKET_COUNT)
)

_LN_GROWTH = math.log(BUCKET_GROWTH)

_LABEL_OK = set("abcdefghijklmnopqrstuvwxyz0123456789_")


def _check_name(name: str) -> str:
    if not name or not set(name.lower()) <= (_LABEL_OK | {":"}):
        raise ValidationError(f"invalid metric name {name!r}")
    return name


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (depths, occupancy, bytes)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Log-bucketed observations with quantile extraction and merge.

    ``buckets[i]`` counts observations ``<= BUCKET_BOUNDS[i]`` (and
    above the previous bound); ``buckets[-1]`` is the +Inf overflow.
    Negative observations are clamped to zero (they can only arise
    from clock wobble) and land in the first bucket.
    """

    __slots__ = ("_lock", "buckets", "count", "sum")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.buckets = [0] * (BUCKET_COUNT + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = max(float(value), 0.0)
        if value <= BUCKET_BASE:
            idx = 0
        else:
            # ceil of the geometric index; guard the top into +Inf.
            idx = math.ceil(math.log(value / BUCKET_BASE) / _LN_GROWTH)
            idx = min(max(idx, 0), BUCKET_COUNT)
        with self._lock:
            self.buckets[idx] += 1
            self.count += 1
            self.sum += value

    def quantile(self, q: float) -> float:
        """The q-quantile (0..1) interpolated within its bucket.

        Empty histograms return 0.0.  Observations in the overflow
        bucket report the last finite bound (a floor, clearly wrong
        only when >1h latencies are common -- at which point no
        quantile number helps).
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError("quantile must be in [0, 1]")
        with self._lock:
            total = self.count
            if total == 0:
                return 0.0
            rank = q * total
            cum = 0
            for idx, n in enumerate(self.buckets):
                if n == 0:
                    continue
                if cum + n >= rank:
                    if idx >= BUCKET_COUNT:
                        return BUCKET_BOUNDS[-1]
                    hi = BUCKET_BOUNDS[idx]
                    lo = BUCKET_BOUNDS[idx - 1] if idx > 0 else 0.0
                    frac = (rank - cum) / n
                    return lo + (hi - lo) * frac
                cum += n
            return BUCKET_BOUNDS[-1]

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram."""
        with self._lock:
            for i, n in enumerate(other.buckets):
                self.buckets[i] += n
            self.count += other.count
            self.sum += other.sum


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """All instruments sharing one metric name (one per label set)."""

    __slots__ = ("name", "kind", "help", "unit", "label_names", "children")

    def __init__(self, name: str, kind: str, help: str, unit: str | None,
                 label_names: tuple[str, ...]):
        self.name = name
        self.kind = kind
        self.help = help
        self.unit = unit
        self.label_names = label_names
        self.children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}


class MetricsRegistry:
    """Named metric families with label support and two exposition forms.

    Instruments are created on first touch::

        reg = MetricsRegistry()
        reg.counter("repro_requests_total", "Requests received",
                    labels={"op": "histogram"}).inc()
        reg.histogram("repro_request_latency_seconds",
                      "End-to-end latency", unit="seconds",
                      labels={"op": "histogram"}).observe(0.0023)

    A family's label *names* are fixed by its first registration;
    registering the same name with a different kind or label-name set
    raises, because a scraper cannot make sense of such a family.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # -- instrument access -------------------------------------------------

    def counter(self, name: str, help: str = "", *, unit: str | None = None,
                labels: Mapping[str, str] | None = None) -> Counter:
        return self._child(name, "counter", help, unit, labels)

    def gauge(self, name: str, help: str = "", *, unit: str | None = None,
              labels: Mapping[str, str] | None = None) -> Gauge:
        return self._child(name, "gauge", help, unit, labels)

    def histogram(self, name: str, help: str = "", *, unit: str | None = None,
                  labels: Mapping[str, str] | None = None) -> Histogram:
        return self._child(name, "histogram", help, unit, labels)

    def _child(self, name, kind, help, unit, labels):
        _check_name(name)
        labels = dict(labels or {})
        label_names = tuple(sorted(labels))
        label_values = tuple(str(labels[k]) for k in label_names)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = _Family(
                    name, kind, help, unit, label_names
                )
            elif family.kind != kind or family.label_names != label_names:
                raise ValidationError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {list(family.label_names)}"
                )
            child = family.children.get(label_values)
            if child is None:
                child = family.children[label_values] = _KINDS[kind](self._lock)
            return child

    def families(self) -> Iterable[_Family]:
        with self._lock:
            return [self._families[k] for k in sorted(self._families)]

    def family(self, name: str) -> _Family | None:
        """The family registered under ``name``, or None."""
        with self._lock:
            return self._families.get(name)

    def count(self, name: str) -> int:
        """A counter family's total over all its label sets (0 while
        the family is unregistered, i.e. before its first event)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return 0
            if family.kind != "counter":
                raise ValidationError(f"metric {name!r} is a {family.kind}, not a counter")
            return int(sum(c.value for c in family.children.values()))

    # -- exposition --------------------------------------------------------

    def prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4)."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for values, child in sorted(family.children.items()):
                labelled = dict(zip(family.label_names, values))
                if family.kind == "histogram":
                    lines.extend(_histogram_lines(family.name, labelled, child))
                else:
                    lines.append(
                        f"{family.name}{_labels_text(labelled)} {_num(child.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict:
        """A JSON-ready sample of every instrument (for time series).

        Histograms are summarized (count, sum, p50/p95/p99) rather than
        dumped bucket-by-bucket: the time-series file is for trend
        lines, the Prometheus exposition is for full distributions.
        """
        metrics: list[dict] = []
        for family in self.families():
            for values, child in sorted(family.children.items()):
                entry: dict = {
                    "name": family.name,
                    "kind": family.kind,
                    "labels": dict(zip(family.label_names, values)),
                }
                if family.unit:
                    entry["unit"] = family.unit
                if family.kind == "histogram":
                    entry.update(
                        count=child.count,
                        sum=child.sum,
                        p50=child.quantile(0.50),
                        p95=child.quantile(0.95),
                        p99=child.quantile(0.99),
                    )
                else:
                    entry["value"] = child.value
                metrics.append(entry)
        return {
            "schema": TIMESERIES_SCHEMA,
            "t_unix_s": time.time(),
            "metrics": metrics,
        }


def _num(value: float) -> str:
    """Prometheus-friendly number: integers bare, floats repr'd."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _labels_text(labels: Mapping[str, str], extra: Mapping[str, str] | None = None) -> str:
    merged = {**labels, **(extra or {})}
    if not merged:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in merged.items())
    return "{" + inner + "}"


def _histogram_lines(name: str, labels: Mapping[str, str], hist: Histogram) -> list[str]:
    lines = []
    cum = 0
    for bound, n in zip(BUCKET_BOUNDS, hist.buckets):
        cum += n
        if n == 0:
            continue  # emit occupied buckets only; cumulative counts survive
        lines.append(
            f"{name}_bucket{_labels_text(labels, {'le': repr(bound)})} {cum}"
        )
    cum += hist.buckets[-1]
    lines.append(f"{name}_bucket{_labels_text(labels, {'le': '+Inf'})} {cum}")
    lines.append(f"{name}_sum{_labels_text(labels)} {_num(hist.sum)}")
    lines.append(f"{name}_count{_labels_text(labels)} {hist.count}")
    return lines


def parse_prometheus_text(text: str) -> dict[str, dict]:
    """Parse an exposition back into ``{name: {"type":..., "samples":...}}``.

    Deliberately minimal -- enough for CI to assert a scrape is
    well-formed and for tests to read values back.  Unparsable lines
    raise :class:`~repro.utils.errors.ValidationError`.
    """
    families: dict[str, dict] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            try:
                _, _, name, kind = line.split(None, 3)
            except ValueError:
                raise ValidationError(f"bad TYPE line: {raw!r}") from None
            families.setdefault(name, {"type": kind, "samples": []})
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            head, _, rest = line.partition("{")
            labels_text, _, tail = rest.partition("}")
            value_text = tail.strip()
        else:
            head, _, value_text = line.partition(" ")
            labels_text = ""
        sample_name = head.strip()
        try:
            value = float(value_text)
        except ValueError:
            raise ValidationError(f"bad sample line: {raw!r}") from None
        labels = {}
        if labels_text:
            for part in labels_text.split(","):
                key, _, val = part.partition("=")
                if not val.startswith('"') or not val.endswith('"'):
                    raise ValidationError(f"bad label in line: {raw!r}")
                labels[key.strip()] = val[1:-1]
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in families:
                base = base[: -len(suffix)]
                break
        family = families.setdefault(base, {"type": "untyped", "samples": []})
        family["samples"].append(
            {"name": sample_name, "labels": labels, "value": value}
        )
    return families


def write_timeseries(path, samples: list[dict]) -> dict:
    """Write accumulated :meth:`MetricsRegistry.snapshot` samples as JSON."""
    payload = {"schema": TIMESERIES_SCHEMA, "samples": samples}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return payload
