"""Dependency-free metrics registry with Prometheus-text exposition.

Three instrument kinds — :class:`Counter`, :class:`Gauge`, and
:class:`Histogram` — each optionally carrying a label set, registered in
a :class:`MetricsRegistry` and rendered to the Prometheus text format
0.0.4 by :func:`render_prom`.  The inverse direction is covered by
:func:`parse_prom_text` and a strict :func:`validate_prom_text` checker
(in the spirit of ``validate_chrome_trace``): anything the renderer can
emit round-trips through the validator with zero problems, and the CI
smoke jobs hold the live ``/v1/metrics`` endpoint to the same standard.

Design constraints, in order:

* **No dependencies.**  Stdlib only, importable everywhere (the obs
  package never imports the simulator).
* **Thread-safe.**  All mutations take the registry lock; the campaign
  result-recording path and the coordinator's HTTP threads share one
  registry.
* **Off the hot path.**  Nothing in the simulator's per-cycle loops
  touches a metric; instrumentation happens post-run from ``SimStats``
  and ``TrialResult`` telemetry (see :func:`observe_sim_stats` and
  :func:`observe_trial`), which is why the perf guards stay green with
  the registry compiled in.
"""

from __future__ import annotations

import math
import re
import threading
from typing import NamedTuple

from ..errors import ConfigError

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "SIM_COUNTERS",
    "SimCounter", "DEFAULT_BUCKETS", "render_prom", "parse_prom_text",
    "validate_prom_text", "observe_resumed", "observe_row",
    "observe_sim_stats", "observe_trial", "trial_counts", "trial_retries",
    "worker_restarts",
]

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets: wall-clock seconds from fast microbenchmark
#: trials up through multi-minute shard runs.
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
                   5.0, 10.0, 30.0, 60.0, 120.0, 300.0)


def _check_name(name: str) -> None:
    if not _METRIC_NAME_RE.match(name):
        raise ConfigError(f"invalid metric name {name!r}")


def _check_labelnames(labelnames: tuple[str, ...]) -> None:
    seen = set()
    for label in labelnames:
        if not _LABEL_NAME_RE.match(label):
            raise ConfigError(f"invalid label name {label!r}")
        if label.startswith("__"):
            raise ConfigError(
                f"label name {label!r} is reserved (double underscore)")
        if label == "le":
            raise ConfigError(
                "label name 'le' is reserved for histogram buckets")
        if label in seen:
            raise ConfigError(f"duplicate label name {label!r}")
        seen.add(label)


def _fmt_value(value: float) -> str:
    """Render a sample value the way Prometheus clients do: integers
    without a decimal point, infinities as ``+Inf``/``-Inf``."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value != value:
        return "NaN"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r"\""))


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


class _Metric:
    """Common base: child management keyed by label-value tuples."""

    kind = "untyped"

    def __init__(self, name: str, help: str,
                 labelnames: tuple[str, ...], lock: threading.Lock) -> None:
        _check_name(name)
        _check_labelnames(tuple(labelnames))
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._children: dict[tuple[str, ...], object] = {}
        if not self.labelnames:
            # An unlabeled metric is its own single child.
            self._children[()] = self._new_child()

    def _new_child(self):
        raise NotImplementedError

    def labels(self, **labels: str):
        """Return (creating on demand) the child for this label set."""
        if set(labels) != set(self.labelnames):
            raise ConfigError(
                f"metric {self.name}: labels {sorted(labels)} do not match "
                f"declared labelnames {sorted(self.labelnames)}")
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                self._children[key] = child
        return child

    def _series(self) -> list[tuple[dict, object]]:
        """``(labels_dict, child)`` pairs, sorted for stable rendering."""
        with self._lock:
            items = sorted(self._children.items())
        return [(dict(zip(self.labelnames, key)), child)
                for key, child in items]


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Counter(_Metric):
    """Monotonically increasing count.  Name must end in ``_total``."""

    kind = "counter"

    def __init__(self, name, help, labelnames, lock):
        super().__init__(name, help, labelnames, lock)
        if not name.endswith("_total"):
            raise ConfigError(
                f"counter {name!r} must end in '_total' (convention "
                "enforced so exposition stays uniform)")

    def _new_child(self):
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._only_child().inc(amount)

    def _only_child(self) -> _CounterChild:
        if self.labelnames:
            raise ConfigError(
                f"metric {self.name} has labels; use .labels(...)")
        return self._children[()]  # type: ignore[return-value]

    @property
    def value(self) -> float:
        return self._only_child().value


class _GaugeChild:
    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Metric):
    """A value that can go up and down (queue depths, staleness, ...)."""

    kind = "gauge"

    def _new_child(self):
        return _GaugeChild(self._lock)

    def _only_child(self) -> _GaugeChild:
        if self.labelnames:
            raise ConfigError(
                f"metric {self.name} has labels; use .labels(...)")
        return self._children[()]  # type: ignore[return-value]

    def set(self, value: float) -> None:
        self._only_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._only_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._only_child().dec(amount)

    @property
    def value(self) -> float:
        return self._only_child().value


class _HistogramChild:
    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(self, lock: threading.Lock,
                 buckets: tuple[float, ...]) -> None:
        self._lock = lock
        self.buckets = buckets          # includes the trailing +Inf
        self.counts = [0] * len(buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[i] += 1
                    break

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs as exposed in the text
        format (bucket counts are cumulative, not per-bin)."""
        with self._lock:
            total = 0
            out = []
            for bound, n in zip(self.buckets, self.counts):
                total += n
                out.append((bound, total))
            return out


class Histogram(_Metric):
    """Cumulative histogram with fixed upper-bound buckets.

    ``observe(v)`` increments every bucket whose bound is >= ``v`` at
    render time (stored per-bin, exposed cumulatively); a ``+Inf``
    bucket is always appended so ``_count`` equals the last bucket.
    """

    kind = "histogram"

    def __init__(self, name, help, labelnames, lock,
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigError(f"histogram {name!r} needs at least 1 bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ConfigError(
                f"histogram {name!r} buckets must be strictly increasing")
        if bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.buckets = bounds
        super().__init__(name, help, labelnames, lock)

    def _new_child(self):
        return _HistogramChild(self._lock, self.buckets)

    def _only_child(self) -> _HistogramChild:
        if self.labelnames:
            raise ConfigError(
                f"metric {self.name} has labels; use .labels(...)")
        return self._children[()]  # type: ignore[return-value]

    def observe(self, value: float) -> None:
        self._only_child().observe(value)


class MetricsRegistry:
    """Named metrics with get-or-create registration.

    Re-registering an existing name returns the existing instrument if
    and only if kind and label names match; a mismatch is a
    ``ConfigError`` (silent divergence would corrupt exposition).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list = []

    def _register(self, cls, name: str, help: str,
                  labelnames: tuple[str, ...], **kwargs) -> _Metric:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ConfigError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}")
            if existing.labelnames != labelnames:
                raise ConfigError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.labelnames}, not {labelnames}")
            return existing
        metric = cls(name, help, labelnames, self._lock, **kwargs)
        with self._lock:
            # A racing registration of the same name wins by first
            # insert; re-check under the lock.
            current = self._metrics.setdefault(name, metric)
        return current

    def counter(self, name: str, help: str,
                labelnames: tuple[str, ...] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str,
              labelnames: tuple[str, ...] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str,
                  labelnames: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, labelnames,
                              buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def add_collector(self, refresh) -> None:
        """Call ``refresh()`` at the start of every :meth:`collect`, so
        pull-side state (shard lease gauges, journal tails) is current
        in every view of the registry."""
        self._collectors.append(refresh)

    def collect(self) -> list[dict]:
        """Snapshot every family in renderer order, after running the
        collectors.

        Returns ``[{"name", "type", "help", "series": [...]}]`` where a
        counter/gauge series is ``{"labels": {...}, "value": v}`` and a
        histogram series is ``{"labels": {...}, "buckets": [(le, n)],
        "sum": s, "count": n}`` with cumulative bucket counts.
        """
        for refresh in self._collectors:
            refresh()
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        families = []
        for metric in metrics:
            series = []
            for labels, child in metric._series():
                if metric.kind == "histogram":
                    series.append({
                        "labels": labels,
                        "buckets": child.cumulative(),
                        "sum": child.sum,
                        "count": child.count,
                    })
                else:
                    series.append({"labels": labels, "value": child.value})
            families.append({"name": metric.name, "type": metric.kind,
                             "help": metric.help, "series": series})
        return families

    def render(self) -> str:
        return render_prom(self)


def _render_labels(labels: dict, extra: tuple[tuple[str, str], ...] = ()
                   ) -> str:
    pairs = [(k, str(v)) for k, v in labels.items()] + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def render_prom(registry: MetricsRegistry) -> str:
    """Render the registry as Prometheus text exposition format 0.0.4."""
    lines: list[str] = []
    for family in registry.collect():
        name, kind = family["name"], family["type"]
        lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        for series in family["series"]:
            labels = series["labels"]
            if kind == "histogram":
                for bound, count in series["buckets"]:
                    extra = (("le", _fmt_value(bound)),)
                    lines.append(
                        f"{name}_bucket{_render_labels(labels, extra)} "
                        f"{_fmt_value(count)}")
                lines.append(f"{name}_sum{_render_labels(labels)} "
                             f"{_fmt_value(series['sum'])}")
                lines.append(f"{name}_count{_render_labels(labels)} "
                             f"{_fmt_value(series['count'])}")
            else:
                lines.append(f"{name}{_render_labels(labels)} "
                             f"{_fmt_value(series['value'])}")
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# Parsing / validation
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<ts>-?\d+))?\s*$")

_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*'
    r'"(?P<value>(?:[^"\\]|\\.)*)"\s*(?P<sep>,|$)')


def _parse_value(text: str) -> float | None:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        return None


def _parse_labels(body: str) -> dict | None:
    """Parse the inside of ``{...}``; ``None`` on syntax error or
    duplicate label names."""
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(body):
        match = _LABEL_PAIR_RE.match(body, pos)
        if match is None:
            return None
        name = match.group("name")
        if name in labels:
            return None
        raw = match.group("value")
        labels[name] = (raw.replace(r"\n", "\n").replace(r"\"", '"')
                        .replace(r"\\", "\\"))
        pos = match.end()
        if match.group("sep") == "" and pos < len(body):
            return None
    return labels


def _base_family(sample_name: str, histogram_names: set[str]) -> str:
    """Map a sample name to its family: histogram samples named
    ``X_bucket``/``X_sum``/``X_count`` belong to family ``X``."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[:-len(suffix)]
            if base in histogram_names:
                return base
    return sample_name


def parse_prom_text(text: str) -> tuple[dict, list[str]]:
    """Parse Prometheus text exposition into families.

    Returns ``(families, problems)`` where ``families`` maps family name
    to ``{"type", "help", "samples": [(sample_name, labels, value)]}``.
    ``problems`` collects syntax-level issues; semantic checks live in
    :func:`validate_prom_text`, which builds on this.
    """
    problems: list[str] = []
    families: dict[str, dict] = {}
    histogram_names: set[str] = set()
    sample_order: list[str] = []      # family of each sample, in order
    seen_series: set[tuple] = set()

    if text and not text.endswith("\n"):
        problems.append("exposition does not end with a newline")

    for lineno, line in enumerate(text.split("\n"), start=1):
        if line == "":
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 2 or parts[1] not in ("HELP", "TYPE"):
                continue  # free-form comment: ignored per spec
            if len(parts) < 3:
                problems.append(f"line {lineno}: malformed {parts[1]} line")
                continue
            name = parts[2]
            if not _METRIC_NAME_RE.match(name):
                problems.append(
                    f"line {lineno}: invalid metric name {name!r}")
                continue
            family = families.setdefault(
                name, {"type": None, "help": None, "samples": []})
            if parts[1] == "HELP":
                if family["help"] is not None:
                    problems.append(
                        f"line {lineno}: duplicate HELP for {name}")
                family["help"] = parts[3] if len(parts) > 3 else ""
            else:
                kind = parts[3].strip() if len(parts) > 3 else ""
                if kind not in ("counter", "gauge", "histogram", "summary",
                                "untyped"):
                    problems.append(
                        f"line {lineno}: unknown TYPE {kind!r} for {name}")
                if family["type"] is not None:
                    problems.append(
                        f"line {lineno}: duplicate TYPE for {name}")
                elif family["samples"]:
                    problems.append(
                        f"line {lineno}: TYPE for {name} after samples")
                family["type"] = kind
                if kind == "histogram":
                    histogram_names.add(name)
            continue

        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        sample_name = match.group("name")
        label_body = match.group("labels")
        labels = {} if label_body is None else _parse_labels(label_body)
        if labels is None:
            problems.append(
                f"line {lineno}: bad label syntax in {line!r}")
            continue
        value = _parse_value(match.group("value"))
        if value is None:
            problems.append(
                f"line {lineno}: bad sample value {match.group('value')!r}")
            continue
        base = _base_family(sample_name, histogram_names)
        family = families.setdefault(
            base, {"type": None, "help": None, "samples": []})
        series_key = (sample_name, tuple(sorted(labels.items())))
        if series_key in seen_series:
            problems.append(
                f"line {lineno}: duplicate series {sample_name}"
                f"{sorted(labels.items())}")
        seen_series.add(series_key)
        family["samples"].append((sample_name, labels, value))
        sample_order.append(base)

    # Family contiguity: once another family's samples appear, a family
    # must not resume (prometheus scrapers reject interleaved groups).
    last_seen: dict[str, int] = {}
    for idx, base in enumerate(sample_order):
        if base in last_seen and last_seen[base] != idx - 1:
            problems.append(f"samples for family {base} are not contiguous")
        last_seen[base] = idx
    return families, problems


def validate_prom_text(text: str) -> list[str]:
    """Strictly validate Prometheus text exposition.

    Returns a list of problems (empty when valid).  On top of
    :func:`parse_prom_text` syntax checks this enforces: every family
    has HELP and TYPE, counters end in ``_total`` and are non-negative,
    histogram series carry a ``+Inf`` bucket with monotone cumulative
    counts, ``_count`` equals the ``+Inf`` bucket, and ``_sum`` is
    present exactly once per label set.
    """
    families, problems = parse_prom_text(text)
    for name, family in sorted(families.items()):
        kind = family["type"]
        if kind is None:
            problems.append(f"family {name} has samples but no TYPE")
            continue
        if family["help"] is None:
            problems.append(f"family {name} has no HELP")
        if not family["samples"]:
            # HELP/TYPE with no samples is legal (empty family).
            continue
        if kind == "counter":
            if not name.endswith("_total"):
                problems.append(
                    f"counter {name} does not end in '_total'")
            for sample_name, labels, value in family["samples"]:
                if sample_name != name:
                    problems.append(
                        f"counter {name} has stray sample {sample_name}")
                if value < 0:
                    problems.append(
                        f"counter {name}{sorted(labels.items())} is "
                        f"negative ({value})")
        elif kind == "gauge":
            for sample_name, _labels, _value in family["samples"]:
                if sample_name != name:
                    problems.append(
                        f"gauge {name} has stray sample {sample_name}")
        elif kind == "histogram":
            problems.extend(_validate_histogram(name, family["samples"]))
    return problems


def _validate_histogram(name: str, samples: list) -> list[str]:
    problems: list[str] = []
    by_labelset: dict[tuple, dict] = {}
    for sample_name, labels, value in samples:
        if sample_name == f"{name}_bucket":
            if "le" not in labels:
                problems.append(f"histogram {name} bucket without 'le'")
                continue
            rest = tuple(sorted((k, v) for k, v in labels.items()
                                if k != "le"))
            entry = by_labelset.setdefault(
                rest, {"buckets": [], "sum": None, "count": None})
            bound = _parse_value(labels["le"])
            if bound is None:
                problems.append(
                    f"histogram {name} has unparseable le="
                    f"{labels['le']!r}")
                continue
            entry["buckets"].append((bound, value))
        elif sample_name in (f"{name}_sum", f"{name}_count"):
            rest = tuple(sorted(labels.items()))
            entry = by_labelset.setdefault(
                rest, {"buckets": [], "sum": None, "count": None})
            key = "sum" if sample_name.endswith("_sum") else "count"
            if entry[key] is not None:
                problems.append(
                    f"histogram {name}{list(rest)} has duplicate _{key}")
            entry[key] = value
        else:
            problems.append(
                f"histogram {name} has stray sample {sample_name}")
    for labelset, entry in sorted(by_labelset.items()):
        where = f"histogram {name}{list(labelset)}"
        buckets = sorted(entry["buckets"])
        if not buckets or buckets[-1][0] != math.inf:
            problems.append(f"{where} is missing the le=\"+Inf\" bucket")
        prev = -math.inf
        for _bound, count in buckets:
            if count < prev:
                problems.append(
                    f"{where} bucket counts are not monotone")
                break
            prev = count
        if entry["count"] is None:
            problems.append(f"{where} is missing _count")
        elif buckets and buckets[-1][0] == math.inf \
                and entry["count"] != buckets[-1][1]:
            problems.append(
                f"{where} _count ({entry['count']}) != +Inf bucket "
                f"({buckets[-1][1]})")
        if entry["sum"] is None:
            problems.append(f"{where} is missing _sum")
    return problems


# ----------------------------------------------------------------------
# Stack instrumentation helpers (the single source of metric names)
# ----------------------------------------------------------------------

class SimCounter(NamedTuple):
    """Where one exported ``SimStats`` counter is counted."""

    family: str
    help: str
    #: Fixed label values of this counter's series within the family.
    labels: tuple[tuple[str, str], ...] = ()
    #: For a dict-valued counter: the label its keys become.
    key_label: str | None = None


_CACHE_HELP = "Cache accesses by level and outcome."

#: The ``SimStats`` counters a trial exports, by attribute name: the
#: only list of them.  ``run_trial`` copies exactly these into
#: ``TrialResult.telemetry``, :func:`observe_sim_stats` counts them, and
#: the campaign heartbeat reports each under its own name.
SIM_COUNTERS = {
    "instructions": SimCounter(
        "repro_sim_instructions_total",
        "Instructions executed by the simulator."),
    "stall_cycles": SimCounter(
        "repro_stall_cycles_total",
        "Warp-cycles stalled, attributed by cause (paper Fig. 13 "
        "accounting).", key_label="cause"),
    "l1_hits": SimCounter("repro_sim_cache_events_total", _CACHE_HELP,
                          (("level", "l1"), ("event", "hits"))),
    "l1_misses": SimCounter("repro_sim_cache_events_total", _CACHE_HELP,
                            (("level", "l1"), ("event", "misses"))),
    "superblocks_executed": SimCounter(
        "repro_sim_superblocks_total",
        "Superblock-vectorized windows executed."),
    "superblock_fallbacks": SimCounter(
        "repro_sim_superblock_fallbacks_total",
        "Superblock windows that fell back to scalar execution, by "
        "reason.", key_label="reason"),
    "mem_windows_executed": SimCounter(
        "repro_sim_mem_windows_total", "SM-level memory windows executed."),
    "mem_window_insts": SimCounter(
        "repro_sim_mem_window_insts_total",
        "Instructions retired inside memory windows."),
}


def observe_sim_stats(registry: MetricsRegistry, counters,
                      labels: dict | None = None) -> None:
    """Fold one run's exported simulator counters into the registry.

    ``counters`` maps :data:`SIM_COUNTERS` names to their values (a
    missing name counts as zero); ``labels`` (e.g. ``{"workload": ...,
    "scheme": ...}``) scopes every series.  Zero amounts add no series.
    """
    labels = dict(labels or {})
    for name, spec in SIM_COUNTERS.items():
        series = dict(labels, **dict(spec.labels))
        labelnames = tuple(series)
        if spec.key_label is not None:
            labelnames += (spec.key_label,)
        metric = registry.counter(spec.family, spec.help, labelnames)
        value = counters.get(name)
        if not value:
            continue
        if spec.key_label is None:
            metric.labels(**series).inc(value)
            continue
        for key, amount in value.items():
            if amount:
                metric.labels(**series, **{spec.key_label: key}).inc(amount)


#: ``TrialResult`` flags counted as ``repro_trial_accel_total{kind=...}``.
_ACCEL_KINDS = ("fast_start", "converged", "golden_cache_hit",
                "golden_shared")


def observe_row(registry: MetricsRegistry, row,
                shard_id: int | None = None) -> None:
    """Count one trial row: its verdict and its simulated cycles.

    This is all a row read back from a journal adds, because journal
    rows carry no telemetry; a freshly executed trial goes through
    :func:`observe_trial` instead.
    """
    labelnames = ("workload", "scheme", "site", "verdict")
    labels = {"workload": row.workload, "scheme": row.scheme,
              "site": row.site, "verdict": row.outcome}
    if shard_id is not None:
        labelnames += ("shard",)
        labels["shard"] = str(shard_id)
    registry.counter(
        "repro_trials_total",
        "Finished fault-injection trials by cell and verdict.",
        labelnames).labels(**labels).inc()
    registry.counter(
        "repro_trial_cycles_total",
        "Simulated cycles consumed by finished trials.",
        ("workload", "scheme")).labels(
            workload=row.workload, scheme=row.scheme).inc(row.cycles)


def observe_trial(registry: MetricsRegistry, result,
                  shard_id: int | None = None) -> None:
    """Fold one freshly executed ``TrialResult`` into the registry: its
    row, wall time, accelerations and exported simulator counters."""
    observe_row(registry, result, shard_id)
    registry.histogram(
        "repro_trial_wall_seconds",
        "Wall-clock seconds per trial (simulation + verification).",
        ("workload", "scheme")).labels(
            workload=result.workload,
            scheme=result.scheme).observe(result.wall_time_s)
    accel = registry.counter(
        "repro_trial_accel_total",
        "Trial accelerations by kind (checkpoint fast-starts, "
        "convergence early exits, golden-result cache hits).", ("kind",))
    for kind in _ACCEL_KINDS:
        if getattr(result, kind):
            accel.labels(kind=kind).inc()
    observe_sim_stats(registry, result.telemetry,
                      {"workload": result.workload, "scheme": result.scheme,
                       "site": result.site})


def observe_resumed(registry: MetricsRegistry, rows) -> None:
    """Count the rows a resumed campaign read back from its journal:
    each as a row, and all of them in ``repro_trials_resumed_total``."""
    for row in rows:
        observe_row(registry, row)
    registry.counter(
        "repro_trials_resumed_total",
        "Trial rows read back from a journal when a campaign resumed.",
    ).inc(len(rows))


def trial_retries(registry: MetricsRegistry) -> Counter:
    """The counter of trial executions retried after a fault."""
    return registry.counter(
        "repro_trial_retries_total",
        "Trial executions retried after an infrastructure fault.")


def worker_restarts(registry: MetricsRegistry) -> Counter:
    """The counter of worker processes restarted by a backend."""
    return registry.counter("repro_worker_restarts_total",
                            "Worker processes restarted by the backend.")


def trial_counts(registry: MetricsRegistry
                 ) -> dict[tuple[str, str, str], dict[str, int]]:
    """Aggregate ``repro_trials_total`` back into per-cell verdict
    counts: ``{(workload, scheme, site): {verdict: n}}``.  Sums across
    the optional ``shard`` label; used by the live dashboard's
    Wilson-CI table."""
    metric = registry.get("repro_trials_total")
    out: dict[tuple[str, str, str], dict[str, int]] = {}
    if metric is None:
        return out
    for labels, child in metric._series():
        key = (labels.get("workload", ""), labels.get("scheme", ""),
               labels.get("site", ""))
        verdict = labels.get("verdict", "")
        cell = out.setdefault(key, {})
        cell[verdict] = cell.get(verdict, 0) + int(child.value)
    return out
