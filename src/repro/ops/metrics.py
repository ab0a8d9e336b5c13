"""The metrics registry, where the owners of counts keep them, and its rendering.

Each owner of operational numbers — :class:`~repro.interop.relay.RelayService`,
:class:`~repro.net.RelayServer`, :class:`~repro.api.MetricsInterceptor`,
:class:`~repro.assets.metrics.ExchangeMetrics` — creates its *instruments*
(:class:`Counter` / :class:`Gauge` / :class:`Histogram`) at construction
on a :class:`MetricsRegistry` it owns, and its in-process reads
(``relay.stats.requests_served``, ``snapshot()``) are views over those
instruments. :mod:`repro.ops.exporters` composes the owners' registries
into one shared registry by attaching each owner's
:meth:`MetricsRegistry.collect` as a *collector*; a few families that
other objects keep as plain ints (store counters, the rate limiter,
discovery pools) are read there at scrape time. So a ``/metrics`` scrape
and the in-process numbers read the same source.
:meth:`MetricsRegistry.render` produces the Prometheus text exposition
format (version 0.0.4) served by the :class:`~repro.ops.probe.OpsProbeServer`.

:class:`CounterSet` is the view an owner exposes as ``stats``: named
counts, each one series of a registry instrument, read as attributes.

Label sets are bounded: each instrument folds label combinations beyond
``max_series`` into a reserved ``_other`` series, so an adversarial or
buggy label source (say, per-request ids used as labels) cannot grow the
registry without bound.

Thread-safety: instruments guard their series map with one lock each and
the registry guards its tables with its own; no lock is ever held across
a collector call or while rendering, so a slow collector cannot stall
concurrent instrument updates.
"""

from __future__ import annotations

import bisect
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

#: Default latency buckets (seconds): sub-millisecond in-process calls up
#: through multi-second consensus round-trips, finer between 10 and 25 ms,
#: where one verified cross-network query falls.
DEFAULT_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.0125,
    0.015,
    0.0175,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Reserved label value the overflow series uses for every label once an
#: instrument's ``max_series`` bound is reached.
OVERFLOW_LABEL_VALUE = "_other"

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: One series' labels as a stable tuple of ``(name, value)`` pairs.
LabelPairs = tuple

#: A collector returns fully-formed families read at scrape time.
Collector = Callable[[], Iterable["MetricFamily"]]


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def escape_help(text: str) -> str:
    """Escape a HELP string per the text exposition format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value: float) -> str:
    """Render one sample value (``+Inf`` aware, integers without dot)."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


@dataclass(frozen=True)
class MetricFamily:
    """One renderable family: a name, a kind, and its sample series.

    ``samples`` is a tuple whose element shape depends on ``kind``:

    - counter/gauge: ``(label_pairs, value)``
    - histogram: ``(label_pairs, cumulative_counts, sum)`` where
      ``cumulative_counts`` aligns with ``buckets`` plus a final ``+Inf``
      slot (its last element is the series count).
    """

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    samples: tuple
    buckets: tuple = ()

    def sum_by(self, label: str) -> dict[str, float]:
        """Values summed per value of ``label``, as PromQL's ``sum by``
        (a histogram contributes its series' sums)."""
        totals: dict[str, float] = {}
        for pairs, *values in self.samples:
            key = dict(pairs)[label]
            totals[key] = totals.get(key, 0.0) + values[-1]
        return totals


def counter_family(name: str, help_text: str, samples: Iterable) -> MetricFamily:
    """A counter family from ``(label_pairs, value)`` samples."""
    return MetricFamily(name=name, kind="counter", help=help_text, samples=tuple(samples))


def gauge_family(name: str, help_text: str, samples: Iterable) -> MetricFamily:
    """A gauge family from ``(label_pairs, value)`` samples."""
    return MetricFamily(name=name, kind="gauge", help=help_text, samples=tuple(samples))


class _Instrument:
    """Shared machinery: name/label validation and the bounded series map."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Sequence[str] = (),
        max_series: int = 64,
    ) -> None:
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if max_series < 1:
            raise ValueError("max_series must be >= 1")
        for label in label_names:
            if not _LABEL_NAME_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        if len(set(label_names)) != len(tuple(label_names)):
            raise ValueError(f"duplicate label names in {tuple(label_names)!r}")
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self.max_series = max_series
        self._lock = threading.Lock()
        self._series: "OrderedDict[tuple, object]" = OrderedDict()

    def _key(self, labels: Mapping[str, object]) -> tuple:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names!r}, "
                f"got {tuple(sorted(labels))!r}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _slot(self, key: tuple) -> tuple:
        """The series key to use, folding overflow into ``_other``.

        Must be called with :attr:`_lock` held.
        """
        if key in self._series or len(self._series) < self.max_series:
            return key
        return tuple(OVERFLOW_LABEL_VALUE for _ in self.label_names)

    def _pairs(self, key: tuple) -> LabelPairs:
        return tuple(zip(self.label_names, key))


class Counter(_Instrument):
    """A monotonically increasing value (optionally per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge")
        self._add(self._key(labels), amount)

    def _add(self, key: tuple, amount: float) -> None:
        with self._lock:
            slot = self._slot(key)
            self._series[slot] = float(self._series.get(slot, 0.0)) + amount  # type: ignore[arg-type]

    def value(self, **labels: object) -> float:
        return self._get(self._key(labels))

    def _get(self, key: tuple) -> float:
        with self._lock:
            return float(self._series.get(key, 0.0))  # type: ignore[arg-type]

    def family(self) -> MetricFamily:
        with self._lock:
            samples = tuple(
                (self._pairs(key), value) for key, value in self._series.items()
            )
        if not samples and not self.label_names:
            samples = (((), 0.0),)
        return MetricFamily(
            name=self.name, kind=self.kind, help=self.help, samples=samples
        )


class Gauge(Counter):
    """A value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[self._slot(key)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        self._add(self._key(labels), amount)

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)


class _HistogramSeries:
    """Per-bucket counts (non-cumulative), running sum, and count."""

    __slots__ = ("counts", "total", "count")

    def __init__(self, slots: int) -> None:
        self.counts = [0] * slots
        self.total = 0.0
        self.count = 0


class Histogram(_Instrument):
    """A latency/size distribution with fixed cumulative buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        max_series: int = 64,
    ) -> None:
        super().__init__(name, help_text, label_names, max_series)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate bucket bounds in {bounds!r}")
        if bounds[-1] == float("inf"):
            bounds = bounds[:-1]  # +Inf is implicit
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        index = bisect.bisect_left(self.buckets, float(value))
        with self._lock:
            slot = self._slot(key)
            series = self._series.get(slot)
            if series is None:
                series = _HistogramSeries(len(self.buckets) + 1)
                self._series[slot] = series
            series.counts[index] += 1  # type: ignore[union-attr]
            series.total += float(value)  # type: ignore[union-attr]
            series.count += 1  # type: ignore[union-attr]

    def quantile(self, q: float, **labels: object) -> float:
        """The ``q``-quantile as PromQL's ``histogram_quantile`` estimates it.

        Sums every series whose labels include ``labels`` (all series
        when none are given), finds the bucket holding rank
        ``q * count``, and interpolates linearly inside it; a rank in
        the ``+Inf`` bucket answers the largest finite bound. 0.0 when
        nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} is outside [0, 1]")
        unknown = set(labels) - set(self.label_names)
        if unknown:
            raise ValueError(f"metric {self.name!r} has no labels {sorted(unknown)!r}")
        wanted = {name: str(value) for name, value in labels.items()}
        counts = [0] * (len(self.buckets) + 1)
        with self._lock:
            for key, series in self._series.items():
                pairs = dict(zip(self.label_names, key))
                if all(pairs[name] == value for name, value in wanted.items()):
                    for index, count in enumerate(series.counts):  # type: ignore[union-attr]
                        counts[index] += count
        rank = q * sum(counts)
        running = 0
        for index, count in enumerate(counts):
            running += count
            if count and running >= rank:
                break
        else:
            return 0.0
        if index == len(self.buckets):
            return self.buckets[-1]
        upper = self.buckets[index]
        lower = self.buckets[index - 1] if index else min(0.0, upper)
        return lower + (upper - lower) * (rank - (running - count)) / count

    def family(self) -> MetricFamily:
        with self._lock:
            snapshot = [
                (key, list(series.counts), series.total)  # type: ignore[union-attr]
                for key, series in self._series.items()
            ]
        samples = []
        for key, counts, total in snapshot:
            cumulative, running = [], 0
            for bucket_count in counts:
                running += bucket_count
                cumulative.append(running)
            samples.append((self._pairs(key), tuple(cumulative), total))
        return MetricFamily(
            name=self.name,
            kind=self.kind,
            help=self.help,
            samples=tuple(samples),
            buckets=self.buckets,
        )


class CounterSet:
    """Named counts, each one series of a registry instrument.

    The view an owner exposes as ``stats``: ``stats.bump("frames_served")``
    adds to a count, ``stats.frames_served`` reads it, and
    :meth:`snapshot` lists every count, zeros included. The numbers live
    only in the instruments, so a scrape and these reads agree. Every
    series exists from construction (at 0), so a scrape lists each count
    before it first moves.

    ``counts`` maps each name to its instrument (a :class:`Counter` or
    :class:`Gauge`) and that series' labels. ``peaks`` maps a count to
    the gauge count keeping its high-water mark: bumping the tracked
    count raises the peak in the same step, under the view's lock, so
    concurrent bumps never lose a peak.
    """

    def __init__(
        self,
        counts: Mapping[str, "tuple[Counter, Mapping[str, object]]"],
        peaks: Mapping[str, str] | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._series = {
            name: (instrument, instrument._key(labels))
            for name, (instrument, labels) in counts.items()
        }
        self._peaks = dict(peaks or {})
        for instrument, key in self._series.values():
            instrument._add(key, 0)

    def bump(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the count called ``name``."""
        instrument, key = self._series[name]
        if amount < 0 and instrument.kind == "counter":
            raise ValueError(f"{name} is a counter; it only increases")
        peak = self._peaks.get(name)
        if peak is None:
            instrument._add(key, amount)
            return
        peak_instrument, peak_key = self._series[peak]
        with self._lock:
            instrument._add(key, amount)
            rise = instrument._get(key) - peak_instrument._get(peak_key)
            if rise > 0:
                peak_instrument._add(peak_key, rise)

    def __getattr__(self, name: str) -> int:
        series = self.__dict__.get("_series", {}).get(name)
        if series is None:
            raise AttributeError(name)
        instrument, key = series
        return int(instrument._get(key))

    def snapshot(self) -> dict[str, int]:
        """Every count by name, zeros included."""
        return {
            name: int(instrument._get(key))
            for name, (instrument, key) in self._series.items()
        }


class MetricsRegistry:
    """The process-wide table of instruments and scrape-time collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "OrderedDict[str, _Instrument]" = OrderedDict()
        self._collectors: list[Collector] = []

    # -- instrument factories -----------------------------------------------------

    def counter(
        self, name: str, help_text: str, label_names: Sequence[str] = (), **options
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, label_names, **options)

    def gauge(
        self, name: str, help_text: str, label_names: Sequence[str] = (), **options
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, label_names, **options)

    def histogram(
        self, name: str, help_text: str, label_names: Sequence[str] = (), **options
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, label_names, **options)

    def _get_or_create(
        self, factory, name: str, help_text: str, label_names: Sequence[str], **options
    ):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not factory or existing.label_names != tuple(
                    label_names
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}{existing.label_names!r}"
                    )
                return existing
        instrument = factory(name, help_text, label_names, **options)
        with self._lock:
            # Re-check: a concurrent registration of the same name wins.
            winner = self._metrics.setdefault(name, instrument)
        if winner is not instrument and (
            type(winner) is not factory or winner.label_names != tuple(label_names)
        ):
            raise ValueError(f"metric {name!r} concurrently registered differently")
        return winner

    def register_collector(self, collector: Collector) -> Collector:
        """Attach a scrape-time family source: another registry's
        :meth:`collect`, or a reader of counts kept outside any registry.
        Attaching the same collector again is a no-op."""
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)
        return collector

    # -- rendering ----------------------------------------------------------------

    def collect(self) -> list[MetricFamily]:
        """Every family, instrument ones first, then collector output.

        Families sharing one name (several relays exporting the same
        stats family with different label values) are merged; a merge
        across *different* kinds is a wiring bug and raises.
        """
        with self._lock:
            instruments = list(self._metrics.values())
            collectors = list(self._collectors)
        families: list[MetricFamily] = [
            instrument.family() for instrument in instruments
        ]
        for collector in collectors:
            families.extend(collector())
        merged: "OrderedDict[str, MetricFamily]" = OrderedDict()
        for family in families:
            first = merged.get(family.name)
            if first is None:
                merged[family.name] = family
                continue
            if first.kind != family.kind or first.buckets != family.buckets:
                raise ValueError(
                    f"metric family {family.name!r} exported with conflicting "
                    f"kinds/buckets ({first.kind} vs {family.kind})"
                )
            merged[family.name] = MetricFamily(
                name=first.name,
                kind=first.kind,
                help=first.help,
                samples=first.samples + family.samples,
                buckets=first.buckets,
            )
        return list(merged.values())

    def render(self) -> str:
        """The Prometheus text exposition (format version 0.0.4)."""
        lines: list[str] = []
        for family in self.collect():
            if not family.samples:
                # A labeled instrument nothing has reported into yet: a
                # bare HELP/TYPE header is noise (and fails strict readers).
                continue
            lines.append(f"# HELP {family.name} {escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            if family.kind == "histogram":
                self._render_histogram(family, lines)
            else:
                for label_pairs, value in family.samples:
                    lines.append(
                        f"{family.name}{_render_labels(label_pairs)} "
                        f"{format_value(value)}"
                    )
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_histogram(family: MetricFamily, lines: list[str]) -> None:
        bounds = tuple(family.buckets) + (float("inf"),)
        for label_pairs, cumulative, total in family.samples:
            for bound, count in zip(bounds, cumulative):
                bucket_pairs = label_pairs + (("le", format_value(bound)),)
                lines.append(
                    f"{family.name}_bucket{_render_labels(bucket_pairs)} {count}"
                )
            lines.append(
                f"{family.name}_sum{_render_labels(label_pairs)} "
                f"{format_value(total)}"
            )
            lines.append(
                f"{family.name}_count{_render_labels(label_pairs)} "
                f"{cumulative[-1]}"
            )


def _render_labels(label_pairs: LabelPairs) -> str:
    if not label_pairs:
        return ""
    rendered = ",".join(
        f'{name}="{escape_label_value(str(value))}"' for name, value in label_pairs
    )
    return "{" + rendered + "}"


#: Content-Type the probe listener serves ``/metrics`` under.
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


__all__ = [
    "Collector",
    "Counter",
    "CounterSet",
    "DEFAULT_BUCKETS",
    "EXPOSITION_CONTENT_TYPE",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "OVERFLOW_LABEL_VALUE",
    "counter_family",
    "escape_help",
    "escape_label_value",
    "format_value",
    "gauge_family",
]
