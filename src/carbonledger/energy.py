"""Power-to-energy conversion: the closed-form average-power model and a
trapezoidal trace integrator, plus the time-weighted average that bridges
them.

Units are fixed throughout: durations in hours, power in watts, energy in
kWh, facility overhead as a PUE multiplier >= 1 applied on top of the raw
device-side figure.

Every trace integral goes through :func:`window_energy`. It reads the
columns a :class:`~carbonledger.sampler.SampleLog` stores per source
(:class:`~carbonledger.sampler.SourceSeries`): timestamps and watts, plus
one kWh term per segment between consecutive samples, computed by
:func:`segment_kwh` with the gap rule folded in and cached on the series
on first use. A window's energy per source is ``math.fsum`` of the terms
of the segments inside it, found by ``bisect``, plus the two partial
segments where the window cuts between samples. ``fsum`` is correctly
rounded, so a window sums to exactly what integrating its slice gives;
prefix-sum differences would not.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

from .errors import InsufficientSamples, UnknownPhase

if TYPE_CHECKING:
    from .sampler import SampleLog, SourceSeries

MS_PER_HOUR = 3_600_000.0

#: Facility overhead multiplier used as the default; annual average for a
#: German data center.
DEFAULT_PUE = 1.55

#: A sampling gap larger than this many intervals is filled with the last
#: value carried forward instead of a trapezoid, and flagged.
GAP_FACTOR = 5


@dataclass(frozen=True)
class RunParams:
    """Inputs of the closed-form model: t hours on g devices at p watts."""

    duration_hours: float
    gpu_count: int
    avg_gpu_watts: float
    pue: float = DEFAULT_PUE

    def __post_init__(self) -> None:
        for name in ("duration_hours", "avg_gpu_watts", "pue"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.gpu_count < 1:
            raise ValueError("gpu_count must be >= 1")
        if self.pue < 1:
            raise ValueError("pue must be >= 1")


@dataclass(frozen=True)
class EnergyResult:
    """Raw device-side kWh and the facility figure with PUE applied."""

    raw_kwh: float
    pue: float
    facility_kwh: float
    notes: tuple[str, ...] = ()


def closed_form_energy(params: RunParams) -> EnergyResult:
    """Average-power model: kWh = pue * t * g * p / 1000.

    ``avg_gpu_watts`` is the per-device average; multiplying by the device
    count gives total draw. The raw figure omits the PUE factor.
    """
    raw = params.duration_hours * params.gpu_count * params.avg_gpu_watts / 1000.0
    return EnergyResult(raw_kwh=raw, pue=params.pue, facility_kwh=raw * params.pue)


def segment_kwh(dt_ms: int, w0: float, w1: float, gap_limit_ms: float) -> float:
    """kWh of one segment from a w0-watt sample to a w1-watt one dt_ms later.

    Trapezoid, unless the segment is wider than the gap limit: then w0 is
    carried forward, so dropped reads never silently delete energy.
    """
    return (w0 * dt_ms if dt_ms > gap_limit_ms else 0.5 * (w0 + w1) * dt_ms) / MS_PER_HOUR / 1000.0


def _source_window_kwh(series: SourceSeries, start: float, end: float, gap_limit_ms: float) -> tuple[float, int]:
    """kWh of one source over [start, end] and the gaps it crossed.

    The same segments as in ``slice_window``'s view of the window: the
    cached terms between the samples inside it, plus the partial segments
    to the interpolated points where it cuts between two samples.
    """
    lo, hi, w_start, w_end = series.window(start, end)
    ts, ws = series.timestamps, series.watts
    edges = []  # (t0, w0, t1, w1) of each partial segment
    if w_start is not None:
        # with no sample inside, a window that cuts at start also cuts at end
        t1, w1 = (ts[lo], ws[lo]) if hi > lo else (end, w_end)
        edges.append((start, w_start, t1, w1))
    if w_end is not None and hi > lo:
        edges.append((ts[hi - 1], ws[hi - 1], end, w_end))
    gaps = sum(t1 - t0 > gap_limit_ms for t0, _, t1, _ in edges)
    terms = [segment_kwh(t1 - t0, w0, w1, gap_limit_ms) for t0, w0, t1, w1 in edges]
    if hi - lo >= 2:
        kwh_terms, gap_segments = series.energy_terms(gap_limit_ms)
        gaps += bisect_left(gap_segments, hi - 1) - bisect_left(gap_segments, lo)
        return math.fsum(chain(kwh_terms[lo : hi - 1], terms)), gaps
    return math.fsum(terms), gaps


def window_energy(log: SampleLog, start: float, end: float, pue: float) -> EnergyResult:
    """Trapezoidal energy of every source over the [start, end] window.

    Equal, bit for bit, to integrating ``slice_window(log, start, end)``.
    Boundaries outside a source's sampled span are clamped to its data.
    Raises UnknownPhase if end < start and ValueError on negative watts.
    """
    if pue < 1:
        raise ValueError("pue must be >= 1")
    if end < start:
        raise UnknownPhase(f"window end {end} before start {start}")
    if any(series.negative_watts for series in log.series.values()):
        raise ValueError("log contains negative-watt samples")
    gap_limit = GAP_FACTOR * log.sampling_interval_ms
    per_source_kwh: list[float] = []
    notes: list[str] = []
    for source, series in log.series.items():
        kwh, gaps = _source_window_kwh(series, start, end, gap_limit)
        per_source_kwh.append(kwh)
        if gaps:
            notes.append(f"{source}: {gaps} gap(s) > {GAP_FACTOR}x interval filled with last value")
    raw = math.fsum(per_source_kwh)
    return EnergyResult(raw_kwh=raw, pue=pue, facility_kwh=raw * pue, notes=tuple(notes))


def integrate_energy(log: SampleLog, pue: float) -> EnergyResult:
    """Trapezoidal integral of every source's power trace, summed.

    A log with zero or one sample per source integrates to 0. Rejects
    logs containing negative wattages.
    """
    return window_energy(log, -math.inf, math.inf, pue)


@dataclass(frozen=True)
class AveragePower:
    """Time-weighted mean watts per source, plus the combined figure.

    ``combined`` is total energy over the overall sampled span, i.e. the
    sum of simultaneous per-source draws; feeding it to the closed-form
    model with gpu_count=1 reproduces the integrated energy.
    """

    per_source: dict[str, float]
    combined: float
    duration_hours: float


def average_power(log: SampleLog) -> AveragePower:
    """Time-weighted average power; requires >= 2 samples per source."""
    if not log.series:
        raise InsufficientSamples("log has no samples")
    gap_limit = GAP_FACTOR * log.sampling_interval_ms
    per_source: dict[str, float] = {}
    first_ms = math.inf
    last_ms = -math.inf
    total_kwh_terms: list[float] = []
    for source, series in log.series.items():
        ts = series.timestamps
        if len(ts) < 2:
            raise InsufficientSamples(f"source {source} has {len(ts)} sample(s), need >= 2")
        kwh = math.fsum(series.energy_terms(gap_limit)[0])
        span_hours = (ts[-1] - ts[0]) / MS_PER_HOUR
        per_source[source] = kwh * 1000.0 / span_hours
        first_ms = min(first_ms, ts[0])
        last_ms = max(last_ms, ts[-1])
        total_kwh_terms.append(kwh)
    duration_hours = (last_ms - first_ms) / MS_PER_HOUR
    combined = math.fsum(total_kwh_terms) * 1000.0 / duration_hours
    return AveragePower(per_source=per_source, combined=combined, duration_hours=duration_hours)
