from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonledger.energy import (
    GAP_FACTOR,
    MS_PER_HOUR,
    RunParams,
    average_power,
    closed_form_energy,
    integrate_energy,
    window_energy,
)
from carbonledger.errors import InsufficientSamples
from carbonledger.sampler import SampleLog, slice_window

from conftest import make_log, power_series
from goldens import GOLDEN_ROWS, INVERTED_WATTS


def analytic_piecewise_linear_kwh(points: list[tuple[int, float]]) -> float:
    """Closed-form integral of the piecewise-linear power curve, via the
    antiderivative of each segment's line equation (independent of the
    trapezoidal code path)."""
    total_w_ms = 0.0
    for (t1, w1), (t2, w2) in zip(points, points[1:]):
        slope = (w2 - w1) / (t2 - t1)
        total_w_ms += w1 * (t2 - t1) + slope * (t2 - t1) ** 2 / 2.0
    return total_w_ms / MS_PER_HOUR / 1000.0


def test_closed_form_unit_case():
    result = closed_form_energy(RunParams(1.0, 1, 1000.0, 1.0))
    assert result.facility_kwh == pytest.approx(1.0)
    assert result.raw_kwh == pytest.approx(1.0)


def test_closed_form_reproduces_golden_rows_from_inverted_watts():
    by_label = {label: (hours, kwh) for label, hours, kwh, _, _ in GOLDEN_ROWS}
    for label, watts in INVERTED_WATTS.items():
        hours, kwh = by_label[label]
        result = closed_form_energy(RunParams(hours, 2, watts, 1.55))
        assert result.facility_kwh == pytest.approx(kwh, abs=0.01)


def test_inverted_watts_match_formula_inversion():
    # oracle: invert facility = pue * t * g * p / 1000 for p
    for label, frozen in INVERTED_WATTS.items():
        hours, kwh = next((h, e) for lab, h, e, _, _ in GOLDEN_ROWS if lab == label)
        inverted = kwh * 1000.0 / (1.55 * hours * 2)
        assert inverted == pytest.approx(frozen, abs=0.05)
        assert 150.0 <= inverted <= 300.0


@pytest.mark.parametrize(
    "params",
    [
        dict(duration_hours=0.0, gpu_count=1, avg_gpu_watts=10.0),
        dict(duration_hours=1.0, gpu_count=0, avg_gpu_watts=10.0),
        dict(duration_hours=1.0, gpu_count=1, avg_gpu_watts=-5.0),
        dict(duration_hours=1.0, gpu_count=1, avg_gpu_watts=10.0, pue=0.5),
    ],
)
def test_closed_form_rejects_non_positive_parameters(params):
    with pytest.raises(ValueError):
        RunParams(**params)


def test_facility_equals_raw_times_pue():
    result = closed_form_energy(RunParams(4.438, 2, 256.6, 1.55))
    assert result.facility_kwh == pytest.approx(result.raw_kwh * result.pue, rel=1e-12)


def test_integrate_constant_hour():
    log = make_log({"g": [(t, 1000.0) for t in range(0, 3_600_001, 60_000)]}, interval_ms=60_000)
    assert integrate_energy(log, 1.0).facility_kwh == pytest.approx(1.0, rel=1e-12)


def test_integrate_empty_log_is_zero():
    log = make_log({})
    assert integrate_energy(log, 1.0).raw_kwh == 0.0


def test_integrate_single_sample_is_zero():
    log = make_log({"g": [(0, 500.0)]})
    assert integrate_energy(log, 1.0).raw_kwh == 0.0


def test_integrate_linear_ramp_matches_triangle_area():
    # 0 -> 100 W over 2 h at 1-minute cadence: area = 50 W * 2 h = 0.1 kWh
    pairs = [(t, 100.0 * t / 7_200_000) for t in range(0, 7_200_001, 60_000)]
    log = make_log({"g": pairs}, interval_ms=60_000)
    assert integrate_energy(log, 1.0).facility_kwh == pytest.approx(0.1, abs=1e-9)


def test_integrate_rejects_negative_watts():
    # PowerSample refuses negative watts at construction, but columns built
    # directly do not; the integrator keeps its own guard.
    log = make_log({"g": [(0, -1.0), (1000, 1.0)]})
    with pytest.raises(ValueError):
        integrate_energy(log, 1.0)


def test_gap_filled_with_last_value_and_flagged():
    interval = 1000
    gap = GAP_FACTOR * interval * 2  # 10 s hole, twice the limit
    pairs = [(0, 100.0), (1000, 100.0), (1000 + gap, 300.0), (2000 + gap, 300.0)]
    log = make_log({"g": pairs}, interval_ms=interval)
    result = integrate_energy(log, 1.0)
    expected = (100.0 * 1000 + 100.0 * gap + 300.0 * 1000) / MS_PER_HOUR / 1000.0
    assert result.raw_kwh == pytest.approx(expected, rel=1e-12)
    assert any("gap" in note for note in result.notes)


def test_average_power_constant():
    log = make_log({"g": [(t, 250.0) for t in range(0, 10_000, 1000)]})
    assert average_power(log).combined == pytest.approx(250.0, rel=1e-12)


def test_average_power_sums_across_sources():
    series = {
        "a": [(t, 100.0) for t in range(0, 10_001, 1000)],
        "b": [(t, 300.0) for t in range(0, 10_001, 1000)],
    }
    avg = average_power(make_log(series))
    assert avg.combined == pytest.approx(400.0, rel=1e-12)
    assert avg.per_source == {"a": pytest.approx(100.0), "b": pytest.approx(300.0)}


def test_average_power_ramp_is_midpoint():
    pairs = [(t, 100.0 * t / 10_000) for t in range(0, 10_001, 1000)]
    assert average_power(make_log({"g": pairs})).combined == pytest.approx(50.0, abs=1e-9)


def test_average_power_requires_two_samples():
    with pytest.raises(InsufficientSamples):
        average_power(make_log({"g": [(0, 10.0)]}))
    with pytest.raises(InsufficientSamples):
        average_power(make_log({}))


def test_integrate_rejects_pue_below_one():
    with pytest.raises(ValueError):
        integrate_energy(make_log({}), 0.9)


def test_consistency_bridge_between_integrator_and_closed_form():
    rng = random.Random(424242)
    for _ in range(25):
        series = {}
        for s in range(rng.randint(1, 3)):
            times = sorted(rng.sample(range(0, 1_000_001, 1000), rng.randint(2, 40)))
            series[f"s{s}"] = [(t, rng.uniform(0.0, 400.0)) for t in times]
        # all sources must share the overall span for the bridge to be exact
        span = [min(p[0][0] for p in series.values()), max(p[-1][0] for p in series.values())]
        for name, pairs in series.items():
            if pairs[0][0] != span[0]:
                pairs.insert(0, (span[0], pairs[0][1]))
            if pairs[-1][0] != span[1]:
                pairs.append((span[1], pairs[-1][1]))
        log = make_log(series, interval_ms=1_000_000)
        avg = average_power(log)
        via_integral = integrate_energy(log, 1.55).facility_kwh
        via_closed_form = closed_form_energy(
            RunParams(avg.duration_hours, 1, avg.combined, 1.55)
        ).facility_kwh
        assert via_closed_form == pytest.approx(via_integral, rel=1e-9)


def test_additivity_of_disjoint_phases():
    rng = random.Random(7)
    times = sorted(rng.sample(range(0, 100_001, 500), 60))
    pairs = [(t, rng.uniform(0, 300)) for t in times]
    log = make_log({"g": pairs}, interval_ms=100_000)
    cut = times[len(times) // 2]
    whole = integrate_energy(log, 1.0).raw_kwh
    left = integrate_energy(slice_window(log, times[0], cut), 1.0).raw_kwh
    right = integrate_energy(slice_window(log, cut, times[-1]), 1.0).raw_kwh
    assert left + right == pytest.approx(whole, rel=1e-9)


def test_monotonicity_appending_samples():
    rng = random.Random(99)
    pairs = [(0, 10.0)]
    log = make_log({"g": pairs}, interval_ms=10_000_000)
    previous = integrate_energy(log, 1.0).raw_kwh
    for step in range(1, 40):
        pairs.append((step * 1000, rng.uniform(0, 500)))
        current = integrate_energy(make_log({"g": pairs}, interval_ms=10_000_000), 1.0).raw_kwh
        assert current >= previous
        previous = current


def test_trapezoid_exact_on_piecewise_linear_oracle():
    rng = random.Random(1001)
    for _ in range(50):
        times = sorted(rng.sample(range(0, 3_600_001, 1000), rng.randint(2, 25)))
        points = [(t, rng.uniform(0, 500)) for t in times]
        log = make_log({"g": points}, interval_ms=4_000_000)
        assert integrate_energy(log, 1.0).raw_kwh == pytest.approx(
            analytic_piecewise_linear_kwh(points), rel=1e-9
        )


def reference_slice(log: SampleLog, start: int, end: int) -> dict[str, list[tuple[int, float]]]:
    """Slice with plain loops over the rows, no bisect: per source, the
    samples inside the window plus an interpolated one at each boundary
    that falls between two samples."""
    sliced = {}
    for source in sorted({s.source_id for s in log.samples}):
        series = sorted(((s.timestamp_ms, s.watts) for s in log.samples if s.source_id == source), key=lambda p: p[0])
        points = [(t, w) for t, w in series if start <= t <= end]
        for boundary in (start, end):
            before = [p for p in series if p[0] < boundary]
            after = [p for p in series if p[0] > boundary]
            if before and after and all(t != boundary for t, _ in series):
                (t0, w0), (t1, w1) = before[-1], after[0]
                points.append((boundary, w0 + (w1 - w0) * ((boundary - t0) / (t1 - t0))))
        sliced[source] = sorted(points, key=lambda p: p[0])
    return sliced


def reference_window_kwh(log: SampleLog, start: int, end: int) -> float:
    """The reference slice integrated term by term, summed with fsum per
    source and across sources."""
    gap_limit = GAP_FACTOR * log.sampling_interval_ms
    per_source = []
    for points in reference_slice(log, start, end).values():
        terms = []
        for (t0, w0), (t1, w1) in zip(points, points[1:]):
            dt = t1 - t0
            if dt > gap_limit:
                terms.append(w0 * dt / MS_PER_HOUR / 1000.0)
            else:
                terms.append(0.5 * (w0 + w1) * dt / MS_PER_HOUR / 1000.0)
        per_source.append(math.fsum(terms))
    return math.fsum(per_source)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_window_energy_equals_integrating_the_slice(data):
    interval = data.draw(st.sampled_from([1, 10, 1000]))
    log = make_log(data.draw(power_series(interval)), interval_ms=interval)
    stamps = [s.timestamp_ms for s in log.samples] or [0]
    # windows start and end on samples, between them, or outside the span
    point = st.one_of(
        st.sampled_from(stamps), st.integers(min(stamps) - 3 * interval, max(stamps) + 3 * interval)
    )
    a = data.draw(point)
    a, b = sorted((a, data.draw(st.one_of(st.just(a), point))))
    pue = data.draw(st.sampled_from([1.0, 1.55]))
    sliced = slice_window(log, a, b)
    reference = reference_slice(log, a, b)
    expected = sorted((t, src, w) for src, points in reference.items() for t, w in points)
    assert [(s.timestamp_ms, s.source_id, s.watts) for s in sliced.samples] == expected
    assert sliced.sources() == tuple(src for src, points in reference.items() if points)
    result = window_energy(log, a, b, pue)
    assert result == integrate_energy(sliced, pue)
    assert result.raw_kwh == reference_window_kwh(log, a, b)
