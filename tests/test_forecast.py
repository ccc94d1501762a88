from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonledger import carbon
from carbonledger.energy import MS_PER_HOUR, integrate_energy
from carbonledger.errors import EpochIndexRegression, NoCompletedEpochs, UnknownPhase
from carbonledger.forecast import PhaseSummary, phase_summaries, predict, refine
from carbonledger.sampler import phase_window, slice_phase, slice_window

from conftest import make_log, power_series

DE = carbon.CarbonIntensity("DE", 380.0)


def epoch(k: int, kwh: float, hours: float = 0.5) -> PhaseSummary:
    return PhaseSummary(f"epoch {k}", hours, kwh, carbon.co2e(kwh, DE))


def test_linear_scaling_from_one_epoch():
    forecast = predict([epoch(1, 0.27)], None, 13, DE)
    assert forecast.predicted_kwh == pytest.approx(3.51, rel=1e-12)
    assert forecast.includes_setup is False
    assert forecast.basis_epochs == 1


def test_fixed_point_when_run_already_finished():
    epochs = [epoch(k, kwh) for k, kwh in enumerate((0.2, 0.25, 0.3), start=1)]
    setup = PhaseSummary("setup", 0.1, 0.05, carbon.co2e(0.05, DE))
    forecast = predict(epochs, setup, 3, DE)
    measured_kwh = 0.05 + 0.2 + 0.25 + 0.3
    measured_hours = 0.1 + 3 * 0.5
    assert forecast.predicted_kwh == pytest.approx(measured_kwh, rel=1e-12)
    assert forecast.predicted_duration_hours == pytest.approx(measured_hours, rel=1e-12)
    assert forecast.includes_setup is True


def test_ramp_fixture_predictions_after_each_epoch():
    ramp = [epoch(1, 0.10), epoch(2, 0.12), epoch(3, 0.14)]
    f1 = predict(ramp[:1], None, 3, DE)
    assert f1.predicted_kwh == pytest.approx(0.30, rel=1e-12)
    f2 = refine(f1, ramp[1])
    assert f2.predicted_kwh == pytest.approx(0.33, rel=1e-12)
    f3 = refine(f2, ramp[2])
    assert f3.predicted_kwh == pytest.approx(0.36, rel=1e-12)
    measured = 0.10 + 0.12 + 0.14
    assert f3.predicted_kwh == pytest.approx(measured, rel=1e-12)
    # the k=1 forecast undershoots the ramp by design; refinement surfaces it
    assert f1.predicted_kwh < measured


def test_refine_is_invariant_on_identical_epochs():
    first = predict([epoch(1, 0.2)], None, 5, DE)
    second = refine(first, epoch(2, 0.2))
    third = refine(second, epoch(3, 0.2))
    assert second.predicted_kwh == pytest.approx(first.predicted_kwh, rel=1e-12)
    assert third.predicted_kwh == pytest.approx(first.predicted_kwh, rel=1e-12)
    assert third.basis_epochs == 3


def test_refine_with_heavier_epoch_raises_prediction():
    first = predict([epoch(1, 0.2)], None, 5, DE)
    second = refine(first, epoch(2, 0.4))
    assert second.predicted_kwh > first.predicted_kwh


def test_refine_rejects_epoch_index_regression():
    first = predict([epoch(1, 0.2)], None, 5, DE)
    with pytest.raises(EpochIndexRegression):
        refine(first, epoch(1, 0.2))
    with pytest.raises(EpochIndexRegression):
        refine(first, epoch(3, 0.2))


def test_predict_requires_completed_epochs():
    with pytest.raises(NoCompletedEpochs):
        predict([], None, 5, DE)


def test_planned_epochs_must_cover_basis():
    with pytest.raises(ValueError):
        predict([epoch(1, 0.1), epoch(2, 0.1)], None, 1, DE)


def test_co2e_never_extrapolated_independently():
    # feed epochs whose recorded co2e is inconsistent on purpose; the
    # forecast must recompute from energy x intensity regardless
    skewed = PhaseSummary("epoch 1", 0.5, 0.27, 99.0)
    forecast = predict([skewed], None, 13, DE)
    assert forecast.predicted_co2e_kg == pytest.approx(
        carbon.co2e(forecast.predicted_kwh, DE), rel=1e-12
    )


def test_setup_energy_added_once():
    setup = PhaseSummary("setup", 0.2, 0.1, carbon.co2e(0.1, DE))
    forecast = predict([epoch(1, 0.3)], setup, 10, DE)
    assert forecast.predicted_kwh == pytest.approx(0.1 + 10 * 0.3, rel=1e-12)
    assert forecast.predicted_duration_hours == pytest.approx(0.2 + 10 * 0.5, rel=1e-12)


def _homogeneous_log():
    """Three sample-identical epochs at 240 W, half an hour each."""
    pairs = [(t, 240.0) for t in range(0, 5_400_001, 60_000)]
    events = ["TRAIN_START 0"]
    for k in range(1, 4):
        events.append(f"EPOCH_START {k} {(k - 1) * 1_800_000}")
        events.append(f"EPOCH_END {k} {k * 1_800_000}")
    events.append("TRAIN_END 5400000")
    return make_log({"g": pairs}, interval_ms=60_000, event_lines=events)


def test_homogeneous_epochs_first_epoch_forecast_matches_final():
    log = _homogeneous_log()
    pue = 1.55

    def phase_kwh(selector: str) -> float:
        return integrate_energy(slice_phase(log, selector), pue).facility_kwh

    epoch_summaries = [
        PhaseSummary(f"epoch {k}", 0.5, phase_kwh(f"epoch:{k}"), 0.0) for k in range(1, 4)
    ]
    forecast = predict(epoch_summaries[:1], None, 3, DE)
    measured = integrate_energy(slice_phase(log, "run"), pue).facility_kwh
    assert forecast.predicted_kwh == pytest.approx(measured, rel=1e-9)


def test_ramp_replay_fixture_documents_linearity_undershoot():
    """Continuous piecewise-linear power whose per-epoch means are exactly
    200/240/280 W over half an hour each, i.e. 0.10/0.12/0.14 kWh raw.
    The k=1 forecast comes in 20% under the measured total on this ramp."""

    def watts(t: int) -> float:
        k = min(t // 1_800_000, 2)
        return 180.0 + 40.0 * k + 40.0 * (t - k * 1_800_000) / 1_800_000

    pairs = [(t, watts(t)) for t in range(0, 5_400_001, 60_000)]
    events = ["TRAIN_START 0"]
    for k in range(1, 4):
        events.append(f"EPOCH_START {k} {(k - 1) * 1_800_000}")
        events.append(f"EPOCH_END {k} {k * 1_800_000}")
    events.append("TRAIN_END 5400000")
    log = make_log({"g": pairs}, interval_ms=60_000, event_lines=events)

    per_epoch = [
        integrate_energy(slice_phase(log, f"epoch:{k}"), 1.0).raw_kwh for k in range(1, 4)
    ]
    assert per_epoch == pytest.approx([0.10, 0.12, 0.14], rel=1e-9)

    summaries = [PhaseSummary(f"epoch {k}", 0.5, kwh, 0.0) for k, kwh in enumerate(per_epoch, 1)]
    early = predict(summaries[:1], None, 3, DE)
    measured = integrate_energy(slice_phase(log, "run"), 1.0).raw_kwh
    assert early.predicted_kwh == pytest.approx(0.30, rel=1e-9)
    assert measured == pytest.approx(0.36, rel=1e-9)
    assert measured == pytest.approx(early.predicted_kwh * 1.2, rel=1e-9)


def slice_based_summaries(log, pue, intensity):
    """Phase summaries computed by slicing each phase out of the log and
    integrating the slice."""

    def summarize(phase: str, name: str) -> PhaseSummary:
        start, end = phase_window(log, phase)
        kwh = integrate_energy(slice_window(log, start, end), pue).facility_kwh
        return PhaseSummary(name, (end - start) / MS_PER_HOUR, kwh, carbon.co2e(kwh, intensity))

    try:
        setup = summarize("setup", "setup")
    except UnknownPhase:
        setup = None
    epochs = []
    for k in range(1, log.epochs_completed() + 1):
        try:
            epochs.append(summarize(f"epoch:{k}", f"epoch {k}"))
        except UnknownPhase:
            break
    return setup, epochs


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_phase_summaries_equal_slicing_each_phase(data):
    interval = data.draw(st.sampled_from([10, 1000]))
    series = data.draw(power_series(interval, max_sources=2))
    stamps = [t for pairs in series.values() for t, _ in pairs] or [0]
    # steps may go back in time, which reverses a phase window
    t = max(data.draw(st.integers(min(stamps) - 3 * interval, max(stamps))), 0)
    step = st.integers(-2 * interval, 6 * interval)
    lines = ["TRAIN_START %d" % t] if data.draw(st.booleans()) else []
    for k in range(1, data.draw(st.integers(0, 6)) + 1):
        t = max(t + data.draw(step), 0)
        lines.append(f"EPOCH_START {k} {t}")
        if data.draw(st.integers(0, 5)) == 0:
            break  # the run stops inside epoch k
        t = max(t + data.draw(step), 0)
        lines.append(f"EPOCH_END {k} {t}")
    else:
        lines.append(f"TRAIN_END {max(t + data.draw(step), 0)}")
    log = make_log(series, interval_ms=interval, event_lines=lines)
    pue = data.draw(st.sampled_from([1.0, 1.4]))
    assert phase_summaries(log, pue, DE) == slice_based_summaries(log, pue, DE)
