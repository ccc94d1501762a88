from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonledger import carbon
from carbonledger.energy import MS_PER_HOUR, integrate_energy
from carbonledger.errors import EpochIndexRegression, NoCompletedEpochs, UnknownPhase
from carbonledger.forecast import PhaseSummary, account, phase_summaries, predict, refine
from carbonledger.ledger import append_record, read_records
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


def account_of(log, **overrides):
    """``account`` of ``log`` with fixed run settings, any of them overridden."""
    settings = dict(
        experiment_id="id-1", label="demo", started_at="2026-08-10T12:00:00+00:00", intensity=DE,
        pue=1.55, car_factor=carbon.DEFAULT_CAR_KG_PER_KM, exit_code=0, interrupted=False,
    )
    return account(log, **{**settings, **overrides})


def _noted_log():
    """A log with two warnings, a gap wider than 5x the interval on source
    ``g`` and two protocol violations (an unknown line, an unopened epoch)."""
    log = make_log(
        {"g": [(0, 100.0), (1000, 100.0), (8000, 100.0)], "h": [(0, 50.0), (1000, 50.0)]},
        event_lines=["TRAIN_START 0", "BOGUS 1", "EPOCH_END 1 500"],
    )
    warnings = ("event timestamps precede sampler start (clock skew)", "2 hardware reads skipped")
    return dataclasses.replace(log, warnings=warnings)


def test_account_notes_come_in_one_order():
    record = account_of(_noted_log(), exit_code=1, interrupted=True)
    assert record.quality_notes == (
        "event timestamps precede sampler start (clock skew)",
        "2 hardware reads skipped",
        "g: 1 gap(s) > 5x interval filled with last value",
        "2 event protocol violation(s)",
        "aborted",
        "interrupted",
    )
    assert account_of(make_log({"g": [(0, 1.0), (1000, 1.0)]})).quality_notes == ()


def test_account_duration_is_the_train_events_else_the_sampled_span_else_zero():
    many = {"a": [(1000, 1.0), (5000, 1.0)], "b": [(-2000, 1.0), (3000, 1.0)]}
    trained = make_log(many, event_lines=["TRAIN_START 0", "TRAIN_END 4600"])
    assert account_of(trained).duration_hours == 4600 / MS_PER_HOUR
    # TRAIN_START alone does not make a run window: the span of every source
    assert account_of(make_log(many, event_lines=["TRAIN_START 0"])).duration_hours == 7000 / MS_PER_HOUR
    assert account_of(make_log({"a": [(1000, 1.0)]})).duration_hours == 0.0
    assert account_of(make_log({})).duration_hours == 0.0


def test_account_takes_the_region_from_the_intensity():
    france = carbon.CarbonIntensity("FR", 60.0)
    record = account_of(_homogeneous_log(), intensity=france)
    assert (record.region, record.intensity_g_per_kwh) == ("FR", 60.0)
    assert record.co2e_kg == carbon.co2e(record.energy_kwh, france)


def test_account_record_is_appended_and_read_back_as_built(tmp_path):
    for i, log in enumerate([_homogeneous_log(), _noted_log(), make_log({})]):
        record = account_of(log, experiment_id=f"id-{i}", exit_code=i, interrupted=bool(i))
        append_record(tmp_path / "ledger.jsonl", record)
        assert read_records(tmp_path / "ledger.jsonl")[-1] == record
    setup, epochs = phase_summaries(_homogeneous_log(), 1.55, DE)
    assert account_of(_homogeneous_log()).phase_breakdown == (setup, *epochs)
