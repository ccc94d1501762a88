"""Whole-run prediction from completed epochs, and a run's ledger record.

A run's setup and epoch summaries come from its sample log via
:func:`phase_summaries`. :func:`account` builds the run's ledger record
from the log; the record schema, ``PhaseSummary`` included, lives in
:mod:`carbonledger.ledger`.
After the first epoch finishes, the planned total is extrapolated
linearly: setup cost once, plus the planned epoch count times the mean of
the completed epochs. Emissions are always recomputed from the predicted
energy via the supplied intensity, never extrapolated on their own, so a
forecast can never disagree with the carbon arithmetic.

Refinement folds each newly completed epoch into the mean; on a workload
whose epochs grow heavier the early forecast undershoots, and the
refinement trail makes that visible.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

from . import carbon, energy, sampler
from .carbon import CarbonIntensity
from .errors import EpochIndexRegression, NoCompletedEpochs, UnknownPhase
from .ledger import ExperimentRecord, PhaseSummary
from .sampler import SampleLog

_EPOCH_NAME = re.compile(r"^epoch (\d+)$")


@dataclass(frozen=True)
class Forecast:
    """Prediction snapshot after ``basis_epochs`` completed epochs.

    The per-epoch means and setup figures are carried so the snapshot can
    be refined without re-reading the run. The predicted figures are not
    passed in: they are derived from the rest by the one forecast formula,
    setup once plus the planned epochs times the epoch mean.
    """

    basis_epochs: int
    planned_epochs: int
    predicted_duration_hours: float = field(init=False)
    predicted_kwh: float = field(init=False)
    predicted_co2e_kg: float = field(init=False)
    includes_setup: bool
    intensity_g_per_kwh: float
    epoch_mean_hours: float
    epoch_mean_kwh: float
    setup_hours: float = 0.0
    setup_kwh: float = 0.0

    def __post_init__(self) -> None:
        kwh = self.setup_kwh + self.planned_epochs * self.epoch_mean_kwh
        hours = self.setup_hours + self.planned_epochs * self.epoch_mean_hours
        object.__setattr__(self, "predicted_duration_hours", hours)
        object.__setattr__(self, "predicted_kwh", kwh)
        object.__setattr__(self, "predicted_co2e_kg", carbon.co2e(kwh, self.intensity_g_per_kwh))


def _epoch_index(summary: PhaseSummary) -> int | None:
    match = _EPOCH_NAME.match(summary.phase_name)
    return int(match.group(1)) if match else None


def predict(
    completed: list[PhaseSummary],
    setup: PhaseSummary | None,
    planned_epochs: int,
    intensity: CarbonIntensity | float,
) -> Forecast:
    """Extrapolate the whole run from epochs 1..k.

    planned_epochs must be at least the number of completed epochs; with
    k == planned the prediction is exactly the measured total.
    """
    if not completed:
        raise NoCompletedEpochs("need at least one completed epoch to predict")
    k = len(completed)
    if planned_epochs < k:
        raise ValueError("planned_epochs must be >= completed epochs")
    grams = intensity.grams_per_kwh if isinstance(intensity, CarbonIntensity) else float(intensity)
    return Forecast(
        basis_epochs=k,
        planned_epochs=planned_epochs,
        includes_setup=setup is not None,
        intensity_g_per_kwh=grams,
        epoch_mean_hours=math.fsum(p.duration_hours for p in completed) / k,
        epoch_mean_kwh=math.fsum(p.facility_kwh for p in completed) / k,
        setup_hours=setup.duration_hours if setup else 0.0,
        setup_kwh=setup.facility_kwh if setup else 0.0,
    )


def refine(forecast: Forecast, completed: PhaseSummary) -> Forecast:
    """Fold the next completed epoch into the forecast.

    If the summary is named ``epoch <n>``, n must be exactly the next
    epoch index; anything else raises EpochIndexRegression.
    """
    index = _epoch_index(completed)
    k = forecast.basis_epochs + 1
    if index is not None and index != k:
        raise EpochIndexRegression(f"expected epoch {k}, got {completed.phase_name!r}")
    return replace(
        forecast,
        basis_epochs=k,
        epoch_mean_hours=(forecast.epoch_mean_hours * forecast.basis_epochs + completed.duration_hours) / k,
        epoch_mean_kwh=(forecast.epoch_mean_kwh * forecast.basis_epochs + completed.facility_kwh) / k,
    )


def phase_summaries(
    log: SampleLog, pue: float, intensity: CarbonIntensity | float
) -> tuple[PhaseSummary | None, list[PhaseSummary]]:
    """Summaries of a run's setup and of each completed epoch.

    Each phase is the window of the log between its boundary events,
    integrated with ``pue`` by :func:`energy.window_energy`, so no slice
    is built; its emissions use ``intensity``. Setup is None without
    TRAIN_START and EPOCH_START 1 (or if they are out of time order); the
    epochs stop at the first one whose boundaries are missing or reversed.
    """

    def summarize(phase: str, name: str) -> PhaseSummary:
        start, end = sampler.phase_window(log, phase)
        kwh = energy.window_energy(log, start, end, pue).facility_kwh
        return PhaseSummary(name, (end - start) / energy.MS_PER_HOUR, kwh, carbon.co2e(kwh, intensity))

    setup = None
    try:
        setup = summarize("setup", "setup")
    except UnknownPhase:
        pass
    epochs = []
    for k in range(1, log.epochs_completed() + 1):
        try:
            epochs.append(summarize(f"epoch:{k}", f"epoch {k}"))
        except UnknownPhase:
            break
    return setup, epochs


def account(
    log: SampleLog, *, experiment_id: str, label: str, started_at: str, intensity: CarbonIntensity,
    pue: float, car_factor: float, exit_code: int, interrupted: bool,
) -> ExperimentRecord:
    """The ledger record of a finished run's log, for ``intensity.region``.

    The duration is TRAIN_START to TRAIN_END, else the sampled span, else
    0. The quality notes are the log's warnings, the energy notes, the
    count of event protocol violations, ``aborted`` for a nonzero
    ``exit_code`` and ``interrupted``, in that order.
    """
    result = energy.integrate_energy(log, pue)
    report = carbon.emissions(result.facility_kwh, intensity, car_kg_per_km=car_factor)
    setup, epochs = phase_summaries(log, pue, intensity)
    notes = [*log.warnings, *result.notes]
    if log.violations:
        notes.append(f"{log.violations} event protocol violation(s)")
    if exit_code != 0:
        notes.append("aborted")
    if interrupted:
        notes.append("interrupted")
    try:
        start, end = sampler.phase_window(log, "run")
    except UnknownPhase:
        start = min((series.timestamps[0] for series in log.series.values()), default=0)
        end = max((series.timestamps[-1] for series in log.series.values()), default=0)
    return ExperimentRecord(
        experiment_id=experiment_id, label=label, started_at=started_at,
        duration_hours=(end - start) / energy.MS_PER_HOUR, epochs_completed=log.epochs_completed(),
        energy_kwh=result.facility_kwh, intensity_g_per_kwh=intensity.grams_per_kwh, pue=pue,
        co2e_kg=report.co2e_kg, car_km=report.car_km, car_factor_kg_per_km=car_factor, region=intensity.region,
        phase_breakdown=((setup,) if setup else ()) + tuple(epochs), quality_notes=tuple(notes),
    )
