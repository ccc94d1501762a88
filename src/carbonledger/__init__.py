"""carbonledger: energy and CO2e accounting for compute experiments.

Measure power (real counters or replay traces), integrate to energy,
convert to emissions and everyday equivalences, forecast whole runs from
the first epoch, and keep an append-only ledger of finished experiments.
"""

from .carbon import (
    CarbonIntensity,
    EmissionsReport,
    car_km_equivalent,
    co2e,
    emissions,
    flight_equivalent,
    load_intensity_registry,
)
from .energy import EnergyResult, RunParams, average_power, closed_form_energy, integrate_energy
from .forecast import Forecast, account, phase_summaries, predict, refine
from .ledger import ExperimentRecord, PhaseSummary, append_record, compare, read_records, render_report
from .probe import PowerSample, Probe, ProbeDescriptor, ProbeKind, open_probe
from .sampler import EpochEvent, EventKind, SampleLog, parse_events, run_sampler, slice_phase

__version__ = "0.1.0"

__all__ = [
    "CarbonIntensity",
    "EmissionsReport",
    "EnergyResult",
    "EpochEvent",
    "EventKind",
    "ExperimentRecord",
    "Forecast",
    "PhaseSummary",
    "PowerSample",
    "Probe",
    "ProbeDescriptor",
    "ProbeKind",
    "RunParams",
    "SampleLog",
    "account",
    "append_record",
    "average_power",
    "car_km_equivalent",
    "closed_form_energy",
    "co2e",
    "compare",
    "emissions",
    "flight_equivalent",
    "integrate_energy",
    "load_intensity_registry",
    "open_probe",
    "parse_events",
    "phase_summaries",
    "predict",
    "read_records",
    "refine",
    "render_report",
    "run_sampler",
    "slice_phase",
    "__version__",
]
