"""carbonledger: energy and CO2e accounting for compute experiments.

Measure power (real counters or replay traces), integrate to energy,
convert to emissions and everyday equivalences, forecast whole runs from
the first epoch, and keep an append-only ledger of finished experiments.

Importing the package loads none of its modules: each name in
``__all__`` is imported from its module on first use (PEP 562), so a
launch pays only for what it runs. ``carbonledger report`` loads
``ledger``, ``carbon`` and ``errors``; ``regions`` loads ``carbon`` and
``errors``; ``run`` loads ``probe`` and ``energy`` before it spawns its
child and the rest once the child has started (see ``cli``).
"""

import importlib

__version__ = "0.1.0"

#: Names the event file of a tracked job: ``carbonledger run`` sets it for
#: its child, and the job (``carbonledger-workload``) appends events there.
EVENTS_ENV = "CARBONLEDGER_EVENTS"

# Each public name, by the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "carbon": (
            "CarbonIntensity",
            "EmissionsReport",
            "car_km_equivalent",
            "co2e",
            "emissions",
            "flight_equivalent",
            "load_intensity_registry",
        ),
        "energy": ("EnergyResult", "RunParams", "average_power", "closed_form_energy", "integrate_energy"),
        "forecast": ("Forecast", "account", "phase_summaries", "predict", "refine"),
        "ledger": ("ExperimentRecord", "PhaseSummary", "append_record", "compare", "read_records", "render_report"),
        "probe": ("PowerSample", "Probe", "ProbeDescriptor", "ProbeKind", "open_probe"),
        "sampler": ("EpochEvent", "EventKind", "SampleLog", "parse_events", "run_sampler", "slice_phase"),
    }.items()
    for name in names
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    """Import a public name's module on first use and keep the name here."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
