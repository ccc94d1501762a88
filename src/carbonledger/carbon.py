"""Energy-to-emissions conversion and the region intensity registry.

CO2e mass is computed as kWh times a grid intensity in grams per kWh; all
mass arithmetic is done in kilograms, with metric tons appearing only at
presentation time (flight equivalences). The equivalence factors for car
travel and round flights are configuration, not physics; the defaults
below were fitted to published reporting and can be overridden per call.

Registry file format: CSV, UTF-8, LF, columns
``region,grams_per_kwh,source,as_of``; ``#`` lines are comments.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import DuplicateRegion, RegistryParseError

#: kg CO2e per km driven by an average passenger car (report-equivalent).
DEFAULT_CAR_KG_PER_KM = 0.1206

#: metric tons CO2e per round flight between London and New York.
DEFAULT_FLIGHT_TONS_PER_ROUND_TRIP = 0.8333


@dataclass(frozen=True)
class CarbonIntensity:
    """Region-keyed grams-CO2e-per-kWh figure with provenance."""

    region: str
    grams_per_kwh: float
    source: str = ""
    as_of: datetime.date | None = None

    def __post_init__(self) -> None:
        if not 0 < self.grams_per_kwh < math.inf:
            raise ValueError(f"grams_per_kwh must be finite and > 0, not {self.grams_per_kwh}")


#: Annual grid average for Germany, the only figure shipped built in;
#: everything else comes from a registry file.
BUILT_IN_INTENSITIES: dict[str, CarbonIntensity] = {
    "DE": CarbonIntensity("DE", 380.0, "nowtricity", datetime.date(2022, 1, 1)),
}


@dataclass(frozen=True)
class EmissionsReport:
    """One energy figure rendered as mass and everyday equivalences."""

    energy_kwh: float
    intensity_g_per_kwh: float
    co2e_kg: float
    car_km: float
    round_flights: float


def _grams(intensity: CarbonIntensity | float) -> float:
    if isinstance(intensity, CarbonIntensity):
        return intensity.grams_per_kwh
    if not 0 < intensity < math.inf:
        raise ValueError(f"intensity must be finite and > 0, not {intensity}")
    return float(intensity)


def co2e(energy_kwh: float, intensity: CarbonIntensity | float) -> float:
    """kg CO2e for the energy at the given grid intensity (g/kWh)."""
    if energy_kwh < 0:
        raise ValueError("energy_kwh must be >= 0")
    return energy_kwh * _grams(intensity) / 1000.0


def car_km_equivalent(co2e_kg: float, kg_per_km: float = DEFAULT_CAR_KG_PER_KM) -> float:
    """Kilometres an average car drives to emit the same mass."""
    if co2e_kg < 0:
        raise ValueError("co2e_kg must be >= 0")
    return co2e_kg / kg_per_km


def flight_equivalent(
    co2e_tons: float, tons_per_flight: float = DEFAULT_FLIGHT_TONS_PER_ROUND_TRIP
) -> float:
    """Round London-New York flights emitting the same mass (input in t)."""
    if co2e_tons < 0:
        raise ValueError("co2e_tons must be >= 0")
    return co2e_tons / tons_per_flight


def emissions(
    energy_kwh: float,
    intensity: CarbonIntensity | float,
    car_kg_per_km: float = DEFAULT_CAR_KG_PER_KM,
    flight_tons: float = DEFAULT_FLIGHT_TONS_PER_ROUND_TRIP,
) -> EmissionsReport:
    """Full emissions rendering of one energy figure."""
    grams = _grams(intensity)
    kg = co2e(energy_kwh, grams)
    return EmissionsReport(
        energy_kwh=energy_kwh,
        intensity_g_per_kwh=grams,
        co2e_kg=kg,
        car_km=car_km_equivalent(kg, car_kg_per_km),
        round_flights=flight_equivalent(kg / 1000.0, flight_tons),
    )


def load_intensity_registry(path: str | Path | None = None) -> dict[str, CarbonIntensity]:
    """Region -> intensity map: built-in defaults overlaid by a CSV file.

    A file row for a region already present in the built-ins overrides
    it; the same region twice within one file raises DuplicateRegion.
    With no path, the built-ins alone are returned.
    """
    registry = dict(BUILT_IN_INTENSITIES)
    if path is None:
        return registry
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise RegistryParseError(str(path), line_no, f"expected 4 columns, got {len(parts)}")
            region, grams_text, source, as_of_text = (p.strip() for p in parts)
            if not region:
                raise RegistryParseError(str(path), line_no, "empty region code")
            if region in seen:
                raise DuplicateRegion(f"{path}:{line_no}: region {region} appears twice")
            try:
                grams = float(grams_text)
                as_of = datetime.date.fromisoformat(as_of_text)
                entry = CarbonIntensity(region, grams, source, as_of)
            except ValueError as exc:
                raise RegistryParseError(str(path), line_no, str(exc)) from exc
            seen.add(region)
            registry[region] = entry
    return registry
