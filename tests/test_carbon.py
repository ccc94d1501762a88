from __future__ import annotations

import random

import pytest

from carbonledger.carbon import (
    DEFAULT_CAR_KG_PER_KM,
    DEFAULT_FLIGHT_TONS_PER_ROUND_TRIP,
    CarbonIntensity,
    car_km_equivalent,
    co2e,
    emissions,
    flight_equivalent,
    load_intensity_registry,
)
from carbonledger.errors import DuplicateRegion, RegistryParseError

from goldens import EFFECTIVE_INTENSITY, GOLDEN_ROWS, LLM_EMISSIONS


def test_co2e_at_annual_grid_average():
    assert co2e(3.53, 380.0) == pytest.approx(1.3414, rel=1e-12)


def test_co2e_zero_energy():
    assert co2e(0.0, CarbonIntensity("DE", 380.0)) == 0.0


def test_co2e_at_effective_intensity_matches_golden_row():
    assert co2e(3.53, EFFECTIVE_INTENSITY) == pytest.approx(1.04, abs=0.005)


def test_co2e_accepts_intensity_object():
    entry = CarbonIntensity("XX", 100.0, "test")
    assert co2e(2.0, entry) == pytest.approx(0.2)


def test_co2e_linearity():
    rng = random.Random(31337)
    for _ in range(200):
        energy = rng.uniform(0.0, 50.0)
        scale = rng.uniform(0.0, 10.0)
        grams = rng.uniform(1.0, 1000.0)
        assert co2e(scale * energy, grams) == pytest.approx(scale * co2e(energy, grams), rel=1e-12, abs=1e-15)


def test_co2e_strictly_increases_with_intensity():
    values = [co2e(2.5, grams) for grams in (100.0, 200.0, 380.0, 500.0)]
    assert values == sorted(values)
    assert len(set(values)) == len(values)


def test_car_km_golden_rows():
    # checked via the default factor on the two anchor rows
    assert car_km_equivalent(1.04) == pytest.approx(8.62, abs=0.05)
    assert car_km_equivalent(3.95) == pytest.approx(32.80, abs=0.10)
    assert car_km_equivalent(0.0) == 0.0


def test_car_factor_default_matches_golden_ratios():
    # oracle: the per-row kg/km ratios bracket the default factor
    ratios = [kg / km for _, _, _, kg, km in GOLDEN_ROWS]
    assert min(ratios) == pytest.approx(0.1203, abs=0.0002)
    assert max(ratios) == pytest.approx(0.1210, abs=0.0002)
    assert min(ratios) <= DEFAULT_CAR_KG_PER_KM <= max(ratios)


def test_car_km_round_trip_from_unrounded_co2e():
    # the published kg column is rounded to 2 decimals, which alone shifts
    # the km value by up to 0.06; the round-trip therefore starts from the
    # unrounded energy * intensity product.
    for _, _, kwh, _, km in GOLDEN_ROWS:
        kg = co2e(kwh, EFFECTIVE_INTENSITY)
        assert car_km_equivalent(kg) == pytest.approx(km, abs=0.05)


def test_flight_equivalents_reproduce_llm_rows():
    for _, tons, flights in LLM_EMISSIONS:
        assert flight_equivalent(tons) == pytest.approx(flights, abs=0.5)


def test_flight_anchor_rows():
    assert flight_equivalent(25.0) == pytest.approx(30.0, abs=0.1)
    assert flight_equivalent(500.0) == pytest.approx(600.0, abs=0.5)
    assert flight_equivalent(1.59) == pytest.approx(1.91, abs=0.05)


def test_flight_factor_recovered_from_rows():
    # oracle: rows 2..5 agree on tons-per-flight to 4 digits
    ratios = [tons / flights for _, tons, flights in LLM_EMISSIONS[1:]]
    assert all(r == pytest.approx(ratios[0], abs=5e-5) for r in ratios)
    assert DEFAULT_FLIGHT_TONS_PER_ROUND_TRIP == pytest.approx(ratios[0], abs=5e-5)


def test_emissions_report_is_internally_consistent():
    report = emissions(3.53, 380.0)
    assert report.co2e_kg == pytest.approx(report.energy_kwh * report.intensity_g_per_kwh / 1000.0, rel=1e-12)
    assert report.car_km == pytest.approx(report.co2e_kg / DEFAULT_CAR_KG_PER_KM, rel=1e-12)
    assert report.round_flights == pytest.approx(
        (report.co2e_kg / 1000.0) / DEFAULT_FLIGHT_TONS_PER_ROUND_TRIP, rel=1e-12
    )


def test_registry_file_row(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text("DE,380,nowtricity,2022-01-01\n", encoding="utf-8")
    registry = load_intensity_registry(path)
    assert registry["DE"].grams_per_kwh == 380.0
    assert registry["DE"].source == "nowtricity"


def test_registry_empty_file_keeps_builtins(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text("", encoding="utf-8")
    registry = load_intensity_registry(path)
    assert registry["DE"].grams_per_kwh == 380.0


def test_registry_no_path_is_builtins_only():
    registry = load_intensity_registry(None)
    assert set(registry) == {"DE"}


def test_registry_duplicate_region_rejected(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text("DE,380,a,2022-01-01\nDE,390,b,2023-01-01\n", encoding="utf-8")
    with pytest.raises(DuplicateRegion):
        load_intensity_registry(path)


def test_registry_file_overrides_builtin(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text("DE,401,ember,2024-01-01\nFR,60,ember,2024-01-01\n", encoding="utf-8")
    registry = load_intensity_registry(path)
    assert registry["DE"].grams_per_kwh == 401.0
    assert registry["FR"].grams_per_kwh == 60.0


def test_registry_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text("# comment\nDE,380,a,2022-01-01\nFR,sixty,b,2023-01-01\n", encoding="utf-8")
    with pytest.raises(RegistryParseError) as err:
        load_intensity_registry(path)
    assert err.value.line_no == 3


@pytest.mark.parametrize("grams", ["nan", "inf", "-inf"])
def test_registry_non_finite_intensity_names_file_and_line(tmp_path, grams):
    path = tmp_path / "registry.csv"
    path.write_text(f"DE,380,a,2022-01-01\nZZ,{grams},x,2024-01-01\n", encoding="utf-8")
    with pytest.raises(RegistryParseError) as err:
        load_intensity_registry(path)
    assert (err.value.path, err.value.line_no) == (str(path), 2)
    assert "finite" in err.value.reason


@pytest.mark.parametrize("grams", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_intensity_rejected(grams):
    with pytest.raises(ValueError):
        CarbonIntensity("XX", grams)
    with pytest.raises(ValueError):
        co2e(1.0, grams)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        co2e(-1.0, 380.0)
    with pytest.raises(ValueError):
        co2e(1.0, 0.0)
    with pytest.raises(ValueError):
        car_km_equivalent(-0.1)
    with pytest.raises(ValueError):
        flight_equivalent(-0.1)
    with pytest.raises(ValueError):
        CarbonIntensity("XX", -1.0)
