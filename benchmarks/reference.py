"""Independent reference checks for tracker and report outputs.

Expected figures come from the generated arrays alone: trapezoids summed
with ``math.fsum``, linear interpolation at phase edges, times sources
times PUE. Nothing here imports carbonledger. Each check returns a list
of mismatch descriptions; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left, bisect_right
from pathlib import Path

from workloads import CAR_KG_PER_KM, MS_PER_HOUR, PUE, Inputs

REL = 1e-9

_FORECAST = re.compile(
    r"^forecast after epoch 1: ([0-9.]+) kWh, ([0-9.]+) kg CO2e, ([0-9.]+) h for (\d+) planned epochs$"
)


def window_kwh(inputs: Inputs, start: int, end: int) -> float:
    """Facility kWh over [start, end] for all sources, from the raw arrays."""
    ts, ws = inputs.timestamps, inputs.watts
    i, j = bisect_left(ts, start), bisect_right(ts, end)
    points = list(zip(ts[i:j], ws[i:j]))
    if 0 < i < len(ts) and ts[i] != start:
        frac = (start - ts[i - 1]) / (ts[i] - ts[i - 1])
        points.insert(0, (start, ws[i - 1] + (ws[i] - ws[i - 1]) * frac))
    if 0 < j < len(ts) and ts[j - 1] != end:
        frac = (end - ts[j - 1]) / (ts[j] - ts[j - 1])
        points.append((end, ws[j - 1] + (ws[j] - ws[j - 1]) * frac))
    terms = [
        0.5 * (w0 + w1) * (t1 - t0) / MS_PER_HOUR / 1000.0
        for (t0, w0), (t1, w1) in zip(points, points[1:])
    ]
    return math.fsum(terms) * inputs.spec.sources * PUE


class Expected:
    """Run totals and per-phase figures the tracker must reproduce."""

    def __init__(self, inputs: Inputs):
        b = inputs.boundaries
        self.inputs = inputs
        self.energy_kwh = window_kwh(inputs, b[0], b[-1])
        self.phases = [("setup", b[0], b[1])] + [
            (f"epoch {k}", b[k], b[k + 1]) for k in range(1, len(b) - 1)
        ]
        self.phase_kwh = [window_kwh(inputs, s, e) for _, s, e in self.phases]
        self.duration_hours = (b[-1] - b[0]) / MS_PER_HOUR
        grams = inputs.grams_per_kwh
        self.co2e_kg = self.energy_kwh * grams / 1000.0
        self.car_km = self.co2e_kg / CAR_KG_PER_KM
        planned = inputs.spec.epochs
        self.forecast_kwh = self.phase_kwh[0] + planned * self.phase_kwh[1]
        self.forecast_co2e = self.forecast_kwh * grams / 1000.0
        self.forecast_hours = ((b[1] - b[0]) + planned * (b[2] - b[1])) / MS_PER_HOUR
        history = inputs.history_path
        self.history_text = history.read_text(encoding="utf-8") if history else ""
        self.history = [json.loads(line) for line in self.history_text.splitlines()]


def _close(a: float, b: float, rel: float = REL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-15)


def check_record(record: dict, exp: Expected, label: str) -> list[str]:
    """One ledger record against the reference figures and formulas."""
    errors = []
    spec = exp.inputs.spec
    if record.get("label") != label:
        errors.append(f"label {record.get('label')!r} != {label!r}")
    for key, want in (
        ("energy_kwh", exp.energy_kwh),
        ("co2e_kg", exp.co2e_kg),
        ("car_km", exp.car_km),
        ("duration_hours", exp.duration_hours),
    ):
        if not _close(record.get(key, math.nan), want):
            errors.append(f"{key} {record.get(key)} != reference {want}")
    grams = exp.inputs.grams_per_kwh
    if not _close(record["co2e_kg"], record["energy_kwh"] * grams / 1000.0):
        errors.append("co2e_kg breaks energy x intensity")
    if not _close(record["car_km"], record["co2e_kg"] / CAR_KG_PER_KM):
        errors.append("car_km breaks co2e / car factor")
    if record.get("epochs_completed") != spec.epochs:
        errors.append(f"epochs_completed {record.get('epochs_completed')} != {spec.epochs}")
    if record.get("quality_notes"):
        errors.append(f"unexpected quality notes {record['quality_notes']}")
    phases = record.get("phase_breakdown", [])
    names = [p["phase_name"] for p in phases]
    if names != [name for name, _, _ in exp.phases]:
        errors.append(f"phase names {names[:3]}... do not match setup + {spec.epochs} epochs")
    else:
        for p, want in zip(phases, exp.phase_kwh):
            if not _close(p["facility_kwh"], want):
                errors.append(f"{p['phase_name']} kWh {p['facility_kwh']} != reference {want}")
        total = math.fsum(p["facility_kwh"] for p in phases)
        if not _close(total, record["energy_kwh"]):
            errors.append(f"phase kWh sum {total} != run total {record['energy_kwh']}")
    return errors


def check_forecast_line(line: str | None, exp: Expected) -> list[str]:
    """The epoch-1 forecast, compared at the precision it is printed with."""
    if line is None:
        return ["no 'forecast after epoch 1:' line"]
    match = _FORECAST.match(line)
    if not match:
        return [f"unparsable forecast line {line!r}"]
    kwh, co2e, hours, planned = match.groups()
    errors = []
    for text, want, places in (
        (kwh, exp.forecast_kwh, 3),
        (co2e, exp.forecast_co2e, 4),
        (hours, exp.forecast_hours, 3),
    ):
        if abs(float(text) - want) > 0.5 * 10**-places * (1 + 1e-9) + 1e-12:
            errors.append(f"forecast {text} != reference {want:.{places + 3}f}")
    if int(planned) != exp.inputs.spec.epochs:
        errors.append(f"forecast planned {planned} != {exp.inputs.spec.epochs}")
    return errors


def check_ledger(path: Path, exp: Expected, label: str) -> tuple[list[str], dict | None]:
    """The ledger gained exactly one valid line and kept its history.

    Returns (errors, the appended record).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        return [f"ledger unreadable: {exc}"], None
    if not text.startswith(exp.history_text):
        return ["earlier ledger lines were rewritten"], None
    added = text[len(exp.history_text) :].splitlines()
    if len(added) != 1:
        return [f"ledger gained {len(added)} lines, expected 1"], None
    try:
        last = json.loads(added[0])
    except json.JSONDecodeError as exc:
        return [f"appended line is not JSON: {exc}"], None
    return check_record(last, exp, label), last


def check_text_report(document: str, exp: Expected, last: dict) -> list[str]:
    """Header, rule and one row per record; the last row matches the record."""
    rows = document.splitlines()
    if len(rows) != 3 + len(exp.history):
        return [f"text report has {len(rows)} lines for {len(exp.history) + 1} records"]
    labels = [row.split(" | ", 1)[0].rstrip() for row in rows[2:]]
    if labels != [r["label"] for r in exp.history] + [last["label"]]:
        return ["text report rows are not the ledger's records in order"]
    cells = [c.strip() for c in rows[-1].split("|")]
    want = [
        last["label"],
        f"{last['duration_hours']:.3f}",
        f"{last['energy_kwh']:.2f}",
        f"{last['co2e_kg']:.2f}",
        f"{last['car_km']:.2f}",
    ]
    return [] if cells == want else [f"text row {cells} != {want}"]


def check_json_report(document: str, exp: Expected, last: dict) -> list[str]:
    """The JSON report equals the ledger, field for field."""
    try:
        parsed = json.loads(document)
    except json.JSONDecodeError as exc:
        return [f"JSON report does not parse: {exc}"]
    if parsed != exp.history + [last]:
        return ["JSON report differs from the ledger"]
    return []
