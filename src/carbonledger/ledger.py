"""Append-only experiment ledger and report rendering.

Ledger format: JSON Lines, one record per line, UTF-8, LF, with a schema
version field ``v: 1`` in every line. Appends take an advisory lock and
write the whole line in one call, so concurrent readers never see a torn
record and earlier lines are never rewritten. When the ledger ends in an
unterminated line (a torn write), the append first writes the missing LF,
so the new record gets a line of its own and the torn line stays where it
is, for ``read_records`` to report.

The text report mirrors the classic efficiency-reporting table: hours to
three decimals, kWh and kg to two, km to two. CSV and JSON renderings
carry full precision. The JSON report is an array with one record per
line, in the ledger's own layout: each line is the record's ledger
object (sorted keys, ``v`` included), with non-ASCII characters escaped
so the document is ASCII.
"""

from __future__ import annotations

import fcntl
import io
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from . import carbon
from .errors import EmptySelection, InconsistentRecord, LedgerParseError, UnknownBaseline
from .forecast import PhaseSummary

SCHEMA_VERSION = 1

# Stored co2e / car_km may disagree with the formulas by at most this
# relative error before the record is rejected.
_CONSISTENCY_RTOL = 1e-6
_PHASE_OVERLAP_TOL = 1e-6


@dataclass(frozen=True)
class ExperimentRecord:
    """One finished (or aborted) experiment: identity, totals, breakdown."""

    experiment_id: str
    label: str
    started_at: str
    duration_hours: float
    epochs_completed: int
    energy_kwh: float
    intensity_g_per_kwh: float
    pue: float
    co2e_kg: float
    car_km: float
    car_factor_kg_per_km: float
    region: str
    phase_breakdown: tuple[PhaseSummary, ...] = ()
    quality_notes: tuple[str, ...] = ()

    def validate(self) -> None:
        """Raise InconsistentRecord when stored figures break the formulas."""
        expected_kg = carbon.co2e(self.energy_kwh, self.intensity_g_per_kwh)
        if not math.isclose(self.co2e_kg, expected_kg, rel_tol=_CONSISTENCY_RTOL, abs_tol=1e-12):
            raise InconsistentRecord(
                f"co2e_kg {self.co2e_kg} inconsistent with energy x intensity ({expected_kg})"
            )
        expected_km = carbon.car_km_equivalent(self.co2e_kg, self.car_factor_kg_per_km)
        if not math.isclose(self.car_km, expected_km, rel_tol=_CONSISTENCY_RTOL, abs_tol=1e-12):
            raise InconsistentRecord(f"car_km {self.car_km} inconsistent with factor ({expected_km})")
        phase_total = math.fsum(p.duration_hours for p in self.phase_breakdown)
        if self.duration_hours < phase_total - _PHASE_OVERLAP_TOL:
            raise InconsistentRecord(
                f"duration {self.duration_hours} h shorter than phase total {phase_total} h"
            )

    def to_dict(self) -> dict:
        """The record as its ledger object: plain dicts, lists and ``v``."""
        data = {name: getattr(self, name) for name in _RECORD_FIELDS}
        data["phase_breakdown"] = [
            {name: getattr(p, name) for name in _PHASE_FIELDS} for p in self.phase_breakdown
        ]
        data["quality_notes"] = list(self.quality_notes)
        data["v"] = SCHEMA_VERSION
        return data

    @staticmethod
    def from_dict(data: dict) -> "ExperimentRecord":
        values = dict(data)
        version = values.pop("v", None)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unknown schema version {version!r}")
        values["phase_breakdown"] = tuple(PhaseSummary(**p) for p in values.get("phase_breakdown", []))
        values["quality_notes"] = tuple(values.get("quality_notes", []))
        return ExperimentRecord(**values)


_RECORD_FIELDS = tuple(f.name for f in fields(ExperimentRecord))
_PHASE_FIELDS = tuple(f.name for f in fields(PhaseSummary))


def append_record(ledger_path: str | Path, record: ExperimentRecord) -> int:
    """Validate and append one record; returns its 1-based line position.

    An unterminated last line is ended with LF first, never rewritten, so
    the record gets its own line and the torn line keeps its number.
    """
    record.validate()
    line = (json.dumps(record.to_dict(), sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")
    path = Path(ledger_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+b") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            # Counted as bytes in chunks: a ledger line torn inside a UTF-8
            # character cannot fail the count, and the ledger is not held in memory.
            fh.seek(0)
            lines, last = 0, b"\n"
            while chunk := fh.read(1 << 16):
                lines += chunk.count(b"\n")
                last = chunk[-1:]
            if last != b"\n":
                line = b"\n" + line
            fh.write(line)
            fh.flush()
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
    return lines + line.count(b"\n")


def read_records(ledger_path: str | Path) -> list[ExperimentRecord]:
    """Parse every line of a ledger file, in append order.

    Raises LedgerParseError on a line that is not UTF-8 or not JSON (a
    torn write can be either), is not a record of schema version
    ``SCHEMA_VERSION``, or has unknown or missing keys.
    """
    records: list[ExperimentRecord] = []
    with open(ledger_path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise LedgerParseError(str(ledger_path), line_no, f"not UTF-8: {exc.reason}") from exc
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LedgerParseError(str(ledger_path), line_no, f"not JSON: {exc.msg}") from exc
            try:
                records.append(ExperimentRecord.from_dict(data))
            except (TypeError, ValueError) as exc:
                raise LedgerParseError(str(ledger_path), line_no, str(exc)) from exc
    return records


_TEXT_COLUMNS = (
    "Experiment",
    "Overall time (hr)",
    "Energy use (KWh)",
    "CO2eq. (kg)",
    "Travel by car (km)",
)

_CSV_FIELDS = (
    "experiment_id",
    "label",
    "started_at",
    "duration_hours",
    "epochs_completed",
    "energy_kwh",
    "intensity_g_per_kwh",
    "pue",
    "co2e_kg",
    "car_km",
    "car_factor_kg_per_km",
    "region",
)


def render_report(records: list[ExperimentRecord], format: str = "text-table") -> str:
    """Render records as a text table, CSV, or JSON document."""
    if not records:
        raise EmptySelection("no records to report")
    if format in ("text-table", "text"):
        return _render_text(records)
    if format == "csv":
        return _render_csv(records)
    if format == "json":
        # No indent: with one, json.dumps falls back to its pure-Python encoder.
        return "[\n" + ",\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in records) + "\n]\n"
    raise ValueError(f"unknown report format {format!r}")


def _render_text(records: list[ExperimentRecord]) -> str:
    rows = [
        (
            r.label,
            f"{r.duration_hours:.3f}",
            f"{r.energy_kwh:.2f}",
            f"{r.co2e_kg:.2f}",
            f"{r.car_km:.2f}",
        )
        for r in records
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(_TEXT_COLUMNS)]
    out = io.StringIO()
    header = " | ".join(h.ljust(widths[i]) for i, h in enumerate(_TEXT_COLUMNS))
    out.write(header.rstrip() + "\n")
    out.write("-+-".join("-" * w for w in widths) + "\n")
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [row[i].rjust(widths[i]) for i in range(1, len(row))]
        out.write(" | ".join(cells).rstrip() + "\n")
    return out.getvalue()


def _render_csv(records: list[ExperimentRecord]) -> str:
    out = io.StringIO()
    out.write(",".join(_CSV_FIELDS) + "\n")
    for r in records:
        values = [getattr(r, name) for name in _CSV_FIELDS]
        out.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in values) + "\n")
    return out.getvalue()


def parse_report_json(document: str) -> list[ExperimentRecord]:
    """Inverse of render_report(..., "json")."""
    return [ExperimentRecord.from_dict(d) for d in json.loads(document)]


@dataclass(frozen=True)
class RecordDelta:
    """One record's position relative to a baseline record."""

    experiment_id: str
    label: str
    delta_hours: float
    delta_kwh: float
    delta_co2e_kg: float
    hours_ratio: float | None
    energy_ratio: float | None
    co2e_ratio: float | None


def compare(records: list[ExperimentRecord], baseline_id: str) -> list[RecordDelta]:
    """Deltas and ratios of every record against one baseline.

    The baseline is matched by experiment_id first, then by label (first
    match in record order). Ratios are None when the baseline value is 0.
    """
    if not records:
        raise EmptySelection("no records to compare")
    baseline = next((r for r in records if r.experiment_id == baseline_id), None)
    if baseline is None:
        baseline = next((r for r in records if r.label == baseline_id), None)
    if baseline is None:
        raise UnknownBaseline(f"no record with id or label {baseline_id!r}")

    def ratio(value: float, base: float) -> float | None:
        return value / base if base else None

    return [
        RecordDelta(
            experiment_id=r.experiment_id,
            label=r.label,
            delta_hours=r.duration_hours - baseline.duration_hours,
            delta_kwh=r.energy_kwh - baseline.energy_kwh,
            delta_co2e_kg=r.co2e_kg - baseline.co2e_kg,
            hours_ratio=ratio(r.duration_hours, baseline.duration_hours),
            energy_ratio=ratio(r.energy_kwh, baseline.energy_kwh),
            co2e_ratio=ratio(r.co2e_kg, baseline.co2e_kg),
        )
        for r in records
    ]
