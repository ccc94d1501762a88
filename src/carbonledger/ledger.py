"""Append-only experiment ledger and report rendering.

The record schema, :class:`ExperimentRecord` and :class:`PhaseSummary`,
lives here beside the rule that checks it, apart from the measurement
stack; :func:`carbonledger.forecast.account` builds a run's record.

Ledger format: JSON Lines, one record per line, UTF-8, LF, with a schema
version field ``v: 1`` in every line. Appends take an advisory lock and
write the whole line in one call, so concurrent readers never see a torn
record and earlier lines are never rewritten. When the ledger ends in an
unterminated line (a torn write), the append first writes the missing LF,
so the new record gets a line of its own and the torn line stays where it
is, for readers to report.

One rule, :func:`check_ledger_object`, defines a record, and both sides
apply it: ``append_record`` to ``to_dict()``, writing nothing it refuses,
and :func:`scan_ledger`, the one streaming parser, to each stored line's
object, in any key order, spacing or escaping. The object holds every
record key plus ``v``, the integer 1; each field of its annotated type (a
float field holds a number, never a boolean); a list of strings for
``quality_notes``; and a list of phases, each with exactly the phase keys.
Every figure is finite (within ``sys.float_info.max``: no NaN, ±inf or
integer too large for a float) and >= 0; ``pue`` is >= 1, intensity and
car factor > 0. Within ``_CONSISTENCY_RTOL``, ``co2e_kg`` (a phase's too)
is its kWh x intensity / 1000 and ``car_km`` is ``co2e_kg`` / car factor;
``duration_hours`` covers the phases' total, less ``PHASE_OVERLAP_TOL``.
The parser keeps each line as its ledger object, a dict, so a report
builds no ``PhaseSummary``. ``read_records`` raises on the first bad line;
``read_ledger`` keeps every readable line and the error of every bad one,
so one torn line does not hide the rest of the ledger from a report.

The text report mirrors the classic efficiency-reporting table: hours to
three decimals, kWh and kg to two, km to two. A C0 control character or
DEL in a label is written as its Python escape (``\\n``, ``\\x1b``), so
each record keeps one row. CSV and JSON renderings carry full precision;
CSV fields holding a comma, quote or line break are quoted. The JSON
report is an array with one record per line, in the ledger's own layout:
each line is the record's ledger object (sorted keys, ``v`` included),
with non-ASCII characters escaped so the document is ASCII. A stored line
that is printable ASCII (no DEL, tab or other control character once
stripped) passes through as stored, byte for byte what re-encoding would
give unless it was edited by hand; any other line is re-encoded.
"""

from __future__ import annotations

import fcntl
import io
import json
import math
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass, fields
from pathlib import Path

from . import carbon
from .errors import EmptySelection, InconsistentRecord, LedgerParseError, UnknownBaseline

SCHEMA_VERSION = 1

# Stored co2e / car_km may disagree with the formulas by at most this
# relative error before the record is rejected.
_CONSISTENCY_RTOL = 1e-6
PHASE_OVERLAP_TOL = 1e-6


@dataclass(frozen=True)
class PhaseSummary:
    """Duration, energy, and emissions of one named phase."""

    phase_name: str
    duration_hours: float
    facility_kwh: float
    co2e_kg: float


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
        """The record of a ledger object; check_ledger_object's ValueError if it is not one."""
        check_ledger_object(data)
        return _record(data)


_RECORD_FIELDS = tuple(f.name for f in fields(ExperimentRecord))
_PHASE_FIELDS = tuple(f.name for f in fields(PhaseSummary))
_PHASE_FIGURES = ("duration_hours", "facility_kwh", "co2e_kg")


def append_record(ledger_path: str | Path, record: ExperimentRecord) -> None:
    """Append one record, or raise InconsistentRecord with the reason
    check_ledger_object gives for refusing it. The cost does not grow with
    the ledger: only its last byte is read.

    An unterminated last line is ended with LF first, never rewritten, so
    the record gets its own line and the torn line keeps its number.
    """
    data = record.to_dict()
    try:
        check_ledger_object(data)
    except ValueError as exc:
        raise InconsistentRecord(str(exc)) from None
    document = json.dumps(data, sort_keys=True, ensure_ascii=False, allow_nan=False)
    line = (document + "\n").encode("utf-8")
    path = Path(ledger_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+b") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            # read under the lock, so no other append lands between the
            # check and the write; "a" mode writes at the end wherever we read
            end = fh.seek(0, io.SEEK_END)
            if end:
                fh.seek(end - 1)
                if fh.read(1) != b"\n":
                    line = b"\n" + line
            fh.write(line)
            fh.flush()
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


_LEDGER_KEYS = frozenset(_RECORD_FIELDS) | {"v"}
_PHASE_KEYS = frozenset(_PHASE_FIELDS)
# compared with type(), so a boolean is not a number
_NUMBER = (float, int)
# every record field but the phases and the notes, by its annotated type:
# the types json.loads may give its value, and what the value must be
_JSON_TYPES = {"str": ((str,), "a string"), "int": ((int,), "an integer"), "float": (_NUMBER, "a number")}
_RECORD_SCALARS = [(f.name, *_JSON_TYPES[f.type]) for f in fields(ExperimentRecord) if f.type in _JSON_TYPES]
# a figure is finite when it lies in [-_MAX, _MAX]; NaN, inf and integers too large for a float do not
_MAX = sys.float_info.max


def check_ledger_object(data) -> None:
    """Raise ValueError, naming the key or field at fault, unless ``data``
    (as json.loads gives it) keeps the one record rule that append_record
    and scan_ledger both apply; the module docstring states the rule."""
    if type(data) is not dict:
        raise ValueError("not a JSON object")
    version = data.get("v")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unknown schema version {version!r}")
    if data.keys() != _LEDGER_KEYS:
        unknown = data.keys() - _LEDGER_KEYS
        if unknown:
            raise ValueError(f"unknown key {min(unknown)!r}")
        raise ValueError(f"missing key {min(_LEDGER_KEYS - data.keys())!r}")
    for name, types, kind in _RECORD_SCALARS:
        value = data[name]
        if type(value) not in types:
            raise ValueError(f"{name} must be {kind}")
        if str not in types and not 0 <= value <= _MAX:
            raise ValueError(f"{name} must be a finite number >= 0")
    if data["pue"] < 1:
        raise ValueError("pue must be >= 1")
    for name in ("intensity_g_per_kwh", "car_factor_kg_per_km"):
        if data[name] == 0:
            raise ValueError(f"{name} must be > 0")
    notes = data["quality_notes"]
    if type(notes) is not list or not all(type(note) is str for note in notes):
        raise ValueError("quality_notes must be a list of strings")
    phases = data["phase_breakdown"]
    if type(phases) is not list:
        raise ValueError("phase_breakdown must be a list")
    grams = data["intensity_g_per_kwh"]
    phase_hours = 0.0
    for i, phase in enumerate(phases):
        if type(phase) is not dict or phase.keys() != _PHASE_KEYS:
            raise ValueError(f"phase_breakdown[{i}] must be an object with the keys {', '.join(_PHASE_FIELDS)}")
        if type(phase["phase_name"]) is not str:
            raise ValueError(f"phase_breakdown[{i}].phase_name must be a string")
        for name in _PHASE_FIGURES:
            value = phase[name]
            if type(value) not in _NUMBER or not 0 <= value <= _MAX:
                raise ValueError(f"phase_breakdown[{i}].{name} must be a finite number >= 0")
        kg, want = phase["co2e_kg"], carbon.co2e(phase["facility_kwh"], grams)
        if not math.isclose(kg, want, rel_tol=_CONSISTENCY_RTOL, abs_tol=1e-12):
            raise ValueError(f"phase_breakdown[{i}].co2e_kg {kg} inconsistent with facility_kwh x intensity ({want})")
        phase_hours += phase["duration_hours"]
    kg, want = data["co2e_kg"], carbon.co2e(data["energy_kwh"], grams)
    if not math.isclose(kg, want, rel_tol=_CONSISTENCY_RTOL, abs_tol=1e-12):
        raise ValueError(f"co2e_kg {kg} inconsistent with energy_kwh x intensity ({want})")
    km, want = data["car_km"], carbon.car_km_equivalent(kg, data["car_factor_kg_per_km"])
    if not math.isclose(km, want, rel_tol=_CONSISTENCY_RTOL, abs_tol=1e-12):
        raise ValueError(f"car_km {km} inconsistent with co2e_kg / car_factor_kg_per_km ({want})")
    if data["duration_hours"] < phase_hours - PHASE_OVERLAP_TOL:
        raise ValueError(f"duration_hours {data['duration_hours']} is shorter than the phase total {phase_hours}")


def _record(data: dict) -> ExperimentRecord:
    """The record of a ledger object that check_ledger_object passed."""
    values = {name: data[name] for name in _RECORD_FIELDS}
    values["phase_breakdown"] = tuple(PhaseSummary(**p) for p in data["phase_breakdown"])
    values["quality_notes"] = tuple(data["quality_notes"])
    return ExperimentRecord(**values)


def scan_ledger(ledger_path: str | Path) -> Iterator[tuple[int, bytes, dict | LedgerParseError]]:
    """Stream a ledger: per non-blank line, its 1-based number, its stored
    bytes, and its ledger object or the LedgerParseError that rejects it.

    A line is rejected when it is not UTF-8 or not JSON (a torn write can be
    either, and so can an integer too long to convert or nesting too deep
    to decode), or when check_ledger_object rejects its object.
    """
    path = str(ledger_path)
    with open(ledger_path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                yield line_no, raw, LedgerParseError(path, line_no, f"not UTF-8: {exc.reason}")
                continue
            if not line:
                continue
            try:
                data = json.loads(line)
            except (ValueError, RecursionError) as exc:
                reason = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                yield line_no, raw, LedgerParseError(path, line_no, f"not JSON: {reason}")
                continue
            try:
                check_ledger_object(data)
            except ValueError as exc:
                yield line_no, raw, LedgerParseError(path, line_no, str(exc))
            else:
                yield line_no, raw, data


def read_records(ledger_path: str | Path) -> list[ExperimentRecord]:
    """Parse every line of a ledger file, in append order.

    Raises the LedgerParseError of the first bad line (see scan_ledger).
    """
    records: list[ExperimentRecord] = []
    for _, _, parsed in scan_ledger(ledger_path):
        if isinstance(parsed, LedgerParseError):
            raise parsed
        records.append(_record(parsed))
    return records


def read_ledger(
    ledger_path: str | Path, select: str | None = None
) -> tuple[list[tuple[bytes, dict]], list[LedgerParseError]]:
    """The readable lines of a ledger as (stored bytes, ledger object)
    pairs in append order, and the error of every bad line, for
    :func:`render_stored`.

    With ``select``, only records whose label contains it or whose
    experiment_id equals it are kept.
    """
    stored: list[tuple[bytes, dict]] = []
    errors: list[LedgerParseError] = []
    for _, raw, parsed in scan_ledger(ledger_path):
        if isinstance(parsed, LedgerParseError):
            errors.append(parsed)
        elif select is None or select in parsed["label"] or select == parsed["experiment_id"]:
            stored.append((raw, parsed))
    return stored, errors


_TEXT_COLUMNS = (
    "Experiment",
    "Overall time (hr)",
    "Energy use (KWh)",
    "CO2eq. (kg)",
    "Travel by car (km)",
)

# every record field but the phases and the notes, in declaration order
_CSV_FIELDS = tuple(name for name, _, _ in _RECORD_SCALARS)


def render_report(records: list[ExperimentRecord], format: str) -> str:
    """Render records as a ``text`` table, a ``csv`` or a ``json`` document."""
    # text and CSV read a record's values by field name; JSON needs its ledger object
    return render_stored([(None, r.to_dict() if format == "json" else vars(r)) for r in records], format)


def render_stored(stored: list[tuple[bytes | None, dict]], format: str) -> str:
    """Render the (stored bytes, ledger object) pairs of read_ledger; a
    JSON line is re-encoded from the object where there are no bytes."""
    if not stored:
        raise EmptySelection("no records to report")
    if format == "json":
        # No indent: with one, json.dumps falls back to its pure-Python encoder.
        return "[\n" + ",\n".join(_json_line(raw, data) for raw, data in stored) + "\n]\n"
    rows = [data for _, data in stored]
    if format == "text":
        return _render_text(rows)
    if format == "csv":
        return _render_csv(rows)
    raise ValueError(f"unknown report format {format!r}")


def _json_line(raw: bytes | None, data: dict) -> str:
    # json.dumps escapes DEL, which append_record writes raw; a tab or CR
    # between tokens is JSON whitespace but would not keep one line per record
    if raw is not None and raw.isascii() and (line := raw.decode("ascii").strip()).isprintable():
        return line
    # a ledger object encodes exactly as its record's to_dict() does
    return json.dumps(data, sort_keys=True)


# a C0 control character or DEL, which would break a text row or the terminal
_CONTROL = re.compile("[\x00-\x1f\x7f]")


def _escape(match: re.Match) -> str:
    return repr(match.group())[1:-1]


def _render_text(records: list[dict]) -> str:
    rows = [
        (
            _CONTROL.sub(_escape, r["label"]),
            f"{r['duration_hours']:.3f}",
            f"{r['energy_kwh']:.2f}",
            f"{r['co2e_kg']:.2f}",
            f"{r['car_km']:.2f}",
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


def _render_csv(records: list[dict]) -> str:
    out = io.StringIO()
    out.write(",".join(_CSV_FIELDS) + "\n")
    for r in records:
        out.write(",".join(_csv_field(r[name]) for name in _CSV_FIELDS) + "\n")
    return out.getvalue()


def _csv_field(value) -> str:
    """A float at repr precision, anything else as str, quoted as RFC 4180
    asks when it holds a comma, a quote or a line break. Not csv.writer: with
    an LF line terminator it leaves a bare CR unquoted, which splits the row."""
    text = repr(value) if isinstance(value, float) else str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


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
