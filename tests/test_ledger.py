from __future__ import annotations

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from carbonledger import carbon
from carbonledger.cli import main
from carbonledger.errors import EmptySelection, InconsistentRecord, LedgerParseError, UnknownBaseline
from carbonledger.forecast import PhaseSummary
from carbonledger.ledger import (
    ExperimentRecord,
    append_record,
    compare,
    parse_report_json,
    read_ledger,
    read_records,
    render_report,
    render_stored,
    scan_ledger,
)

from conftest import golden_records, make_record, write_bad_ledger
from goldens import GOLDEN_ROWS


def test_append_round_trip(tmp_path):
    path = tmp_path / "ledger.jsonl"
    record = make_record()
    assert append_record(path, record) is None
    assert [(line_no, data) for line_no, _, data in scan_ledger(path)] == [(1, record.to_dict())]
    assert read_records(path) == [record]


def test_append_preserves_order_and_prior_bytes(tmp_path):
    path = tmp_path / "ledger.jsonl"
    first = make_record("one")
    append_record(path, first)
    snapshot = path.read_bytes()
    second = make_record("two")
    append_record(path, second)
    assert [line_no for line_no, _, _ in scan_ledger(path)] == [1, 2]
    assert path.read_bytes().startswith(snapshot)
    assert [r.label for r in read_records(path)] == ["one", "two"]


def test_every_line_carries_schema_version(tmp_path):
    path = tmp_path / "ledger.jsonl"
    append_record(path, make_record())
    for line in path.read_text().splitlines():
        assert json.loads(line)["v"] == 1


def test_inconsistent_co2e_rejected(tmp_path):
    record = make_record()
    object.__setattr__(record, "co2e_kg", record.co2e_kg * 1.001)  # off by 1e-3 > 1e-6
    with pytest.raises(InconsistentRecord):
        append_record(tmp_path / "ledger.jsonl", record)


def test_inconsistent_car_km_rejected(tmp_path):
    record = make_record()
    object.__setattr__(record, "car_km", record.car_km + 0.5)
    with pytest.raises(InconsistentRecord):
        append_record(tmp_path / "ledger.jsonl", record)


def test_duration_shorter_than_phases_rejected(tmp_path):
    record = make_record(
        hours=0.1,
        phase_breakdown=(PhaseSummary("epoch 1", 0.5, 0.0, 0.0),),
    )
    with pytest.raises(InconsistentRecord):
        append_record(tmp_path / "ledger.jsonl", record)


@pytest.mark.parametrize(
    "overrides",
    [
        {"hours": float("nan")},
        {"hours": float("inf")},
        {"epochs_completed": -3},
        {"phase_breakdown": (PhaseSummary("epoch 1", 0.5, float("nan"), 0.0),)},
    ],
)
def test_non_finite_figure_or_negative_epoch_count_rejected(tmp_path, overrides):
    path = tmp_path / "ledger.jsonl"
    append_record(path, make_record("first"))
    before = path.read_bytes()
    with pytest.raises(InconsistentRecord):
        append_record(path, make_record(**overrides))
    assert path.read_bytes() == before


def test_text_report_reproduces_golden_table():
    document = render_report(golden_records(), "text")
    lines = document.splitlines()
    assert lines[0].split(" | ")[0].strip() == "Experiment"
    assert "Overall time (hr)" in lines[0]
    assert "Energy use (KWh)" in lines[0]
    assert "CO2eq. (kg)" in lines[0]
    assert "Travel by car (km)" in lines[0]
    body = lines[2:]
    for line, (label, hours, kwh, kg, km) in zip(body, GOLDEN_ROWS):
        cells = [c.strip() for c in line.split("|")]
        assert cells[0] == label
        assert cells[1] == f"{hours:.3f}"
        assert cells[2] == f"{kwh:.2f}"
        assert cells[3] == f"{kg:.2f}"
        assert cells[4] == f"{km:.2f}"


def test_text_report_escapes_control_characters_in_labels():
    labels = ["line\nbreak", "cr\rtab\tesc\x1b[31m del\x7f nul\x00 fs\x1c", "ok"]
    lines = render_report([make_record(label) for label in labels], "text").split("\n")
    assert len(lines) == 2 + len(labels) + 1 and lines[-1] == ""
    escaped = ["line\\nbreak", "cr\\rtab\\tesc\\x1b[31m del\\x7f nul\\x00 fs\\x1c", "ok"]
    assert [line.split(" | ")[0].rstrip() for line in lines[2:-1]] == escaped
    assert len({line.index("|") for line in lines[:-1] if "|" in line}) == 1  # the columns line up


# ASCII half the time, so control characters are drawn often
@given(st.lists(st.text(st.characters(max_codepoint=0x7F) | st.characters(), max_size=8), min_size=1, max_size=4))
def test_text_report_has_one_row_per_record(labels):
    lines = render_report([make_record(label) for label in labels], "text").split("\n")
    assert len(lines) == 2 + len(labels) + 1
    for line, label in zip(lines[2:], labels):
        if label.isprintable():  # printable labels are written as they are
            assert line.startswith(label + " ")


def test_single_record_table_keeps_header():
    document = render_report([make_record()], "text")
    lines = document.splitlines()
    assert len(lines) == 3
    assert "Experiment" in lines[0]


def test_json_render_parse_round_trip():
    records = golden_records()
    document = render_report(records, "json")
    assert parse_report_json(document) == records


def test_csv_render_full_precision():
    record = make_record(kwh=0.7750000000000001)
    document = render_report([record], "csv")
    header, row = document.splitlines()
    assert header.split(",")[5] == "energy_kwh"
    assert float(row.split(",")[5]) == record.energy_kwh


def test_report_determinism():
    records = golden_records()
    assert render_report(records, "text") == render_report(records, "text")
    assert render_report(records, "json") == render_report(records, "json")


def test_report_requires_records():
    with pytest.raises(EmptySelection):
        render_report([], "text")
    with pytest.raises(EmptySelection):
        compare([], "x")


def test_report_unknown_format():
    with pytest.raises(ValueError):
        render_report([make_record()], "xml")


def test_compare_deltas_against_baseline():
    records = golden_records()
    deltas = {d.label: d for d in compare(records, "T5s FT")}
    assert deltas["T5b FT"].delta_hours == pytest.approx(3.793 - 1.981, abs=1e-9)
    vs_base = {d.label: d for d in compare(records, "T5b FT")}
    assert vs_base["T5b IK+FT"].energy_ratio == pytest.approx(13.42 / 2.74, rel=1e-9)
    assert vs_base["T5b IK+FT"].energy_ratio == pytest.approx(4.90, abs=0.01)


def test_compare_self_is_zero_delta_unit_ratio():
    records = golden_records()
    self_delta = next(d for d in compare(records, "T5s FT") if d.label == "T5s FT")
    assert self_delta.delta_hours == 0.0
    assert self_delta.delta_kwh == 0.0
    assert self_delta.delta_co2e_kg == 0.0
    assert self_delta.hours_ratio == 1.0
    assert self_delta.energy_ratio == 1.0


def test_compare_unknown_baseline():
    with pytest.raises(UnknownBaseline):
        compare(golden_records(), "nonexistent")


def test_compare_matches_experiment_id_first():
    records = [make_record("a", experiment_id="x1"), make_record("b", experiment_id="x2")]
    deltas = compare(records, "x2")
    assert all(d.delta_kwh == 0.0 for d in deltas)


def test_ledger_jsonl_round_trip_with_phases_and_notes(tmp_path):
    path = tmp_path / "ledger.jsonl"
    record = make_record(quality_notes=("aborted", "1 event protocol violation(s)"))
    append_record(path, record)
    loaded = read_records(path)[0]
    assert loaded == record
    assert loaded.phase_breakdown[1].phase_name == "epoch 1"


@pytest.mark.parametrize(
    "case, reason",
    [
        ("torn", "not JSON"),
        ("torn-multibyte", "not UTF-8"),
        ("unknown-key", "surprise"),
        ("unknown-version", "version 2"),
        ("long-integer", "not JSON"),
        ("deep-nesting", "not JSON"),
    ],
)
def test_bad_ledger_line_raises_ledger_parse_error(tmp_path, case, reason):
    path = write_bad_ledger(tmp_path / "ledger.jsonl", case)
    with pytest.raises(LedgerParseError) as caught:
        read_records(path)
    assert caught.value.path == str(path)
    assert caught.value.line_no == 2
    assert reason in caught.value.reason


def test_append_after_torn_unterminated_line_starts_a_new_line(tmp_path):
    path = write_bad_ledger(tmp_path / "ledger.jsonl", "torn-multibyte")
    path.write_bytes(path.read_bytes()[:-1])  # the torn line loses its LF too
    before = path.read_bytes()
    record = make_record("third")
    append_record(path, record)
    line_no, _, parsed = list(scan_ledger(path))[-1]
    assert (line_no, parsed) == (3, record.to_dict())
    data = path.read_bytes()
    assert data.startswith(before)
    assert data.count(b"\n") == 3
    last = data.splitlines()[-1]
    assert ExperimentRecord.from_dict(json.loads(last)) == record
    with pytest.raises(LedgerParseError) as caught:
        read_records(path)
    assert caught.value.line_no == 2


def asdict_reference(record: ExperimentRecord) -> dict:
    """The ledger object as built with dataclasses.asdict."""
    data = asdict(record)
    data["phase_breakdown"] = [asdict(p) for p in record.phase_breakdown]
    data["quality_notes"] = list(record.quality_notes)
    data["v"] = 1
    return data


_labels = st.one_of(st.sampled_from(["café", "λ", "plain"]), st.text(max_size=12))
# magnitudes as wide as the formulas allow without overflow: a duration is
# only summed, while kWh x intensity / car factor must stay a finite float
_hours = st.floats(0.0, 1e300)
_kwh = st.floats(0.0, 1e100)
_factors = st.floats(1e-100, 1e100)


@st.composite
def ledger_records(draw) -> ExperimentRecord:
    """A record that keeps the one rule: co2e_kg, car_km and each phase's
    co2e_kg derived from the drawn energy, intensity and car factor, a
    duration that covers the phases, and a pue of at least 1."""
    grams, factor = draw(_factors), draw(_factors)
    phases = []
    phase_hours = 0.0
    for _ in range(draw(st.integers(0, 10))):
        kwh = draw(_kwh)
        phases.append(PhaseSummary(draw(_labels), draw(_hours), kwh, carbon.co2e(kwh, grams)))
        phase_hours += phases[-1].duration_hours  # a running total, as the rule sums it
    kwh = draw(_kwh)
    kg = carbon.co2e(kwh, grams)
    return ExperimentRecord(
        experiment_id=draw(st.text(max_size=12)),
        label=draw(_labels),
        started_at=draw(st.text(max_size=25)),
        duration_hours=phase_hours + draw(_hours),
        epochs_completed=draw(st.integers(0, 10**6)),
        energy_kwh=kwh,
        intensity_g_per_kwh=grams,
        pue=draw(st.floats(1.0, 1e300)),
        co2e_kg=kg,
        car_km=carbon.car_km_equivalent(kg, factor),
        car_factor_kg_per_km=factor,
        region=draw(_labels),
        phase_breakdown=tuple(phases),
        quality_notes=tuple(draw(st.lists(_labels, max_size=3))),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(ledger_records(), min_size=1, max_size=4))
def test_json_report_is_one_ledger_object_per_line(records):
    for record in records:
        assert record.to_dict() == asdict_reference(record)
    document = render_report(records, "json")
    assert parse_report_json(document) == records
    assert document.isascii()
    lines = document.splitlines()
    assert len(lines) == len(records) + 2
    assert (lines[0], lines[-1]) == ("[", "]")
    for line, record in zip(lines[1:-1], records):
        assert json.loads(line.removesuffix(",")) == record.to_dict()


# The one record rule, written out without the library: what append_record
# writes and scan_ledger reads, in any key order, spacing or escaping.
STRING_KEYS = ("experiment_id", "label", "started_at", "region")
FIGURE_KEYS = (
    "duration_hours",
    "energy_kwh",
    "intensity_g_per_kwh",
    "pue",
    "co2e_kg",
    "car_km",
    "car_factor_kg_per_km",
)
LEDGER_KEYS = {*STRING_KEYS, *FIGURE_KEYS, "epochs_completed", "phase_breakdown", "quality_notes", "v"}
PHASE_KEYS = {"phase_name", "duration_hours", "facility_kwh", "co2e_kg"}
PHASE_FIGURES = ("duration_hours", "facility_kwh", "co2e_kg")


def is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, float) or is_integer(value)


def in_range(value, least, above: bool = False) -> bool:
    """At least ``least`` (above it, with ``above``) and no larger than the
    largest float; NaN is neither."""
    return (value > least if above else value >= least) and value <= sys.float_info.max


def close(stored, derived) -> bool:
    return math.isclose(stored, derived, rel_tol=1e-6, abs_tol=1e-12)


def is_phase(phase, grams: float) -> bool:
    if not isinstance(phase, dict) or set(phase) != PHASE_KEYS or not isinstance(phase["phase_name"], str):
        return False
    if not all(is_number(phase[key]) and in_range(phase[key], 0) for key in PHASE_FIGURES):
        return False
    return close(phase["co2e_kg"], phase["facility_kwh"] * grams / 1000)


def is_stored_form(obj) -> bool:
    if not isinstance(obj, dict) or set(obj) != LEDGER_KEYS:
        return False
    notes, phases = obj["quality_notes"], obj["phase_breakdown"]
    typed = (
        is_integer(obj["v"])
        and obj["v"] == 1
        and all(isinstance(obj[key], str) for key in STRING_KEYS)
        and is_integer(obj["epochs_completed"])
        and in_range(obj["epochs_completed"], 0)
        and all(is_number(obj[key]) for key in FIGURE_KEYS)
        and all(in_range(obj[key], 0) for key in ("duration_hours", "energy_kwh", "co2e_kg", "car_km"))
        and in_range(obj["pue"], 1)
        and in_range(obj["intensity_g_per_kwh"], 0, above=True)
        and in_range(obj["car_factor_kg_per_km"], 0, above=True)
        and isinstance(notes, list)
        and all(isinstance(note, str) for note in notes)
        and isinstance(phases, list)
    )
    if not typed:
        return False
    grams = float(obj["intensity_g_per_kwh"])
    if not all(is_phase(phase, grams) for phase in phases):
        return False
    phase_hours = 0.0
    for phase in phases:  # summed in order, as a running total
        phase_hours += phase["duration_hours"]
    return (
        close(obj["co2e_kg"], obj["energy_kwh"] * grams / 1000)
        and close(obj["car_km"], obj["co2e_kg"] / obj["car_factor_kg_per_km"])
        and obj["duration_hours"] >= phase_hours - 1e-6
    )


REJECTED = "rejected"


def reference_scan(data: bytes) -> list[tuple[int, object]]:
    """Per non-blank line of a ledger's bytes, its number and its ledger
    object if it is in the stored form, else "not UTF-8", "not JSON" or
    REJECTED."""
    verdicts = []
    for line_no, raw in enumerate(data.split(b"\n"), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            verdicts.append((line_no, "not UTF-8"))
            continue
        if not line:
            continue
        try:
            parsed = json.loads(line)
        except ValueError:
            verdicts.append((line_no, "not JSON"))
            continue
        verdicts.append((line_no, parsed if is_stored_form(parsed) else REJECTED))
    return verdicts


def canonical(record: ExperimentRecord) -> str:
    return json.dumps(record.to_dict(), sort_keys=True)


# deep-copied, so a mutation of one example never leaks into the next
_odd_values = st.sampled_from(
    [-1.0, -1e-300, 0.0, math.nan, math.inf, -math.inf, 10**400, 2, 1.5]
    + ["1.0", "ab", "", None, True, [], {}, [["a", 1]], ["a", 1]]
)
_odd_values = _odd_values.map(copy.deepcopy)
_RETYPED = ("phase_breakdown", "quality_notes", "label", "energy_kwh", "epochs_completed", "pue", "duration_hours")


@st.composite
def ledger_objects(draw):
    """A record's ledger object with up to two mutations: a dropped, added
    or retyped key, an odd ``v``, an odd phase, or a list of pairs (which
    a dict() of it would turn back into a record)."""
    data = draw(ledger_records()).to_dict()
    for _ in range(draw(st.integers(0, 2))):
        phases = data.get("phase_breakdown")
        target = draw(st.sampled_from(["drop", "add", "v", *_RETYPED, "phase", "phase-key", "pairs"]))
        if target == "drop" and data:
            data.pop(draw(st.sampled_from(sorted(data))))
        elif target == "add":
            data["surprise"] = draw(_odd_values)
        elif target == "v":
            data["v"] = draw(st.sampled_from([0, 2, 1.0, True, "1", None]))
        elif target in _RETYPED:
            data[target] = draw(_odd_values)
        elif target == "pairs":
            return [list(item) for item in data.items()]
        elif isinstance(phases, list) and phases and isinstance(phases[0], dict):
            phase = phases[0]
            if target == "phase" and phase and draw(st.booleans()):
                phase[draw(st.sampled_from(sorted(phase)))] = draw(_odd_values)
            elif target == "phase":
                phases[0] = draw(_odd_values)
            elif phase and draw(st.booleans()):
                phase.pop(draw(st.sampled_from(sorted(phase))))
            else:
                phase["extra"] = 1
    return data


@st.composite
def ledger_lines(draw) -> bytes:
    kind = draw(st.sampled_from(["object", "object", "object", "torn", "blank", "bytes", "json"]))
    if kind == "blank":
        return draw(st.sampled_from([b"", b"  ", b"\t", b"\r", "\x1c".encode()]))
    if kind == "bytes":
        return draw(st.binary(max_size=30)).replace(b"\n", b"")
    if kind == "json":
        value = draw(st.one_of(st.integers(), st.text(max_size=5), st.lists(st.integers(), max_size=3)))
        return json.dumps(value).encode()
    line = json.dumps(draw(ledger_objects()), sort_keys=draw(st.booleans()), ensure_ascii=draw(st.booleans())).encode()
    if kind == "torn":
        line = line[: draw(st.integers(0, len(line) - 1))]
    return line


def edited_line(edit) -> bytes:
    data = make_record("λ").to_dict()
    edit(data)
    return json.dumps(data).encode()


def set_phase(name, value):
    return lambda data: data["phase_breakdown"][1].__setitem__(name, value)


def set_field(name, value):
    return lambda data: data.__setitem__(name, value)


def raw_figure(setter, name, text: str) -> bytes:
    """A line whose figure ``name``, set by ``setter``, is the JSON number ``text`` as written."""
    return edited_line(setter(name, "<figure>")).replace(b'"<figure>"', text.encode())


# NaN, infinities, a float and an integer too large for a float, and a negative number
FIGURE_TEXTS = ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "-1")

# One line per check of the record rule, and per quirk an earlier, lenient
# reader accepted (a list of pairs, notes "ab", phases {}, v 1.0 or true, a
# missing phase_breakdown or quality_notes, a NaN or an infinite figure, a
# figure that breaks a formula)
EDGE_LINES = [
    *(raw_figure(set_field, name, text) for name in (*FIGURE_KEYS, "epochs_completed") for text in FIGURE_TEXTS),
    *(raw_figure(set_phase, name, text) for name in PHASE_FIGURES for text in FIGURE_TEXTS),
    edited_line(set_field("co2e_kg", 99.0)),
    edited_line(lambda d: d.update(co2e_kg=d["co2e_kg"] * (1 + 1e-9))),  # within the tolerance
    edited_line(lambda d: d.update(car_km=d["car_km"] + 0.5)),
    edited_line(set_phase("co2e_kg", 1.0)),
    edited_line(set_field("duration_hours", 0.1)),  # the phases take 1/3 h
    *(edited_line(set_field(name, 0)) for name in ("intensity_g_per_kwh", "car_factor_kg_per_km")),
    edited_line(set_field("pue", 0.99)),
    *(edited_line(set_phase(name, -1e-300)) for name in ("duration_hours", "facility_kwh", "co2e_kg")),
    *(edited_line(set_phase("co2e_kg", value)) for value in (float("nan"), True, "1.0", None)),
    edited_line(set_phase("phase_name", 5)),
    edited_line(lambda d: d["phase_breakdown"][1].pop("phase_name")),
    edited_line(set_phase("extra", 1)),
    edited_line(lambda d: d["phase_breakdown"].append([["phase_name", "x"]])),
    *(edited_line(set_field("phase_breakdown", value)) for value in ({}, "ab", "", None)),
    *(edited_line(set_field("quality_notes", value)) for value in ("ab", {}, None, ["a", 1])),
    *(edited_line(set_field("v", value)) for value in (1.0, True, 2, "1", None)),
    *(edited_line(set_field(name, value)) for name in ("label", "region") for value in (5, None)),
    *(edited_line(set_field("duration_hours", value)) for value in ("x", True, None, 2, float("inf"))),
    *(edited_line(set_field("energy_kwh", value)) for value in (None, [1.0])),
    *(edited_line(set_field("epochs_completed", value)) for value in (1.0, True, "3")),
    *(edited_line(lambda d, k=key: d.pop(k)) for key in ("v", "label", "phase_breakdown", "quality_notes")),
    edited_line(lambda d: d.update(surprise=1)),
    json.dumps(list(make_record("pairs").to_dict().items())).encode(),
]


@settings(max_examples=300, deadline=None)
@given(st.lists(ledger_lines(), max_size=6), st.booleans())
@example(EDGE_LINES, True)
@example([b"\x0b0"], False)  # a vertical tab, which str.strip() removes but JSON does not skip
def test_scan_ledger_accepts_and_rejects_what_from_dict_does(lines, final_newline):
    data = b"\n".join(lines) + (b"\n" if final_newline else b"")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.jsonl"
        path.write_bytes(data)
        scanned = list(scan_ledger(path))
        expected = reference_scan(data)
        assert [line_no for line_no, _, _ in scanned] == [line_no for line_no, _ in expected]
        pieces = data.split(b"\n")
        for (line_no, raw, parsed), (_, verdict) in zip(scanned, expected):
            assert raw.removesuffix(b"\n") == pieces[line_no - 1]
            if isinstance(verdict, str):
                assert isinstance(parsed, LedgerParseError)
                assert (parsed.path, parsed.line_no) == (str(path), line_no)
                if verdict == REJECTED:
                    with pytest.raises(ValueError) as caught:
                        # parsed as scan_ledger parses it: stripped of any Unicode whitespace
                        ExperimentRecord.from_dict(json.loads(raw.decode("utf-8").strip()))
                    assert parsed.reason == str(caught.value)
                else:
                    assert parsed.reason.startswith(verdict)
            else:
                assert type(parsed) is dict
                record = ExperimentRecord.from_dict(verdict)
                # compared as canonical JSON, where 1 and 1.0, or 0.0 and -0.0, differ
                assert canonical(ExperimentRecord.from_dict(parsed)) == canonical(record)
                (reported,) = json.loads(render_stored([(raw, parsed)], "json"))
                assert json.dumps(reported, sort_keys=True) == canonical(record)
        first_bad = next((v for v in expected if isinstance(v[1], str)), None)
        if first_bad is None:
            records = [ExperimentRecord.from_dict(v) for _, v in expected]
            assert [canonical(r) for r in read_records(path)] == [canonical(r) for r in records]
        else:
            with pytest.raises(LedgerParseError) as caught:
                read_records(path)
            assert caught.value.line_no == first_bad[0]


@settings(max_examples=100, deadline=None)
@given(st.lists(ledger_lines(), max_size=6), st.booleans())
@example(EDGE_LINES, True)
def test_report_over_any_ledger_lines_exits_0_or_2_and_names_every_bad_line(lines, final_newline):
    data = b"\n".join(lines) + (b"\n" if final_newline else b"")
    expected = reference_scan(data)
    bad = [line_no for line_no, verdict in expected if isinstance(verdict, str)]
    labels = [verdict["label"] for _, verdict in expected if not isinstance(verdict, str)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.jsonl"
        path.write_bytes(data)
        for fmt in ("text", "csv", "json"):
            out, err = Path(tmp) / f"report.{fmt}", io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["report", "--ledger", str(path), "--format", fmt, "--out", str(out)])
            assert code == (2 if bad or not labels else 0)
            prefix = f"{path}:"
            named = [line.removeprefix(prefix).split(":")[0] for line in err.getvalue().splitlines()]
            assert [int(n) for n in named if n.isdigit()] == bad
            if not labels:
                assert "no records to report" in err.getvalue() and not out.exists()
            elif fmt == "json":
                assert [r["label"] for r in json.loads(out.read_text(encoding="utf-8"))] == labels


FIGURE_NAMES = (*FIGURE_KEYS, "epochs_completed", *(f"phase.{name}" for name in PHASE_FIGURES))


def set_figure(record: ExperimentRecord, name: str, value) -> ExperimentRecord:
    """``record`` with one figure set; ``phase.<key>`` names one of its last phase's."""
    if not name.startswith("phase."):
        return dataclasses.replace(record, **{name: value})
    phase = dataclasses.replace(record.phase_breakdown[-1], **{name.removeprefix("phase."): value})
    return dataclasses.replace(record, phase_breakdown=(*record.phase_breakdown[:-1], phase))


def scanned_reason(tmp: Path, record: ExperimentRecord) -> str | None:
    """The reason scan_ledger refuses the record's to_dict() as a stored line, or None."""
    path = tmp / "stored.jsonl"
    path.write_text(json.dumps(record.to_dict()) + "\n", encoding="utf-8")
    ((_, _, parsed),) = scan_ledger(path)
    return parsed.reason if isinstance(parsed, LedgerParseError) else None


@settings(max_examples=150, deadline=None)
@given(
    ledger_records(),
    st.none() | st.tuples(st.sampled_from(FIGURE_NAMES), st.floats() | st.integers(-3, 3) | st.just(10**400)),
)
def test_append_record_accepts_exactly_what_scan_ledger_accepts(record, change):
    if change is not None:
        assume(record.phase_breakdown or not change[0].startswith("phase."))
        record = set_figure(record, *change)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.jsonl"
        reason = scanned_reason(Path(tmp), record)
        try:
            append_record(path, record)
        except InconsistentRecord as exc:
            assert reason == str(exc)
            assert not path.exists()
        else:
            assert reason is None
            assert [parsed for _, _, parsed in scan_ledger(path)] == [record.to_dict()]


BAD_FIGURES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-1.0": -1.0, "10**400": 10**400}


@pytest.mark.parametrize("value", BAD_FIGURES.values(), ids=BAD_FIGURES.keys())
@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_a_bad_figure_is_refused_on_append_and_on_read_for_one_reason(tmp_path, name, value):
    path = tmp_path / "ledger.jsonl"
    append_record(path, make_record("first"))
    before = path.read_bytes()
    record = set_figure(make_record("bad"), name, value)
    with pytest.raises(InconsistentRecord) as refused:
        append_record(path, record)
    assert path.read_bytes() == before
    assert scanned_reason(tmp_path, record) == str(refused.value)
    assert str(refused.value).startswith(name.replace("phase.", "phase_breakdown[1]."))


def ledger_report_json(records: list[ExperimentRecord]) -> str:
    """The JSON report as every record re-encoded from its to_dict()."""
    return "[\n" + ",\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in records) + "\n]\n"


_report_labels = st.one_of(
    st.sampled_from(["café", "λ", "plain", "del\x7f", "tab\t", 'q"uote', "a,b"]), st.text(max_size=8)
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.builds(
            lambda label, kwh, notes: make_record(
                label, kwh=kwh, experiment_id=label + "-id", quality_notes=tuple(notes)
            ),
            _report_labels,
            st.floats(0.0, 1e6),
            st.lists(_report_labels, max_size=2),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_json_report_of_appended_ledger_is_byte_identical_to_re_encoding(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.jsonl"
        for record in records:
            append_record(path, record)
        stored, errors = read_ledger(path)
        document = render_stored(stored, "json")
        assert errors == []
        assert document == render_report(read_records(path), "json") == ledger_report_json(records)
        assert document.isascii()


def test_hand_edited_lines_report_as_loads_equal_ascii(tmp_path):
    path = tmp_path / "ledger.jsonl"
    labels = ["spaced", "λ-edited", "cr-separated"]
    records = [make_record(label) for label in labels]
    objects = [r.to_dict() for r in records]
    spaced = json.dumps(dict(reversed(objects[0].items())), separators=(" ,  ", " :  "))
    lines = [f"  {spaced}\t", json.dumps(objects[1], ensure_ascii=False, indent=None)]
    lines.append(json.dumps(objects[2], separators=(", ", ":\r")))
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    stored, errors = read_ledger(path)
    assert errors == []
    document = render_stored(stored, "json")
    assert document.isascii()
    body = document.splitlines()[1:-1]
    assert len(body) == len(records)
    assert json.loads(document) == [ExperimentRecord.from_dict(obj).to_dict() for obj in objects]
    assert body[0] == spaced + ","  # passed through as stored
    for line, obj in zip(body[1:], objects[1:]):  # re-encoded with sorted keys
        assert line.removesuffix(",") == json.dumps(ExperimentRecord.from_dict(obj).to_dict(), sort_keys=True)


def test_read_ledger_keeps_every_readable_record_and_names_every_bad_line(tmp_path):
    path = write_bad_ledger(tmp_path / "ledger.jsonl", "torn")
    append_record(path, make_record("third"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(make_record("fourth").to_dict(), v=2)) + "\n\n")
    append_record(path, make_record("fifth"))
    stored, errors = read_ledger(path)
    assert [(e.line_no, e.reason.split(":")[0]) for e in errors] == [(2, "not JSON"), (4, "unknown schema version 2")]
    assert [parsed["label"] for _, parsed in stored] == ["first", "third", "fifth"]
    assert [parsed["label"] for _, parsed in read_ledger(path, select="fi")[0]] == ["first", "fifth"]
    assert [parsed["label"] for _, parsed in read_ledger(path, select="id-third")[0]] == ["third"]


@pytest.mark.parametrize("label", ['a,"b"', "line\nbreak", "carriage\rreturn", "crlf\r\n", "plain"])
def test_csv_report_round_trips_through_csv_reader(label):
    records = [make_record(label, kwh=0.1 + 0.2), make_record("next")]
    document = render_report(records, "csv")
    rows = list(csv.reader(io.StringIO(document, newline="")))
    assert len(rows) == 1 + len(records)
    assert all(len(row) == len(rows[0]) == 12 for row in rows)
    assert rows[1][rows[0].index("label")] == label
    assert float(rows[1][rows[0].index("energy_kwh")]) == records[0].energy_kwh
    plain = ",".join(repr(v) if isinstance(v, float) else str(v) for v in (getattr(records[1], n) for n in rows[0]))
    assert document.endswith("\n" + plain + "\n")
