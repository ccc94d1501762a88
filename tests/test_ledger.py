from __future__ import annotations

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonledger.errors import EmptySelection, InconsistentRecord, LedgerParseError, UnknownBaseline
from carbonledger.forecast import PhaseSummary
from carbonledger.ledger import (
    ExperimentRecord,
    append_record,
    compare,
    parse_report_json,
    read_records,
    render_report,
)

from conftest import golden_records, make_record, write_bad_ledger
from goldens import GOLDEN_ROWS


def test_append_round_trip(tmp_path):
    path = tmp_path / "ledger.jsonl"
    record = make_record()
    assert append_record(path, record) == 1
    assert read_records(path) == [record]


def test_append_preserves_order_and_prior_bytes(tmp_path):
    path = tmp_path / "ledger.jsonl"
    first = make_record("one")
    append_record(path, first)
    snapshot = path.read_bytes()
    second = make_record("two")
    assert append_record(path, second) == 2
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
    assert append_record(path, record) == 3
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
_floats = st.floats(allow_nan=False, allow_infinity=False)
_non_negative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def ledger_records(draw) -> ExperimentRecord:
    phases = tuple(
        PhaseSummary(draw(_labels), draw(_non_negative), draw(_non_negative), draw(_non_negative))
        for _ in range(draw(st.integers(0, 10)))
    )
    return ExperimentRecord(
        experiment_id=draw(st.text(max_size=12)),
        label=draw(_labels),
        started_at=draw(st.text(max_size=25)),
        duration_hours=draw(_floats),
        epochs_completed=draw(st.integers(0, 10**6)),
        energy_kwh=draw(_floats),
        intensity_g_per_kwh=draw(_floats),
        pue=draw(_floats),
        co2e_kg=draw(_floats),
        car_km=draw(_floats),
        car_factor_kg_per_km=draw(_floats),
        region=draw(_labels),
        phase_breakdown=phases,
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
