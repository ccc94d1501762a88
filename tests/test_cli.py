from __future__ import annotations

import datetime
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import pytest

from carbonledger.cli import load_config_file, main, parse_probe_spec
from carbonledger.ledger import read_records
from carbonledger.probe import ProbeKind

from conftest import constant_trace, golden_records, make_record, rapl_zone, write_bad_ledger
from goldens import GOLDEN_ROWS

from carbonledger import ledger as ledger_mod


def workload_cmd(triples: Path, epochs: int = 3, epoch_ms: int = 1_200_000) -> list[str]:
    losses = ",".join(str(1.0 - 0.1 * k) for k in range(epochs))
    return [
        sys.executable,
        "-m",
        "carbonledger.workload",
        "--triples",
        str(triples),
        "--max-epochs",
        str(epochs),
        "--losses",
        losses,
        "--virtual-start-ms",
        "0",
        "--epoch-ms",
        str(epoch_ms),
    ]


def run_fixture(tmp_path: Path, triples_file: Path, tag: str = "a") -> list[str]:
    trace = constant_trace(tmp_path / f"trace-{tag}.csv", 250.0, 3_600_000, 1000)
    return [
        "run",
        "--label",
        "demo",
        "--region",
        "DE",
        "--probe",
        f"replay:{trace}*2",
        "--ledger",
        str(tmp_path / "ledger.jsonl"),
        "--events",
        str(tmp_path / f"events-{tag}.log"),
        "--interval-ms",
        "1000",
        "--planned-epochs",
        "3",
        "--",
        *workload_cmd(triples_file),
    ]


def test_probe_spec_parsing():
    replay = parse_probe_spec("replay:traces/run.csv", 0)
    assert replay.kind is ProbeKind.REPLAY
    assert replay.trace_path == "traces/run.csv"
    assert replay.device_count == 1
    fanned = parse_probe_spec("replay:run.csv*2", 0)
    assert fanned.device_count == 2
    assert fanned.trace_path == "run.csv"
    gpu = parse_probe_spec("gpu:2", 0)
    assert gpu.kind is ProbeKind.GPU
    assert gpu.device_count == 2
    assert parse_probe_spec("cpu", 0).kind is ProbeKind.CPU
    with pytest.raises(ValueError):
        parse_probe_spec("tpu:0", 0)
    with pytest.raises(ValueError):
        parse_probe_spec("replay:", 0)


def test_config_file_parsing(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("# demo\nlabel = nightly\npue = 1.2\n", encoding="utf-8")
    assert load_config_file(config) == {"label": "nightly", "pue": "1.2"}
    config.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config_file(config)


def rejected_before_spawn(tmp_path: Path, run_args: list[str]) -> bool:
    """Run the tracker with ``run_args``; True if it exited 2 with no
    ledger written and without starting its child."""
    trace = constant_trace(tmp_path / "t.csv", 100.0, 10_000, 1000)
    ledger_path = tmp_path / "ledger.jsonl"
    touched = tmp_path / "child-ran"
    args = ["run", "--probe", f"replay:{trace}", "--ledger", str(ledger_path), "--events", str(tmp_path / "e.log")]
    child = [sys.executable, "-c", f"open({str(touched)!r}, 'w').close()"]
    code = main([*args, *run_args, "--", *child])
    return code == 2 and not ledger_path.exists() and not touched.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--interval-ms", "0"],
        ["--interval-ms", "-5"],
        ["--car-factor", "0"],
        ["--car-factor", "-0.2"],
        ["--car-factor", "inf"],
        ["--pue", "nan"],
        ["--pue", "inf"],
        ["--planned-epochs", "0"],
        ["--planned-epochs", "-4"],
    ],
)
def test_run_rejects_bad_numbers_before_spawning(tmp_path, capsys, flags):
    assert rejected_before_spawn(tmp_path, flags)
    assert flags[0][2:] in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, named",
    [
        ("label = x\njust words\n", "run.conf:2:"),
        ("pue = high\n", "'pue'"),
        ("interval_ms = 1.5\n", "'interval_ms'"),
        ("planned_epochs = 0\n", "planned-epochs >= 1"),
    ],
)
def test_run_malformed_config_exits_two(tmp_path, capsys, text, named):
    config = tmp_path / "run.conf"
    config.write_text(text, encoding="utf-8")
    assert rejected_before_spawn(tmp_path, ["--config", str(config)])
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("grams", ["nan", "inf", "-inf"])
def test_run_refuses_a_non_finite_registry_intensity_before_spawning(tmp_path, capsys, grams):
    registry = tmp_path / "registry.csv"
    registry.write_text(f"FR,60,ember,2024-01-01\nZZ,{grams},x,2024-01-01\n", encoding="utf-8")
    assert rejected_before_spawn(tmp_path, ["--registry", str(registry), "--region", "ZZ"])
    assert f"{registry}:2: " in capsys.readouterr().err
    assert main(["regions", "--registry", str(registry)]) == 2


def test_run_removes_its_temporary_event_file(tmp_path, monkeypatch):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    trace = constant_trace(tmp_path / "t.csv", 100.0, 10_000, 1000)
    ledger_path = tmp_path / "ledger.jsonl"
    child = [sys.executable, "-c", "import os; open(os.environ['CARBONLEDGER_EVENTS'], 'a').write('TRAIN_START 0\\n')"]
    assert main(["run", "--probe", f"replay:{trace}", "--ledger", str(ledger_path), "--", *child]) == 0
    assert "no TRAIN_START observed" not in read_records(ledger_path)[0].quality_notes
    assert list(scratch.iterdir()) == []


def test_run_end_to_end_replay_fixture(tmp_path, triples_file, capsys):
    code = main(run_fixture(tmp_path, triples_file))
    assert code == 0
    records = read_records(tmp_path / "ledger.jsonl")
    assert len(records) == 1
    record = records[0]
    assert record.label == "demo"
    assert record.epochs_completed == 3
    assert record.energy_kwh == pytest.approx(0.775, abs=1e-6)
    assert record.co2e_kg == pytest.approx(0.2945, abs=1e-4)
    assert record.duration_hours == pytest.approx(1.0, abs=1e-9)
    assert record.region == "DE"
    assert record.pue == 1.55
    assert "aborted" not in record.quality_notes
    phases = {p.phase_name: p for p in record.phase_breakdown}
    assert phases["epoch 2"].facility_kwh == pytest.approx(0.775 / 3, rel=1e-9)
    out = capsys.readouterr().out
    assert "forecast after epoch 1" in out
    assert "Experiment" in out and "demo" in out


def test_run_appends_and_prints_the_record_account_returns(tmp_path, triples_file, monkeypatch, capsys):
    from carbonledger import forecast

    returned = []
    account = forecast.account

    def spy(log, **settings):
        returned.append(account(log, **settings))
        return returned[-1]

    monkeypatch.setattr(forecast, "account", spy)
    assert main(run_fixture(tmp_path, triples_file)) == 0
    (record,) = returned
    assert read_records(tmp_path / "ledger.jsonl") == [record]
    assert ledger_mod.render_report([record], "text") in capsys.readouterr().out


def test_run_rerun_is_field_identical_except_identity(tmp_path, triples_file):
    # same events path on purpose: each run must start it fresh
    assert main(run_fixture(tmp_path, triples_file, "a")) == 0
    assert main(run_fixture(tmp_path, triples_file, "a")) == 0
    first, second = [r.to_dict() for r in read_records(tmp_path / "ledger.jsonl")]
    assert first["experiment_id"] != second["experiment_id"]
    for volatile in ("experiment_id", "started_at"):
        first.pop(volatile)
        second.pop(volatile)
    assert first == second


def test_run_started_at_is_stamped_before_the_child_runs(tmp_path):
    trace = constant_trace(tmp_path / "t.csv", 100.0, 10_000, 1000)
    ledger_path = tmp_path / "ledger.jsonl"
    args = ["run", "--probe", f"replay:{trace}", "--ledger", str(ledger_path), "--events", str(tmp_path / "e.log")]
    assert main([*args, "--", sys.executable, "-c", "import time; time.sleep(2)"]) == 0
    returned = datetime.datetime.now(datetime.timezone.utc)
    started = datetime.datetime.fromisoformat(read_records(ledger_path)[0].started_at)
    # started_at keeps whole seconds, so a stamp taken after the 2 s child
    # would trail the return by less than 1 s plus the bookkeeping time
    assert (returned - started).total_seconds() > 1.5


def test_run_notices_the_child_exit_at_once(tmp_path, monkeypatch):
    # With a 60 s interval and a 30 s poll bound, a tracker that sleeps
    # out its pause would take 30 s to see that `true` has exited.
    from carbonledger import sampler as sampler_mod

    monkeypatch.setattr(sampler_mod, "_MAX_POLL_S", 30.0)
    trace = constant_trace(tmp_path / "t.csv", 100.0, 10_000, 1000)
    ledger_path = tmp_path / "ledger.jsonl"
    args = ["run", "--probe", f"replay:{trace}", "--ledger", str(ledger_path), "--interval-ms", "60000"]
    started = time.monotonic()
    assert main([*args, "--events", str(tmp_path / "e.log"), "--", "true"]) == 0
    assert time.monotonic() - started < 5.0
    assert len(read_records(ledger_path)) == 1


def test_run_appends_past_a_line_torn_inside_a_character(tmp_path, capsys):
    trace = constant_trace(tmp_path / "t.csv", 100.0, 10_000, 1000)
    ledger_path = write_bad_ledger(tmp_path / "ledger.jsonl", "torn-multibyte")
    before = ledger_path.read_bytes()
    args = ["run", "--probe", f"replay:{trace}", "--ledger", str(ledger_path), "--events", str(tmp_path / "e.log")]
    assert main([*args, "--", "true"]) == 0
    after = ledger_path.read_bytes()
    assert after.startswith(before)
    assert after.count(b"\n") == before.count(b"\n") + 1
    assert "Experiment" in capsys.readouterr().out


def test_run_child_failure_flags_aborted_and_propagates(tmp_path, triples_file):
    trace = constant_trace(tmp_path / "t.csv", 100.0, 10_000, 1000)
    code = main(
        [
            "run",
            "--probe",
            f"replay:{trace}",
            "--ledger",
            str(tmp_path / "ledger.jsonl"),
            "--events",
            str(tmp_path / "events.log"),
            "--",
            sys.executable,
            "-c",
            "import sys; sys.exit(3)",
        ]
    )
    assert code == 3
    record = read_records(tmp_path / "ledger.jsonl")[0]
    assert "aborted" in record.quality_notes
    assert record.epochs_completed == 0


def test_run_counts_non_ascii_digits_as_violations(tmp_path):
    trace = constant_trace(tmp_path / "t.csv", 100.0, 10_000, 1000)
    # "\u00b2" passes str.isdigit but not int(); the line is a violation, not a crash
    write = "TRAIN_START 0\\nEPOCH_START 1 5\\u00b2\\nEPOCH_START 1 5\\nEPOCH_END 1 9000\\nTRAIN_END 10000\\n"
    child = (
        "import os, sys; "
        f"open(os.environ['CARBONLEDGER_EVENTS'], 'a', encoding='utf-8').write('{write}'); sys.exit(3)"
    )
    ledger_path = tmp_path / "ledger.jsonl"
    code = main(["run", "--probe", f"replay:{trace}", "--ledger", str(ledger_path), "--", sys.executable, "-c", child])
    assert code == 3
    (record,) = read_records(ledger_path)
    assert "1 event protocol violation(s)" in record.quality_notes
    assert record.epochs_completed == 1


def test_run_without_probe_is_usage_error(tmp_path, capsys):
    code = main(["run", "--ledger", str(tmp_path / "l.jsonl"), "--", "true"])
    assert code == 2
    assert "probe" in capsys.readouterr().err


def test_run_without_child_is_usage_error(tmp_path, capsys):
    trace = constant_trace(tmp_path / "t.csv", 100.0, 1000, 1000)
    code = main(["run", "--probe", f"replay:{trace}"])
    assert code == 2
    assert "child" in capsys.readouterr().err


def test_run_unknown_region_is_usage_error(tmp_path, capsys):
    trace = constant_trace(tmp_path / "t.csv", 100.0, 1000, 1000)
    code = main(["run", "--region", "ZZ", "--probe", f"replay:{trace}", "--", "true"])
    assert code == 2
    assert "ZZ" in capsys.readouterr().err


def test_run_spawn_failure_exits_one(tmp_path, capsys):
    trace = constant_trace(tmp_path / "t.csv", 100.0, 1000, 1000)
    code = main(
        [
            "run",
            "--probe",
            f"replay:{trace}",
            "--ledger",
            str(tmp_path / "l.jsonl"),
            "--events",
            str(tmp_path / "e.log"),
            "--",
            str(tmp_path / "no-such-binary"),
        ]
    )
    assert code == 1
    assert "spawn" in capsys.readouterr().err


def test_run_config_file_supplies_defaults_flags_win(tmp_path, triples_file):
    trace = constant_trace(tmp_path / "t.csv", 100.0, 10_000, 1000)
    config = tmp_path / "run.conf"
    config.write_text(
        f"label = from-config\nledger = {tmp_path / 'ledger.jsonl'}\n", encoding="utf-8"
    )

    def args(tag: str, *extra: str) -> list[str]:
        return [
            "run",
            *extra,
            "--config",
            str(config),
            "--probe",
            f"replay:{trace}",
            "--events",
            str(tmp_path / f"{tag}.log"),
            "--",
            *workload_cmd(triples_file, epochs=1, epoch_ms=10_000),
        ]

    assert main(args("e1")) == 0
    assert main(args("e2", "--label", "from-flag")) == 0
    labels = [r.label for r in read_records(tmp_path / "ledger.jsonl")]
    assert labels == ["from-config", "from-flag"]


def seed_golden_ledger(path: Path) -> None:
    for record in golden_records():
        ledger_mod.append_record(path, record)


def test_report_text_renders_golden_rows(tmp_path, capsys):
    path = tmp_path / "ledger.jsonl"
    seed_golden_ledger(path)
    assert main(["report", "--ledger", str(path), "--format", "text"]) == 0
    out = capsys.readouterr().out
    for label, hours, kwh, kg, km in GOLDEN_ROWS:
        assert label in out
        assert f"{kwh:.2f}" in out
    assert "Travel by car (km)" in out


def test_report_csv_is_parseable_full_precision(tmp_path, capsys):
    path = tmp_path / "ledger.jsonl"
    seed_golden_ledger(path)
    assert main(["report", "--ledger", str(path), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 1 + len(GOLDEN_ROWS)
    header = lines[0].split(",")
    energy_column = header.index("energy_kwh")
    assert float(lines[1].split(",")[energy_column]) == 3.53


def test_report_json_round_trips(tmp_path, capsys):
    path = tmp_path / "ledger.jsonl"
    seed_golden_ledger(path)
    assert main(["report", "--ledger", str(path), "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert [r["label"] for r in parsed] == [row[0] for row in GOLDEN_ROWS]


def test_report_json_out_file_equals_stdout(tmp_path, capsys):
    path = tmp_path / "ledger.jsonl"
    ledger_mod.append_record(path, make_record("café"))
    args = ["report", "--ledger", str(path), "--format", "json"]
    assert main(args) == 0
    stdout = capsys.readouterr().out
    out_file = tmp_path / "report.json"
    assert main([*args, "--out", str(out_file)]) == 0
    assert out_file.read_bytes() == stdout.encode("ascii")
    assert json.loads(stdout)[0]["label"] == "café"


def test_report_filter_and_out_file(tmp_path):
    path = tmp_path / "ledger.jsonl"
    seed_golden_ledger(path)
    out_file = tmp_path / "report.txt"
    assert main(["report", "--ledger", str(path), "--filter", "T5s", "--out", str(out_file)]) == 0
    text = out_file.read_text(encoding="utf-8")
    assert "T5s IK" in text and "T5b IK" not in text


def test_report_empty_selection_exits_two(tmp_path, capsys):
    path = tmp_path / "ledger.jsonl"
    seed_golden_ledger(path)
    assert main(["report", "--ledger", str(path), "--filter", "nothing-matches"]) == 2
    assert main(["report", "--ledger", str(tmp_path / "missing.jsonl")]) == 2


@pytest.mark.parametrize("case", ["torn", "torn-multibyte", "unknown-key", "unknown-version"])
def test_report_bad_ledger_line_exits_two(tmp_path, capsys, case):
    path = write_bad_ledger(tmp_path / "ledger.jsonl", case)
    assert main(["report", "--ledger", str(path)]) == 2
    assert f"{path}:2:" in capsys.readouterr().err


def test_report_renders_every_readable_record_and_names_every_bad_line(tmp_path, capsys):
    path = write_bad_ledger(tmp_path / "ledger.jsonl", "torn-multibyte")
    ledger_mod.append_record(path, make_record("third"))
    with open(path, "ab") as fh:
        fh.write(b'{"v": 1}\n')
    ledger_mod.append_record(path, make_record("fifth"))
    out_file = tmp_path / "report.json"
    assert main(["report", "--ledger", str(path), "--format", "json", "--out", str(out_file)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[0] for line in err] == [f"{path}:2", f"{path}:4"]
    assert [r["label"] for r in json.loads(out_file.read_text())] == ["first", "third", "fifth"]
    assert main(["report", "--ledger", str(path), "--filter", "fifth"]) == 2
    captured = capsys.readouterr()
    assert "fifth" in captured.out and "third" not in captured.out
    assert len(captured.err.splitlines()) == 2


@pytest.mark.parametrize("case", ["long-integer", "deep-nesting"])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_report_names_a_line_json_cannot_decode(tmp_path, capsys, case, fmt):
    path = write_bad_ledger(tmp_path / "ledger.jsonl", case)
    ledger_mod.append_record(path, make_record("third"))
    out_file = tmp_path / "report"
    assert main(["report", "--ledger", str(path), "--format", fmt, "--out", str(out_file)]) == 2
    (error,) = capsys.readouterr().err.splitlines()
    assert error.startswith(f"{path}:2: not JSON: ")
    report = out_file.read_text(encoding="utf-8")
    assert "first" in report and "third" in report


# Ledger objects that break the stored form, each with the reason it is named for
OFF_FORM_EDITS = [
    (lambda d: d.update(label=5), "label must be a string"),
    (lambda d: d.update(duration_hours="x"), "duration_hours must be a number"),
    (lambda d: d.update(energy_kwh=None), "energy_kwh must be a number"),
    (lambda d: d.update(quality_notes="ab"), "quality_notes must be a list of strings"),
    (lambda d: [d.pop("phase_breakdown"), d.pop("quality_notes")], "missing key 'phase_breakdown'"),
    (lambda d: d.update(v=1.0), "unknown schema version 1.0"),
]


def test_report_names_every_line_off_the_stored_form(tmp_path, capsys):
    path = tmp_path / "ledger.jsonl"
    ledger_mod.append_record(path, make_record("good-0"))
    for i, (edit, _) in enumerate(OFF_FORM_EDITS, start=1):
        data = make_record(f"bad-{i}").to_dict()
        edit(data)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(data) + "\n")
        ledger_mod.append_record(path, make_record(f"good-{i}"))
    named = [f"{path}:{2 * i}: {reason}" for i, (_, reason) in enumerate(OFF_FORM_EDITS, start=1)]
    every = [f"good-{i}" for i in range(len(OFF_FORM_EDITS) + 1)]
    for select, labels in ((None, every), ("good-3", ["good-3"])):
        for fmt in ("text", "csv", "json"):
            args = ["report", "--ledger", str(path), "--format", fmt]
            assert main(args + (["--filter", select] if select else [])) == 2
            captured = capsys.readouterr()
            assert captured.err.splitlines() == named
            if fmt == "json":
                assert [r["label"] for r in json.loads(captured.out)] == labels
            elif fmt == "csv":
                assert [row.split(",")[1] for row in captured.out.splitlines()[1:]] == labels
            else:
                assert [row.split(" | ")[0].strip() for row in captured.out.splitlines()[2:]] == labels


def _cli(args: list[str], encoding: str):
    import subprocess

    env = dict(os.environ, PYTHONIOENCODING=encoding)
    return subprocess.run([sys.executable, "-m", "carbonledger.cli", *args], env=env, capture_output=True, timeout=60)


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_report_writes_utf8_whatever_the_stdout_encoding(tmp_path, encoding):
    path = tmp_path / "ledger.jsonl"
    ledger_mod.append_record(path, make_record("λ-run"))
    for fmt in ("text", "csv", "json"):
        done = _cli(["report", "--ledger", str(path), "--format", fmt], encoding)
        assert (done.returncode, done.stderr) == (0, b"")
        out = tmp_path / fmt
        assert _cli(["report", "--ledger", str(path), "--format", fmt, "--out", str(out)], encoding).returncode == 0
        assert done.stdout == out.read_bytes()
        assert ("λ-run" if fmt != "json" else "\\u03bb-run").encode("utf-8") in done.stdout


def test_run_returns_the_child_code_under_an_ascii_stdout(tmp_path):
    trace = constant_trace(tmp_path / "t.csv", 100.0, 10_000, 1000)
    ledger_path = tmp_path / "ledger.jsonl"
    base = ["run", "--label", "λ", "--probe", f"replay:{trace}", "--ledger", str(ledger_path), "--"]
    done = _cli([*base, "true"], "ascii")
    assert (done.returncode, done.stderr) == (0, b"")
    assert "λ ".encode("utf-8") in done.stdout
    assert _cli([*base, sys.executable, "-c", "import sys; sys.exit(3)"], "ascii").returncode == 3
    assert [r.label for r in read_records(ledger_path)] == ["λ", "λ"]


def test_predict_linear_scaling_with_registry_default(capsys):
    assert main(["predict", "--kwh-per-epoch", "0.27", "--epochs", "13"]) == 0
    out = capsys.readouterr().out
    assert "3.510 kWh" in out
    assert "1.334 kg" in out


def test_predict_single_epoch_is_identity(capsys):
    assert main(["predict", "--kwh-per-epoch", "0.27", "--epochs", "1"]) == 0
    assert "0.270 kWh" in capsys.readouterr().out


def test_predict_with_explicit_intensity(capsys):
    assert main(
        ["predict", "--kwh-per-epoch", "0.27", "--epochs", "13", "--intensity", "294.6"]
    ) == 0
    assert "1.034 kg" in capsys.readouterr().out


def test_predict_bad_arguments_exit_two(capsys):
    assert main(["predict", "--kwh-per-epoch", "-1", "--epochs", "5"]) == 2
    assert main(["predict", "--kwh-per-epoch", "1", "--epochs", "0"]) == 2
    assert main(["predict", "--kwh-per-epoch", "1", "--epochs", "2", "--setup-kwh", "-5"]) == 2
    assert main(["predict", "--kwh-per-epoch", "1", "--epochs", "1", "--region", "ZZ"]) == 2
    assert main(["predict", "--kwh-per-epoch", "1", "--epochs", "1", "--car-factor", "0"]) == 2
    assert main(["predict", "--kwh-per-epoch", "1", "--epochs", "1", "--car-factor", "nan"]) == 2
    assert main(["predict", "--kwh-per-epoch", "nan", "--epochs", "5"]) == 2
    assert main(["predict", "--kwh-per-epoch", "inf", "--epochs", "5"]) == 2
    assert main(["predict", "--kwh-per-epoch", "1", "--epochs", "5", "--setup-kwh", "nan"]) == 2
    assert main(["predict", "--kwh-per-epoch", "1", "--epochs", "5", "--intensity", "inf"]) == 2
    assert capsys.readouterr().out == ""


def test_regions_default_lists_de(capsys):
    assert main(["regions"]) == 0
    assert "DE 380" in capsys.readouterr().out


def test_regions_custom_file_sorted(tmp_path, capsys):
    registry = tmp_path / "registry.csv"
    registry.write_text("FR,60,ember,2024-01-01\nAT,120,ember,2024-01-01\n", encoding="utf-8")
    assert main(["regions", "--registry", str(registry)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["AT", "DE", "FR"]


def test_regions_malformed_registry_exits_two(tmp_path, capsys):
    registry = tmp_path / "registry.csv"
    registry.write_text("FR,sixty\n", encoding="utf-8")
    assert main(["regions", "--registry", str(registry)]) == 2
    assert ":1:" in capsys.readouterr().err


def test_ledger_env_var_used_when_flag_absent(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ledger.jsonl"
    seed_golden_ledger(path)
    monkeypatch.setenv("CARBONLEDGER_LEDGER", str(path))
    assert main(["report", "--format", "text"]) == 0
    assert "T5s IK" in capsys.readouterr().out


def test_registry_env_var_used_by_regions(tmp_path, monkeypatch, capsys):
    registry = tmp_path / "registry.csv"
    registry.write_text("NO,20,ember,2024-01-01\n", encoding="utf-8")
    monkeypatch.setenv("CARBONLEDGER_REGISTRY", str(registry))
    assert main(["regions"]) == 0
    out = capsys.readouterr().out
    assert "NO 20" in out and "DE 380" in out


def test_hardware_probe_falls_back_to_replay(tmp_path, triples_file, monkeypatch):
    monkeypatch.setattr("carbonledger.probe.shutil.which", lambda name: None)
    trace = constant_trace(tmp_path / "t.csv", 100.0, 10_000, 1000)
    args = [
        "run",
        "--probe",
        "gpu:2",
        "--fallback-probe",
        f"replay:{trace}",
        "--ledger",
        str(tmp_path / "ledger.jsonl"),
        "--events",
        str(tmp_path / "e.log"),
        "--",
        *workload_cmd(triples_file, epochs=1, epoch_ms=10_000),
    ]
    assert main(args) == 0
    record = read_records(tmp_path / "ledger.jsonl")[0]
    assert record.epochs_completed == 1


def fake_rapl(monkeypatch, zone: Path) -> None:
    """Open ``cpu`` probes over the RAPL zone ``zone``."""
    from carbonledger import probe as probe_mod

    monkeypatch.setattr(probe_mod, "_rapl_reader", lambda: probe_mod._RaplReader(zone))


def test_cpu_probe_run_notes_no_skipped_read(tmp_path, monkeypatch):
    fake_rapl(monkeypatch, rapl_zone(tmp_path))
    ledger_path = tmp_path / "ledger.jsonl"
    args = ["run", "--probe", "cpu", "--ledger", str(ledger_path), "--events", str(tmp_path / "e.log")]
    assert main([*args, "--", "true"]) == 0
    (record,) = read_records(ledger_path)
    assert record.quality_notes == ("no TRAIN_START observed",)


def test_unreadable_cpu_counter_falls_back_at_open(tmp_path, monkeypatch, capsys):
    fake_rapl(monkeypatch, rapl_zone(tmp_path, None))
    trace = constant_trace(tmp_path / "t.csv", 100.0, 10_000, 1000)
    ledger_path = tmp_path / "ledger.jsonl"
    args = ["run", "--probe", "cpu", "--fallback-probe", f"replay:{trace}", "--ledger", str(ledger_path)]
    assert main([*args, "--events", str(tmp_path / "e.log"), "--", "true"]) == 0
    assert "RAPL energy counter unreadable" in capsys.readouterr().err
    (record,) = read_records(ledger_path)
    assert record.energy_kwh == pytest.approx(100.0 * 10 / 3600 / 1000 * 1.55, rel=1e-12)
    assert record.quality_notes == ("no TRAIN_START observed",)


def test_hardware_probe_without_fallback_aborts(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("carbonledger.probe.shutil.which", lambda name: None)
    code = main(
        [
            "run",
            "--probe",
            "gpu",
            "--ledger",
            str(tmp_path / "l.jsonl"),
            "--events",
            str(tmp_path / "e.log"),
            "--",
            "true",
        ]
    )
    assert code == 2
    assert "unavailable" in capsys.readouterr().err


def _signal_tracked_run(tmp_path, signum):
    """Run the tracker around a sleeping child, send it ``signum`` and
    return its exit code and the record it appended."""
    import subprocess
    import time as time_mod

    trace = constant_trace(tmp_path / "t.csv", 100.0, 10_000, 1000)
    marker = tmp_path / "child-started"
    ledger_path = tmp_path / "ledger.jsonl"
    child_code = f"import time, pathlib; pathlib.Path({str(marker)!r}).touch(); time.sleep(30)"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "carbonledger.cli",
            "run",
            "--probe",
            f"replay:{trace}",
            "--ledger",
            str(ledger_path),
            "--events",
            str(tmp_path / "e.log"),
            "--",
            sys.executable,
            "-c",
            child_code,
        ],
    )
    deadline = time_mod.monotonic() + 15
    while not marker.exists():
        assert time_mod.monotonic() < deadline, "child never started"
        time_mod.sleep(0.05)
    time_mod.sleep(0.3)  # let the wrapper reach its sampling loop
    proc.send_signal(signum)
    proc.wait(timeout=15)
    return proc.returncode, read_records(ledger_path)[0]


def test_interrupt_forwards_to_child_and_flags_record(tmp_path):
    import signal

    returncode, record = _signal_tracked_run(tmp_path, signal.SIGINT)
    assert returncode != 0  # child died from the forwarded interrupt
    assert "interrupted" in record.quality_notes
    assert "aborted" in record.quality_notes


def test_terminate_forwards_to_child_and_flags_record(tmp_path):
    import signal

    returncode, record = _signal_tracked_run(tmp_path, signal.SIGTERM)
    assert returncode != 0  # child died from the forwarded SIGTERM
    assert "interrupted" in record.quality_notes
    assert "aborted" in record.quality_notes
