from __future__ import annotations

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carbonledger.errors import BackendUnavailable, TraceParseError, TransientReadFailure
from carbonledger.probe import (
    PowerSample,
    ProbeDescriptor,
    ProbeKind,
    open_probe,
    parse_trace,
)

from conftest import pairs_of, parse_trace_rows, rapl_zone, replay_probe, write_trace


def drain(probe) -> dict[str, list[tuple[int, float]]]:
    """Every (timestamp_ms, watts) pair a replay probe hands over, per source."""
    out: dict[str, list[tuple[int, float]]] = {}
    while (reading := probe.read()) is not None:
        for source, series in reading.series.items():
            out.setdefault(source, []).extend(pairs_of(series))
    return out


def test_replay_identity(tmp_path):
    trace = write_trace(tmp_path / "t.csv", [(0, 100.0), (1000, 100.0)])
    samples = drain(replay_probe(trace))["replay0"]
    assert samples == [(0, 100.0), (1000, 100.0)]
    assert samples[1][0] - samples[0][0] == 1000


def test_replay_empty_file_yields_no_samples(tmp_path):
    trace = tmp_path / "empty.csv"
    trace.write_text("", encoding="utf-8")
    probe = replay_probe(trace)
    assert probe.read() is None


def test_replay_reproduces_trace_bit_equal_after_parse(tmp_path):
    pairs = [(0, 13.25), (17, 0.0), (1017, 250.125), (5000, 99.875)]
    trace = write_trace(tmp_path / "t.csv", pairs)
    assert drain(replay_probe(trace)) == {"replay0": pairs}


def test_read_after_end_of_trace_keeps_signalling(tmp_path):
    trace = write_trace(tmp_path / "t.csv", [(0, 250.0)])
    probe = replay_probe(trace)
    assert probe.read() is not None
    assert probe.read() is None
    assert probe.read() is None


def test_constant_trace_reads_constant(tmp_path):
    trace = write_trace(tmp_path / "t.csv", [(t, 250.0) for t in range(0, 5000, 1000)])
    assert all(w == 250.0 for _, w in drain(replay_probe(trace))["replay0"])


def test_comments_and_blank_lines_skipped(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("# header\n0,10\n\n# mid\n1000,20\n", encoding="utf-8")
    series = parse_trace(trace)
    assert pairs_of(series) == [(0, 10.0), (1000, 20.0)]
    assert len(series) == 2


@pytest.mark.parametrize(
    "line",
    ["0", "0,10,20", "zero,10", "0,ten", "0,nan", "0,inf"],
)
def test_malformed_trace_line_reports_line_number(tmp_path, line):
    trace = tmp_path / "t.csv"
    trace.write_text(f"# c\n{line}\n", encoding="utf-8")
    with pytest.raises(TraceParseError) as err:
        parse_trace(trace)
    assert err.value.line_no == 2


def test_negative_watts_is_a_parse_error(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("0,-5\n", encoding="utf-8")
    with pytest.raises(TraceParseError):
        parse_trace(trace)


def test_non_increasing_timestamps_rejected(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("0,10\n1000,10\n1000,20\n", encoding="utf-8")
    with pytest.raises(TraceParseError) as err:
        parse_trace(trace)
    assert err.value.line_no == 3


def test_a_trace_that_is_not_utf8_names_its_file_and_line(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_bytes("# café\n0,10\n".encode("utf-8") + b"1000,2\xe90\n2000,5\n")
    with pytest.raises(TraceParseError) as err:
        parse_trace(trace)
    assert (err.value.path, err.value.line_no, err.value.reason) == (str(trace), 3, "not UTF-8")


@pytest.mark.parametrize("text, line_no", [(f"0,1\n{2**63},1\n", 2), (f"{-2**63 - 1},1\n", 1)])
def test_a_timestamp_outside_64_bits_is_a_parse_error(tmp_path, text, line_no):
    trace = tmp_path / "t.csv"
    trace.write_text(text, encoding="utf-8")
    with pytest.raises(TraceParseError, match="outside the 64-bit range") as err:
        parse_trace(trace)
    assert err.value.line_no == line_no


def test_the_64_bit_bounds_themselves_parse(tmp_path):
    trace = write_trace(tmp_path / "t.csv", [(-2**63, 1.0), (2**63 - 1, 2.0)])
    assert pairs_of(parse_trace(trace)) == [(-2**63, 1.0), (2**63 - 1, 2.0)]


_COMMENT_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\n")
_PAD = st.sampled_from(["", " ", "  ", "\t"])
_STAMP_FORMS = st.sampled_from([str, lambda t: f"+{t}" if t >= 0 else str(t), lambda t: f"{t:_}"])
_WATTS = st.one_of(st.sampled_from(["+5", "1_000", "0", "2.5e1", "-0.0", "7."]), st.floats(0, 1e6).map(repr))


@st.composite
def valid_trace_text(draw) -> str:
    """Trace text every line of which parses: samples with increasing
    stamps in several spellings, padded and perhaps ending in CR, among
    comments and blank lines; the last line may lack its LF."""
    lines = []
    t = draw(st.integers(-10**6, 10**6))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["sample", "sample", "comment", "blank"]))
        if kind == "comment":
            lines.append("#" + draw(st.text(_COMMENT_CHARS, max_size=8)))
        elif kind == "blank":
            lines.append("")
        else:
            stamp, watts = draw(_STAMP_FORMS)(t), draw(_WATTS)
            pads = [draw(_PAD) for _ in range(4)]
            cr = draw(st.sampled_from(["", "\r"]))
            lines.append(f"{pads[0]}{stamp}{pads[1]},{pads[2]}{watts}{pads[3]}{cr}")
            t += draw(st.integers(1, 5000))
    return "\n".join(lines) + (draw(st.sampled_from(["\n", ""])) if lines else "")


_TOKENS = st.one_of(
    st.sampled_from(
        [",", "-", "+", ".", "_", "e", " ", "\r", "\t", "#", "nan", "inf", "x", "\u0663", "\u2028", "\x0b",
         "\x1c", "\n", "\n", "0,5\n"]
    ),
    st.integers(0, 999).map(str),
)
# no run of digits long enough to leave the 64-bit range, which the row
# parser accepted and the column parser refuses (tested above)
_SOUP = st.lists(_TOKENS, max_size=30).map("".join).filter(lambda text: not re.search(r"[\d_]{19}", text))


def parse_both(text: str):
    """Both parsers over a file holding ``text``: the column parser's
    series and the row parser's pairs, or the TraceParseError each raised."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "t.csv"
        trace.write_bytes(text.encode("utf-8"))
        outcomes = []
        for parse in (parse_trace, parse_trace_rows):
            try:
                outcomes.append(parse(trace))
            except TraceParseError as exc:
                outcomes.append(exc)
        return outcomes


@settings(max_examples=200, deadline=None)
@given(valid_trace_text())
def test_parse_trace_reads_valid_text_as_the_row_parser_does(text):
    series, rows = parse_both(text)
    assert pairs_of(series) == rows
    assert len(series) == len(rows)


@settings(max_examples=300, deadline=None)
@given(_SOUP)
@example("0,ten\n")
@example("zero,10\n1,2")
@example("0,1\n\u0663,2\r\n2,\u0663\u0663\n3,x\u2028")
@example("0,1\n1,1\x1c\n2,\x0b3\n3,nan\n")
@example("\r\n#c\n 1 , 2 \n1,3\n")
def test_parse_trace_fails_where_the_row_parser_does_and_agrees_elsewhere(text):
    outcome, expected = parse_both(text)
    if isinstance(expected, TraceParseError):
        assert isinstance(outcome, TraceParseError)
        assert (outcome.line_no, str(outcome)) == (expected.line_no, str(expected))
    else:
        assert pairs_of(outcome) == expected


def test_trace_dir_env_roots_relative_paths(tmp_path, monkeypatch):
    write_trace(tmp_path / "rel.csv", [(0, 42.0)])
    monkeypatch.setenv("CARBONLEDGER_TRACE_DIR", str(tmp_path))
    probe = open_probe(ProbeDescriptor("replay", ProbeKind.REPLAY, 1, "rel.csv"))
    assert drain(probe) == {"replay0": [(0, 42.0)]}


def test_replay_device_count_fans_out_sources(tmp_path):
    trace = write_trace(tmp_path / "t.csv", [(0, 100.0), (1000, 200.0)])
    probe = replay_probe(trace, device_count=2)
    first = probe.read()
    assert list(first.series) == ["replay0", "replay1"]
    assert all(pairs_of(series) == [(0, 100.0), (1000, 200.0)] for series in first.series.values())
    assert len(first) == 4  # samples over both sources
    assert probe.read() is None


def test_gpu_descriptor_two_devices_names_sources():
    probe = open_probe(ProbeDescriptor("gpu", ProbeKind.GPU, 2), reader=lambda i: 100.0 + i)
    assert probe.source_ids == ("gpu0", "gpu1")
    batch = probe.read()
    assert [s.source_id for s in batch] == ["gpu0", "gpu1"]
    assert [s.watts for s in batch] == [100.0, 101.0]


def test_hardware_stub_reads_configured_watts():
    # per-device average recovered from the golden efficiency rows; the
    # stub stands in for a management-interface backend in tests.
    probe = open_probe(ProbeDescriptor("gpu", ProbeKind.GPU, 1), reader=lambda i: 256.6)
    assert probe.read()[0].watts == 256.6


def test_hardware_timestamps_strictly_increase_per_source():
    probe = open_probe(ProbeDescriptor("gpu", ProbeKind.GPU, 1), reader=lambda i: 1.0)
    seen = [probe.read()[0].timestamp_ms for _ in range(5)]
    assert all(b > a for a, b in zip(seen, seen[1:]))


def test_transient_read_failures_are_skipped_and_counted():
    calls = {"n": 0}

    def flaky(index: int) -> float:
        calls["n"] += 1
        if calls["n"] == 2:
            raise TransientReadFailure("blip")
        return 7.0

    probe = open_probe(ProbeDescriptor("gpu", ProbeKind.GPU, 1), reader=flaky)
    assert len(probe.read()) == 1
    assert probe.read() == []
    assert len(probe.read()) == 1
    assert probe.skipped_reads == 1


def test_out_of_range_readings_are_skipped_and_counted():
    readings = iter([5.0, -1.0, float("nan"), float("inf"), 7.0])
    probe = open_probe(ProbeDescriptor("gpu", ProbeKind.GPU, 1), reader=lambda i: next(readings))
    samples = [sample for _ in range(5) for sample in probe.read()]
    assert [sample.watts for sample in samples] == [5.0, 7.0]
    assert probe.skipped_reads == 3


def test_replay_descriptor_requires_trace_path():
    with pytest.raises(ValueError):
        ProbeDescriptor("replay", ProbeKind.REPLAY, 1, None)


def test_missing_trace_file_raises_backend_style_error(tmp_path):
    descriptor = ProbeDescriptor("replay", ProbeKind.REPLAY, 1, str(tmp_path / "nope.csv"))
    with pytest.raises(OSError):
        open_probe(descriptor)


def test_negative_watts_sample_rejected_at_construction():
    with pytest.raises(ValueError):
        PowerSample("x", 0, -1.0)


def test_gpu_backend_unavailable_without_tool(monkeypatch):
    monkeypatch.setattr("carbonledger.probe.shutil.which", lambda name: None)
    with pytest.raises(BackendUnavailable):
        open_probe(ProbeDescriptor("gpu", ProbeKind.GPU, 1))


def test_rapl_reader_primes_then_derives_watts(tmp_path):
    from carbonledger.probe import _RaplReader

    zone = rapl_zone(tmp_path)  # 1 J so far
    counter = zone / "energy_uj"
    reader = _RaplReader(zone)  # opening takes the priming reading
    counter.write_text("3000000\n")  # +2 J
    watts = reader(0)
    assert watts > 0  # 2 J over the elapsed wall time

    counter.write_text("1000\n")  # counter wrapped backwards
    with pytest.raises(TransientReadFailure):
        reader(0)


def test_rapl_probe_skips_no_read(tmp_path):
    from carbonledger.probe import HardwareProbe, _RaplReader

    zone = rapl_zone(tmp_path)
    probe = HardwareProbe(ProbeDescriptor("cpu", ProbeKind.CPU, 1), _RaplReader(zone))
    samples = []
    for energy_uj in ("2000000\n", "3000000\n"):
        (zone / "energy_uj").write_text(energy_uj)
        samples += probe.read()
    assert len(samples) == 2 and all(sample.watts > 0 for sample in samples)
    assert probe.skipped_reads == 0


@pytest.mark.parametrize("energy_uj", [None, "not a number\n"])
def test_unreadable_rapl_counter_is_unavailable_at_open(tmp_path, energy_uj):
    from carbonledger.probe import _RaplReader

    with pytest.raises(BackendUnavailable, match="unreadable"):
        _RaplReader(rapl_zone(tmp_path, energy_uj))


def test_cpu_backend_unavailable_without_sysfs(monkeypatch, tmp_path):
    monkeypatch.setattr("carbonledger.probe.Path", lambda *a: tmp_path / "nope")
    with pytest.raises(BackendUnavailable):
        open_probe(ProbeDescriptor("cpu", ProbeKind.CPU, 1))


def stub_nvidia_smi(monkeypatch, outcome):
    """The nvidia-smi reader over a stub ``subprocess.run``: ``outcome`` is
    the (returncode, stdout) it completes with, or the exception it raises.
    Returns the reader and the list of commands it was asked to run."""
    import subprocess

    from carbonledger import probe as probe_mod

    commands = []

    def run(command, **kwargs):
        commands.append(command)
        if isinstance(outcome, BaseException):
            raise outcome
        return subprocess.CompletedProcess(command, outcome[0], stdout=outcome[1], stderr="")

    monkeypatch.setattr(probe_mod.shutil, "which", lambda name: "/opt/nvidia/bin/nvidia-smi")
    monkeypatch.setattr(probe_mod.subprocess, "run", run)
    return probe_mod._nvidia_smi_reader(), commands


def test_nvidia_smi_reader_parses_the_first_line(monkeypatch):
    reader, commands = stub_nvidia_smi(monkeypatch, (0, "123.45\n67.8\n"))
    assert reader(1) == 123.45
    assert commands[0][:2] == ["/opt/nvidia/bin/nvidia-smi", "--id=1"]


@pytest.mark.parametrize(
    "outcome",
    [
        (9, "123.45\n"),  # nonzero exit
        (0, "  \n"),  # nothing read
        (0, "[N/A]\n"),  # unparsable
        "timeout",
        FileNotFoundError(2, "No such file or directory"),  # the binary vanished
    ],
)
def test_nvidia_smi_reader_failures_are_transient(monkeypatch, outcome):
    import subprocess

    if outcome == "timeout":
        outcome = subprocess.TimeoutExpired(["nvidia-smi"], 3.0)
    reader, _ = stub_nvidia_smi(monkeypatch, outcome)
    with pytest.raises(TransientReadFailure, match="nvidia-smi|N/A"):
        reader(0)


def test_a_hung_nvidia_smi_is_a_skipped_read(monkeypatch):
    import subprocess

    from carbonledger.probe import HardwareProbe

    reader, _ = stub_nvidia_smi(monkeypatch, subprocess.TimeoutExpired(["nvidia-smi"], 3.0))
    probe = HardwareProbe(ProbeDescriptor("gpu", ProbeKind.GPU, 2), reader)
    assert probe.read() == []
    assert probe.skipped_reads == 2
