from __future__ import annotations

import pytest

from carbonledger.errors import BackendUnavailable, TraceParseError, TransientReadFailure
from carbonledger.probe import (
    PowerSample,
    ProbeDescriptor,
    ProbeKind,
    open_probe,
    parse_trace,
)

from conftest import rapl_zone, replay_probe, write_trace


def drain(probe) -> list[PowerSample]:
    out = []
    while (batch := probe.read()) is not None:
        out.extend(batch)
    return out


def test_replay_identity(tmp_path):
    trace = write_trace(tmp_path / "t.csv", [(0, 100.0), (1000, 100.0)])
    samples = drain(replay_probe(trace))
    assert [(s.timestamp_ms, s.watts) for s in samples] == [(0, 100.0), (1000, 100.0)]
    assert samples[1].timestamp_ms - samples[0].timestamp_ms == 1000


def test_replay_empty_file_yields_no_samples(tmp_path):
    trace = tmp_path / "empty.csv"
    trace.write_text("", encoding="utf-8")
    probe = replay_probe(trace)
    assert probe.read() is None


def test_replay_reproduces_trace_bit_equal_after_parse(tmp_path):
    pairs = [(0, 13.25), (17, 0.0), (1017, 250.125), (5000, 99.875)]
    trace = write_trace(tmp_path / "t.csv", pairs)
    samples = drain(replay_probe(trace))
    assert [(s.timestamp_ms, s.watts) for s in samples] == pairs


def test_read_after_end_of_trace_keeps_signalling(tmp_path):
    trace = write_trace(tmp_path / "t.csv", [(0, 250.0)])
    probe = replay_probe(trace)
    assert probe.read() is not None
    assert probe.read() is None
    assert probe.read() is None


def test_constant_trace_reads_constant(tmp_path):
    trace = write_trace(tmp_path / "t.csv", [(t, 250.0) for t in range(0, 5000, 1000)])
    assert all(s.watts == 250.0 for s in drain(replay_probe(trace)))


def test_comments_and_blank_lines_skipped(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("# header\n0,10\n\n# mid\n1000,20\n", encoding="utf-8")
    assert parse_trace(trace) == [(0, 10.0), (1000, 20.0)]


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


def test_trace_dir_env_roots_relative_paths(tmp_path, monkeypatch):
    write_trace(tmp_path / "rel.csv", [(0, 42.0)])
    monkeypatch.setenv("CARBONLEDGER_TRACE_DIR", str(tmp_path))
    probe = open_probe(ProbeDescriptor("replay", ProbeKind.REPLAY, 1, "rel.csv"))
    assert probe.read()[0].watts == 42.0


def test_replay_device_count_fans_out_sources(tmp_path):
    trace = write_trace(tmp_path / "t.csv", [(0, 100.0), (1000, 200.0)])
    probe = replay_probe(trace, device_count=2)
    first = probe.read()
    assert [s.source_id for s in first] == ["replay0", "replay1"]
    assert all(s.watts == 100.0 for s in first)


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
