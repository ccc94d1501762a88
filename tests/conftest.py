from __future__ import annotations

import json
from array import array
from pathlib import Path

import pytest
from hypothesis import strategies as st

from carbonledger import carbon
from carbonledger.forecast import PhaseSummary
from carbonledger.ledger import ExperimentRecord
from carbonledger.probe import ProbeDescriptor, ProbeKind, open_probe
from carbonledger.sampler import SampleLog, SourceSeries, _EventStream

from goldens import GOLDEN_ROWS


def write_trace(path: Path, pairs: list[tuple[int, float]]) -> Path:
    path.write_text("".join(f"{t},{w}\n" for t, w in pairs), encoding="utf-8", newline="\n")
    return path


def constant_trace(path: Path, watts: float, duration_ms: int, cadence_ms: int = 1000) -> Path:
    return write_trace(path, [(t, watts) for t in range(0, duration_ms + 1, cadence_ms)])


def write_events(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="\n")
    return path


def event_stream(lines: list[str]) -> _EventStream:
    """The event-stream core after admitting ``lines``."""
    stream = _EventStream()
    stream.feed(lines)
    return stream


def replay_probe(trace: Path, device_count: int = 1, name: str = "replay"):
    return open_probe(ProbeDescriptor(name, ProbeKind.REPLAY, device_count, str(trace)))


def rapl_zone(tmp_path: Path, energy_uj: str | None = "1000000\n") -> Path:
    """A fake RAPL zone whose energy_uj holds ``energy_uj``; with None,
    energy_uj is a directory, which cannot be read even as root."""
    zone = tmp_path / "intel-rapl:0"
    if energy_uj is None:
        (zone / "energy_uj").mkdir(parents=True)
    else:
        zone.mkdir()
        (zone / "energy_uj").write_text(energy_uj)
    return zone


def make_log(
    series: dict[str, list[tuple[int, float]]],
    interval_ms: int = 1000,
    event_lines: list[str] | None = None,
) -> SampleLog:
    """Build a SampleLog directly, without files or probes; each source's
    pairs are put in timestamp order, and a source without pairs is left out."""
    columns = {}
    for src in sorted(series):
        pairs = sorted(series[src], key=lambda p: p[0])
        if pairs:
            columns[src] = SourceSeries(array("q", [t for t, _ in pairs]), array("d", [w for _, w in pairs]))
    stream = event_stream(event_lines or [])
    return SampleLog(
        columns, tuple(stream.events), interval_ms, stream.violations,
        metrics=stream.metrics, metric_lines=stream.metric_lines,
    )


@st.composite
def power_series(draw, interval_ms: int, max_sources: int = 3) -> dict[str, list[tuple[int, float]]]:
    """Per-source series with strictly increasing stamps; steps range from
    1 ms to 12 intervals, so some gaps are wider than 5x the interval and
    some exactly 5x. A source may have a single sample or none."""
    series = {}
    for i in range(draw(st.integers(1, max_sources))):
        t = draw(st.integers(-50 * interval_ms, 50 * interval_ms))
        pairs = []
        for _ in range(draw(st.integers(0, 12))):
            pairs.append((t, draw(st.floats(0.0, 1e4))))
            t += draw(st.one_of(st.integers(1, 2 * interval_ms), st.integers(5 * interval_ms, 12 * interval_ms)))
        if pairs:
            series[f"s{i}"] = pairs
    return series


def make_record(
    label: str = "demo",
    hours: float = 1.0,
    kwh: float = 0.775,
    grams: float = 380.0,
    car_factor: float = carbon.DEFAULT_CAR_KG_PER_KM,
    **overrides,
) -> ExperimentRecord:
    """A self-consistent record; co2e and car_km derived from the inputs."""
    kg = carbon.co2e(kwh, grams)
    fields = dict(
        experiment_id=overrides.pop("experiment_id", f"id-{label}"),
        label=label,
        started_at="2026-08-10T12:00:00+00:00",
        duration_hours=hours,
        epochs_completed=3,
        energy_kwh=kwh,
        intensity_g_per_kwh=grams,
        pue=1.55,
        co2e_kg=kg,
        car_km=carbon.car_km_equivalent(kg, car_factor),
        car_factor_kg_per_km=car_factor,
        region="DE",
        phase_breakdown=(
            PhaseSummary("setup", 0.0, 0.0, 0.0),
            PhaseSummary("epoch 1", hours / 3, kwh / 3, carbon.co2e(kwh / 3, grams)),
        ),
        quality_notes=(),
    )
    fields.update(overrides)
    return ExperimentRecord(**fields)


def write_bad_ledger(path: Path, case: str) -> Path:
    """A ledger whose second line is ``torn``, has an ``unknown-key`` or an
    ``unknown-version``, is a record labelled ``café`` torn inside the
    ``é`` (``torn-multibyte``), or is JSON that json.loads cannot decode:
    a 5,000-digit integer (``long-integer``) or 100,000 nested ``[``
    (``deep-nesting``)."""
    path.write_text(json.dumps(make_record("first").to_dict(), sort_keys=True) + "\n", encoding="utf-8")
    undecodable = {"long-integer": b'{"v": ' + b"1" * 5000 + b"}", "deep-nesting": b"[" * 100_000}
    if case in undecodable:
        with open(path, "ab") as fh:
            fh.write(undecodable[case] + b"\n")
        return path
    data = make_record("café" if case == "torn-multibyte" else "second").to_dict()
    if case == "unknown-key":
        data["surprise"] = 1
    if case == "unknown-version":
        data["v"] = 2
    line = json.dumps(data, sort_keys=True, ensure_ascii=False).encode("utf-8")
    if case == "torn":
        line = line[: len(line) // 2]
    if case == "torn-multibyte":
        line = line[: line.index("é".encode("utf-8")) + 1]
    with open(path, "ab") as fh:
        fh.write(line + b"\n")
    return path


def golden_records() -> list[ExperimentRecord]:
    """The six reference rows, each self-consistent at its own implied
    intensity and car factor so the stored columns equal the published
    ones exactly."""
    return [
        make_record(
            label=label,
            hours=hours,
            kwh=kwh,
            grams=kg / kwh * 1000.0,
            car_factor=kg / km,
            phase_breakdown=(),
        )
        for label, hours, kwh, kg, km in GOLDEN_ROWS
    ]


@pytest.fixture
def triples_file(tmp_path: Path) -> Path:
    rows = [
        "refrigerator\tAtLocation\tkitchen\t8.2",
        "dog\tIsA\tanimal\t6.1",
        "oven\tUsedFor\tbaking\t7.3",
        "bird\tCapableOf\tfly\t5.5",
        "rain\tCauses\twet_ground\t4.9",
        "summer\tIsA\tseason\t3.2",
    ]
    path = tmp_path / "triples.tsv"
    path.write_text("".join(r + "\n" for r in rows), encoding="utf-8", newline="\n")
    return path
