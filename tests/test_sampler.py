from __future__ import annotations

import math
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonledger.energy import average_power, integrate_energy
from carbonledger.errors import UnknownPhase
from carbonledger.probe import PowerSample
from carbonledger.sampler import (
    EpochEvent,
    EventKind,
    _EventTail,
    parse_events,
    phase_window,
    run_sampler,
    slice_phase,
    slice_window,
)

from conftest import (
    constant_trace,
    event_stream,
    make_log,
    pairs_of,
    power_series,
    replay_probe,
    write_events,
    write_trace,
)

MINIMAL_RUN = [
    "TRAIN_START 0",
    "EPOCH_START 1 10",
    "EPOCH_END 1 20",
    "TRAIN_END 30",
]


def test_parse_minimal_protocol_run():
    events, violations = parse_events(MINIMAL_RUN)
    assert violations == 0
    assert [e.kind for e in events] == [
        EventKind.TRAIN_START,
        EventKind.EPOCH_START,
        EventKind.EPOCH_END,
        EventKind.TRAIN_END,
    ]
    assert events[1].epoch_index == 1


def test_metric_line_carries_name_and_value():
    lines = ["EPOCH_START 1 9500", "EPOCH_END 1 9600", "EPOCH_START 2 9700", "METRIC 2 val_loss 0.125 9000"]
    stream = event_stream(lines)
    assert stream.violations == 0
    assert stream.metrics == {2: {"val_loss": 0.125}}
    assert stream.metric_lines == 1
    assert stream.earliest_ms == 9000
    assert [e.kind for e in stream.events] == [EventKind.EPOCH_START, EventKind.EPOCH_END, EventKind.EPOCH_START]


def test_metric_folds_last_value_per_epoch_and_name():
    lines = [
        "EPOCH_START 1 0",
        "METRIC 1 loss 2.0 1",
        "METRIC 1 acc 0.5 2",
        "METRIC 1 loss 1.5 3",
        "EPOCH_END 1 4",
        "EPOCH_START 2 4",
        "METRIC 2 loss 1.25 5",
        "METRIC 1 loss 1.75 6",  # a started epoch may still report, also once ended
        "METRIC 3 loss 9.0 7",  # epoch 3 has not started
    ]
    stream = event_stream(lines)
    assert stream.violations == 1
    assert stream.metrics == {1: {"loss": 1.75, "acc": 0.5}, 2: {"loss": 1.25}}
    assert stream.metric_lines == 5


def test_malformed_line_skipped_and_counted():
    lines = ["TRAIN_START 0", "EPOCH_START one 5", "EPOCH_START 1 10", "EPOCH_END 1 20", "TRAIN_END 30"]
    events, violations = parse_events(lines)
    assert violations == 1
    assert len(events) == 4


@pytest.mark.parametrize(
    "line",
    [
        "",
        "NOPE 0",
        "TRAIN_START",
        "TRAIN_START 0 0",
        "TRAIN_START x",
        "TRAIN_START -5",
        "EPOCH_START 1",
        "EPOCH_START 0 10",
        "EPOCH_START 1 ten",
        "EPOCH_END 1",
        "METRIC 1 val_loss 0.5",
        "METRIC 1 val_loss x 10",
        "METRIC 1 val_loss nan 10",
        "METRIC 1  val_loss 0.5 10",
        "metric 1 val_loss 0.5 10",
        "EPOCH_START 1 10 extra",
        "EPOCH_START 1 5\u00b2",
        "EPOCH_START \u0661 5",
        "TRAIN_START +5",
        "METRIC 1 val_loss 0.5 1_0",
    ],
)
def test_grammar_rejections(line):
    # a well-formed line of each kind is admitted after one of these prefixes,
    # so a line rejected after both fails the grammar
    for prefix in ([], ["EPOCH_START 1 0"]):
        before, after = event_stream(prefix), event_stream([*prefix, line])
        assert after.violations == before.violations + 1
        assert (after.events, after.metrics, after.earliest_ms) == (before.events, before.metrics, before.earliest_ms)


def test_non_ascii_digits_are_violations():
    # str.isdigit takes "\u00b2" (int() refuses it) and "\u0661" (int() reads 1)
    lines = ["TRAIN_START 0", "EPOCH_START 1 5\u00b2", "EPOCH_START \u0661 5", "EPOCH_START 1 6", "TRAIN_END 9"]
    events, violations = parse_events(lines)
    assert violations == 2
    assert [(e.kind, e.epoch_index, e.timestamp_ms) for e in events] == [
        (EventKind.TRAIN_START, 0, 0),
        (EventKind.EPOCH_START, 1, 6),
        (EventKind.TRAIN_END, 0, 9),
    ]


def test_structural_violations_counted():
    lines = [
        "TRAIN_START 0",
        "TRAIN_START 1",          # duplicate
        "EPOCH_END 1 5",          # end before start
        "EPOCH_START 2 6",        # indices must start at 1
        "EPOCH_START 1 7",
        "EPOCH_START 2 8",        # epoch 1 still open
        "EPOCH_END 1 9",
        "METRIC 3 val_loss 0.5 10",  # epoch 3 never started
        "TRAIN_END 11",
        "EPOCH_START 2 12",       # after TRAIN_END
    ]
    events, violations = parse_events(lines)
    assert violations == 6
    assert [e.kind for e in events] == [
        EventKind.TRAIN_START,
        EventKind.EPOCH_START,
        EventKind.EPOCH_END,
        EventKind.TRAIN_END,
    ]


def test_run_sampler_constant_cadence(tmp_path):
    t1 = constant_trace(tmp_path / "a.csv", 100.0, 60_000, 1000)
    t2 = constant_trace(tmp_path / "b.csv", 200.0, 60_000, 1000)
    events = write_events(tmp_path / "e.log", ["TRAIN_START 0", "TRAIN_END 60000"])
    log = run_sampler(
        [replay_probe(t1, name="a"), replay_probe(t2, name="b")],
        1000,
        events,
        stop_condition=lambda: True,
    )
    assert len(log.samples_for("a0")) == 61
    assert len(log.samples_for("b0")) == 61
    assert log.violations == 0
    assert log.warnings == ()


def test_run_sampler_parses_events_in_order(tmp_path):
    trace = constant_trace(tmp_path / "t.csv", 50.0, 30, 10)
    events = write_events(tmp_path / "e.log", MINIMAL_RUN)
    log = run_sampler([replay_probe(trace)], 10, events, stop_condition=lambda: True)
    assert [e.kind for e in log.events] == [
        EventKind.TRAIN_START,
        EventKind.EPOCH_START,
        EventKind.EPOCH_END,
        EventKind.TRAIN_END,
    ]


def test_events_kept_in_timestamp_order_file_order_among_ties():
    lines = [
        "TRAIN_START 50",
        "EPOCH_START 1 10",
        "METRIC 1 a 1 60",
        "METRIC 1 b 2 10",
        "EPOCH_END 1 60",
        "EPOCH_START 2 10",
        "EPOCH_END 2 60",
        "TRAIN_END 5",
    ]
    stream = event_stream(lines)
    assert stream.violations == 0
    assert [(e.kind.value, e.epoch_index, e.timestamp_ms) for e in stream.events] == [
        ("TRAIN_END", 0, 5),
        ("EPOCH_START", 1, 10),
        ("EPOCH_START", 2, 10),
        ("TRAIN_START", 0, 50),
        ("EPOCH_END", 1, 60),
        ("EPOCH_END", 2, 60),
    ]
    assert stream.metrics == {1: {"a": 1.0, "b": 2.0}}
    assert stream.earliest_ms == 5


def test_run_sampler_parses_unterminated_last_line(tmp_path):
    trace = constant_trace(tmp_path / "t.csv", 50.0, 30, 10)
    text = "\n".join(MINIMAL_RUN)  # no LF after TRAIN_END
    events = tmp_path / "e.log"
    events.write_text(text, encoding="utf-8", newline="\n")
    log = run_sampler([replay_probe(trace)], 10, events, stop_condition=lambda: True)
    assert (log.events, log.violations) == parse_events(text.split("\n"))
    assert log.events[-1].kind is EventKind.TRAIN_END


def test_on_tick_gets_one_snapshot_per_epoch_end(tmp_path):
    trace = constant_trace(tmp_path / "t.csv", 50.0, 40, 10)
    events = write_events(tmp_path / "e.log", [])
    # one chunk appended per loop pass; the last one is polled before the
    # loop stops, so every EPOCH_END reaches on_tick
    chunks = [
        "TRAIN_START 0\nEPOCH_START 1 0\n",
        "METRIC 1 loss 0.5 5\n",
        "EPOCH_END 1 10\nEPOCH_START 2 10\nMETRIC 2 loss 0.4 15\n",
        "EPOCH_END 2 20\nEPOCH_START 3 20\nEPOCH_END 3 30\n",
        "TRAIN_END 40\n",
    ]

    def append_next() -> bool:
        if not chunks:
            return True
        with open(events, "a", encoding="utf-8", newline="\n") as fh:
            fh.write(chunks.pop(0))
        return False

    snapshots = []
    log = run_sampler([replay_probe(trace)], 10, events, stop_condition=append_next, on_tick=snapshots.append)
    assert [s.epochs_completed() for s in snapshots] == [1, 3]
    assert [len(s.events) for s in snapshots] == [4, 7]
    assert [s.metric_lines for s in snapshots] == [2, 2]
    assert all(s.metrics == {1: {"loss": 0.5}, 2: {"loss": 0.4}} for s in [*snapshots, log])
    assert all(s.samples == log.samples for s in snapshots)
    assert log.epochs_completed() == 3 and log.events[-1].kind is EventKind.TRAIN_END


def test_replay_snapshots_share_the_final_logs_series(tmp_path):
    trace = constant_trace(tmp_path / "t.csv", 50.0, 40, 10)
    events = write_events(tmp_path / "e.log", [])
    chunks = ["TRAIN_START 0\nEPOCH_START 1 0\nEPOCH_END 1 10\n", "EPOCH_START 2 10\nEPOCH_END 2 20\nTRAIN_END 40\n"]

    def append_next() -> bool:
        if not chunks:
            return True
        with open(events, "a", encoding="utf-8", newline="\n") as fh:
            fh.write(chunks.pop(0))
        return False

    snapshots = []
    log = run_sampler([replay_probe(trace, 2)], 10, events, stop_condition=append_next, on_tick=snapshots.append)
    assert len(snapshots) == 2 and log.sources() == ("replay0", "replay1")
    for snapshot in snapshots:
        assert snapshot.series.keys() == log.series.keys()
        assert all(snapshot.series[source] is series for source, series in log.series.items())


def test_run_sampler_orders_samples_from_several_probes(tmp_path):
    first = write_trace(tmp_path / "a.csv", [(0, 10.0), (2000, 20.0), (3000, 30.0)])
    second = write_trace(tmp_path / "b.csv", [(1000, 15.0), (2000, 25.0)])
    events = write_events(tmp_path / "e.log", MINIMAL_RUN)
    probes = [replay_probe(first), replay_probe(second), replay_probe(second, name="a")]
    log = run_sampler(probes, 1000, events, stop_condition=lambda: True)
    assert log.sources() == ("a0", "replay0")
    # by timestamp; the equal stamps keep the order the probes were read in
    expected = [(0, 10.0), (1000, 15.0), (2000, 20.0), (2000, 25.0), (3000, 30.0)]
    assert [(s.timestamp_ms, s.watts) for s in log.samples_for("replay0")] == expected
    assert [(s.timestamp_ms, s.source_id) for s in log.samples] == [
        (0, "replay0"), (1000, "a0"), (1000, "replay0"), (2000, "a0"), (2000, "replay0"), (2000, "replay0"),
        (3000, "replay0"),
    ]


class KeepingProbe:
    """Delegates to a probe and keeps every reading it hands over."""

    def __init__(self, inner):
        self.inner, self.descriptor, self.source_ids = inner, inner.descriptor, inner.source_ids
        self.readings = []

    def read(self):
        reading = self.inner.read()
        if reading is not None:
            self.readings.append(reading)
        return reading


def test_merging_a_shared_source_id_leaves_each_probe_series_whole(tmp_path):
    first = write_trace(tmp_path / "a.csv", [(0, 10.0), (2000, 20.0)])
    second = write_trace(tmp_path / "b.csv", [(1000, 15.0), (2000, 25.0)])
    probes = [KeepingProbe(replay_probe(first)), KeepingProbe(replay_probe(second))]
    log = run_sampler(probes, 1000, write_events(tmp_path / "e.log", MINIMAL_RUN), stop_condition=lambda: True)
    (a,), (b,) = (probe.readings for probe in probes)
    assert pairs_of(a.series["replay0"]) == [(0, 10.0), (2000, 20.0)]
    assert pairs_of(b.series["replay0"]) == [(1000, 15.0), (2000, 25.0)]
    assert pairs_of(log.series["replay0"]) == [(0, 10.0), (1000, 15.0), (2000, 20.0), (2000, 25.0)]


def test_a_hardware_probe_reading_a_replayed_source_id_adds_to_it(tmp_path):
    from carbonledger.probe import ProbeDescriptor, ProbeKind, open_probe

    trace = write_trace(tmp_path / "t.csv", [(0, 10.0), (1000, 20.0)])
    replay = KeepingProbe(replay_probe(trace, name="gpu"))
    hardware = open_probe(ProbeDescriptor("gpu", ProbeKind.GPU, 1), reader=lambda i: 55.0)
    log = run_sampler([replay, hardware], 1000, write_events(tmp_path / "e.log", MINIMAL_RUN), lambda: True)
    samples = pairs_of(log.series["gpu0"])
    assert samples[:2] == [(0, 10.0), (1000, 20.0)] and {w for _, w in samples[2:]} == {55.0}
    assert len(samples) >= 3
    assert pairs_of(replay.readings[0].series["gpu0"]) == [(0, 10.0), (1000, 20.0)]


def test_a_replay_only_run_builds_no_power_sample(tmp_path, monkeypatch):
    built = []
    post_init = PowerSample.__post_init__

    def counting(self) -> None:
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PowerSample, "__post_init__", counting)
    trace = constant_trace(tmp_path / "t.csv", 250.0, 60_000)
    events = write_events(tmp_path / "e.log", MINIMAL_RUN)
    probes = [replay_probe(trace, 2), replay_probe(trace, name="a")]
    snapshots = []
    log = run_sampler(probes, 1000, events, stop_condition=lambda: True, on_tick=snapshots.append)
    integrate_energy(log, 1.55)
    assert len(snapshots) == 1 and len(log.series) == 3
    assert built == []
    PowerSample("x", 0, 1.0)
    assert len(built) == 1  # the count does see a construction


def test_a_fanned_out_replay_shares_one_series_and_builds_its_terms_once(tmp_path, monkeypatch):
    from carbonledger import energy

    segments = []
    segment_kwh = energy.segment_kwh

    def counting(*args) -> float:
        segments.append(args)
        return segment_kwh(*args)

    monkeypatch.setattr(energy, "segment_kwh", counting)
    trace = constant_trace(tmp_path / "t.csv", 250.0, 10_000)  # 11 samples, 10 segments
    events = write_events(tmp_path / "e.log", MINIMAL_RUN)
    log = run_sampler([replay_probe(trace, 4)], 1000, events, stop_condition=lambda: True)
    assert log.sources() == ("replay0", "replay1", "replay2", "replay3")
    assert len({id(series) for series in log.series.values()}) == 1
    assert integrate_energy(log, 1.0).raw_kwh == pytest.approx(4 * 250.0 * 10 / 3_600_000)
    average_power(log)
    assert len(segments) == 10


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_samples_view_equals_plain_rows(data):
    series = data.draw(power_series(1000))
    # repeat some stamps within a source, recorded after the original
    for pairs in series.values():
        pairs += [(t, w + 1.0) for t, w in data.draw(st.lists(st.sampled_from(pairs), max_size=3))]
    log = make_log(series)
    rows = [PowerSample(source, t, w) for source, pairs in series.items() for t, w in pairs]
    rows.sort(key=lambda s: (s.timestamp_ms, s.source_id))  # stable: recorded order among ties
    assert log.samples == tuple(rows)
    assert log.sources() == tuple(sorted({s.source_id for s in rows}))
    for source in log.sources():
        assert log.samples_for(source) == tuple(s for s in rows if s.source_id == source)
    assert log.samples_for("absent") == ()


EVENT_TOKENS = st.one_of(
    st.sampled_from(
        ["TRAIN_START", "EPOCH_START", "EPOCH_END", "METRIC", "TRAIN_END", "loss", "0.5", "lé", "λ", "🔥",
         " ", "\n", "\r", "\x1c", "\u2028", "TRAIN_START 0\n", "EPOCH_START 1 5\n", "EPOCH_END 1 9\n"]
    ),
    st.text(alphabet="0123456789", min_size=1, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tail_over_any_chunking_matches_parse_events(data):
    text = "".join(data.draw(st.lists(EVENT_TOKENS, max_size=40)))
    encoded = text.encode("utf-8")
    # cuts fall between any two bytes, also inside a multi-byte character
    cuts = sorted(data.draw(st.sets(st.integers(0, len(encoded)), max_size=6)))
    expected_lines = text.split("\n")
    if expected_lines[-1] == "":
        expected_lines.pop()  # the LF ends the last line, it starts none
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events"
        path.write_bytes(b"")
        tail = _EventTail(path)
        for a, b in zip([0, *cuts], [*cuts, len(encoded)]):
            with open(path, "ab") as fh:
                fh.write(encoded[a:b])
            tail.poll()
        tail.finish()
    assert (tuple(tail.events), tail.violations) == parse_events(expected_lines)


class EventProtocolViolation(Exception):
    """A line the reference parser rejects."""


def _reference_line(line: str) -> tuple[EventKind, int, int, str | None, float | None]:
    """One line's (kind, epoch, timestamp, metric name, metric value)."""
    parts = line.split(" ")
    if not parts or parts[0] not in EventKind.__members__:
        raise EventProtocolViolation(f"unknown event kind in {line!r}")
    kind = EventKind[parts[0]]

    def _int(text: str, what: str) -> int:
        if not (text.isascii() and text.isdigit()):
            raise EventProtocolViolation(f"bad {what} {text!r} in {line!r}")
        return int(text)

    if kind in (EventKind.TRAIN_START, EventKind.TRAIN_END):
        if len(parts) != 2:
            raise EventProtocolViolation(f"expected 2 fields in {line!r}")
        return kind, 0, _int(parts[1], "timestamp"), None, None
    if kind in (EventKind.EPOCH_START, EventKind.EPOCH_END):
        if len(parts) != 3:
            raise EventProtocolViolation(f"expected 3 fields in {line!r}")
        epoch = _int(parts[1], "epoch index")
        if epoch < 1:
            raise EventProtocolViolation(f"epoch index must be >= 1 in {line!r}")
        return kind, epoch, _int(parts[2], "timestamp"), None, None
    if len(parts) != 5:
        raise EventProtocolViolation(f"expected 5 fields in {line!r}")
    epoch = _int(parts[1], "epoch index")
    name = parts[2]
    if not name:
        raise EventProtocolViolation(f"empty metric name in {line!r}")
    try:
        value = float(parts[3])
    except ValueError as exc:
        raise EventProtocolViolation(f"bad metric value in {line!r}") from exc
    if not math.isfinite(value):
        raise EventProtocolViolation(f"non-finite metric value in {line!r}")
    return kind, epoch, _int(parts[4], "timestamp"), name, value


def reference_parse(lines: list[str]):
    """A line-at-a-time parser and protocol check, written for clarity, that
    the event-stream core must agree with. Returns the boundary events in
    stable timestamp order, the violation count, the metrics (last value per
    epoch and name), the count of admitted METRIC lines and the earliest
    admitted stamp of any kind (inf if none)."""
    started = ended = False
    last_started, open_epoch = 0, None
    admitted, violations = [], 0
    for line in lines:
        try:
            kind, epoch, stamp, name, value = _reference_line(line)
            if ended:
                raise EventProtocolViolation(f"event after TRAIN_END: {kind.value}")
            if kind is EventKind.TRAIN_START:
                if started:
                    raise EventProtocolViolation("duplicate TRAIN_START")
                started = True
            elif kind is EventKind.EPOCH_START:
                if open_epoch is not None:
                    raise EventProtocolViolation(f"EPOCH_START {epoch} while {open_epoch} open")
                if epoch != last_started + 1:
                    raise EventProtocolViolation(f"epoch index {epoch} does not follow {last_started}")
                open_epoch = last_started = epoch
            elif kind is EventKind.EPOCH_END:
                if open_epoch != epoch:
                    raise EventProtocolViolation(f"EPOCH_END {epoch} without matching start")
                open_epoch = None
            elif kind is EventKind.METRIC:
                if epoch < 1 or epoch > last_started:
                    raise EventProtocolViolation(f"METRIC for unknown epoch {epoch}")
            else:
                ended = True
        except EventProtocolViolation:
            violations += 1
            continue
        admitted.append((kind, epoch, stamp, name, value))
    metrics: dict[int, dict[str, float]] = {}
    for kind, epoch, _, name, value in admitted:
        if kind is EventKind.METRIC:
            metrics.setdefault(epoch, {})[name] = value
    boundaries = sorted(
        (EpochEvent(kind, epoch, stamp) for kind, epoch, stamp, _, _ in admitted if kind is not EventKind.METRIC),
        key=lambda e: e.timestamp_ms,
    )
    metric_lines = sum(kind is EventKind.METRIC for kind, *_ in admitted)
    earliest = min((stamp for _, _, stamp, _, _ in admitted), default=math.inf)
    return tuple(boundaries), violations, metrics, metric_lines, earliest


FIELD_TOKENS = st.sampled_from(
    ["0", "1", "2", "7", "\u00b2", "\u0661", "+5", "-1", "nan", "inf", "1_0", "1e3", "0.5", "", "loss", "acc"]
)
KIND_TOKENS = st.sampled_from(["TRAIN_START", "EPOCH_START", "EPOCH_END", "METRIC", "TRAIN_END", "metric", ""])
EPOCHS = st.one_of(st.integers(1, 3).map(str), st.sampled_from(["0", "\u0661", "\u00b2"]))
STAMPS = st.one_of(st.integers(0, 20).map(str), st.sampled_from(["5\u00b2", "\u0661", "1_0", "+5"]))
VALUES = st.one_of(st.floats(-10, 10).map(repr), FIELD_TOKENS)


@st.composite
def token_line(draw) -> str:
    separator = draw(st.sampled_from([" ", " ", "  "]))
    return separator.join([draw(KIND_TOKENS), *draw(st.lists(FIELD_TOKENS, max_size=5))])


EVENT_LINES = st.one_of(
    token_line(),
    # lines of the right shape, so the protocol checks see a run, too
    st.builds("TRAIN_START {}".format, STAMPS),
    st.builds("EPOCH_START {} {}".format, EPOCHS, STAMPS),
    st.builds("EPOCH_END {} {}".format, EPOCHS, STAMPS),
    st.builds("METRIC {} {} {} {}".format, EPOCHS, st.sampled_from(["loss", "acc", ""]), VALUES, STAMPS),
    st.builds("TRAIN_END {}".format, STAMPS),
)


@st.composite
def noisy_run(draw) -> list[str]:
    """A well-formed run of up to 4 epochs with METRIC lines (some for the
    wrong epoch), unordered stamps, and random lines put in or swapped in."""
    stamp = st.integers(0, 20).map(str)
    lines = [f"TRAIN_START {draw(stamp)}"]
    for k in range(1, draw(st.integers(0, 4)) + 1):
        lines.append(f"EPOCH_START {k} {draw(stamp)}")
        for _ in range(draw(st.integers(0, 3))):
            epoch = k + draw(st.sampled_from([0, 0, 0, -1, 1]))
            name, value = draw(st.sampled_from(["loss", "acc"])), draw(VALUES)
            lines.append(f"METRIC {epoch} {name} {value} {draw(stamp)}")
        lines.append(f"EPOCH_END {k} {draw(stamp)}")
    lines.append(f"TRAIN_END {draw(stamp)}")
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines)))
        lines[i:i + draw(st.integers(0, 1))] = [draw(EVENT_LINES)]
    return lines


@settings(max_examples=500, deadline=None)
@given(st.one_of(noisy_run(), st.lists(EVENT_LINES, max_size=40)))
def test_event_core_matches_the_reference_parser(lines):
    stream = event_stream(lines)
    got = (tuple(stream.events), stream.violations, stream.metrics, stream.metric_lines, stream.earliest_ms)
    assert got == reference_parse(lines)
    assert parse_events(lines) == got[:2]


def test_tail_poll_inside_a_multibyte_character(tmp_path):
    path = tmp_path / "events"
    path.write_bytes(b"TRAIN_START 0\nEPOCH_START 1 5\nMETRIC 1 l\xc3")
    tail = _EventTail(path)
    tail.poll()  # stops between the two bytes of the \u00e9
    assert [e.kind for e in tail.events] == [EventKind.TRAIN_START, EventKind.EPOCH_START]
    with open(path, "ab") as fh:
        fh.write(b"\xa9 0.5 7\nMETRIC 1 \xff 0.5 8\nTRAIN_END 9\n")
    tail.poll()
    assert tail.metrics == {1: {"l\u00e9": 0.5}}
    assert tail.events[-1].kind is EventKind.TRAIN_END
    assert tail.violations == 1  # the complete line that is not UTF-8


def test_an_event_file_gone_at_the_open_is_no_new_lines(tmp_path, monkeypatch):
    # the file is removed between an existence check and the open: make
    # the check say it is there, so only the open can find it missing
    trace = constant_trace(tmp_path / "t.csv", 50.0, 30, 10)
    probes = [replay_probe(trace)]
    monkeypatch.setattr(Path, "exists", lambda self, **kwargs: True)
    tail = _EventTail(tmp_path / "gone.log")
    assert tail.poll() is False
    tail.finish()
    assert (tail.events, tail.violations) == ([], 0)
    log = run_sampler(probes, 10, tmp_path / "gone.log", stop_condition=lambda: True)
    assert log.events == ()
    assert log.warnings == ("no TRAIN_START observed",)


def test_run_sampler_counts_malformed_event_lines(tmp_path):
    trace = constant_trace(tmp_path / "t.csv", 50.0, 30, 10)
    events = write_events(
        tmp_path / "e.log",
        ["TRAIN_START 0", "EPOCH_START one", "EPOCH_START 1 10", "EPOCH_END 1 20", "TRAIN_END 30"],
    )
    log = run_sampler([replay_probe(trace)], 10, events, stop_condition=lambda: True)
    assert log.violations == 1
    assert len(log.events) == 4


def test_run_sampler_missing_train_start_warns(tmp_path):
    trace = constant_trace(tmp_path / "t.csv", 50.0, 30, 10)
    events = write_events(tmp_path / "e.log", [])
    log = run_sampler([replay_probe(trace)], 10, events, stop_condition=lambda: True)
    assert any("TRAIN_START" in w for w in log.warnings)


def test_run_sampler_notes_clock_skew(tmp_path):
    # events stamped before the first sample point of the run
    trace = write_trace(tmp_path / "t.csv", [(5000, 50.0), (6000, 50.0)])
    events = write_events(tmp_path / "e.log", ["TRAIN_START 0", "TRAIN_END 6000"])
    log = run_sampler([replay_probe(trace)], 1000, events, stop_condition=lambda: True)
    assert any("skew" in w for w in log.warnings)


def test_run_sampler_notes_clock_skew_of_a_metric_line(tmp_path):
    # every boundary event follows the trace start; one METRIC precedes it
    trace = write_trace(tmp_path / "t.csv", [(5000, 50.0), (6000, 50.0)])
    lines = ["TRAIN_START 5000", "EPOCH_START 1 5000", "METRIC 1 loss 0.5 100", "EPOCH_END 1 6000", "TRAIN_END 6000"]
    events = write_events(tmp_path / "e.log", lines)
    log = run_sampler([replay_probe(trace)], 1000, events, stop_condition=lambda: True)
    assert log.violations == 0
    assert any("skew" in w for w in log.warnings)


def test_snapshot_metrics_do_not_change_after_the_snapshot(tmp_path):
    trace = constant_trace(tmp_path / "t.csv", 50.0, 40, 10)
    events = write_events(tmp_path / "e.log", [])
    chunks = [
        "TRAIN_START 0\nEPOCH_START 1 0\nMETRIC 1 loss 0.5 5\nEPOCH_END 1 10\n",
        "METRIC 1 loss 0.25 20\nTRAIN_END 40\n",
    ]

    def append_next() -> bool:
        if not chunks:
            return True
        with open(events, "a", encoding="utf-8", newline="\n") as fh:
            fh.write(chunks.pop(0))
        return False

    snapshots = []
    log = run_sampler([replay_probe(trace)], 10, events, stop_condition=append_next, on_tick=snapshots.append)
    assert [s.metrics for s in snapshots] == [{1: {"loss": 0.5}}]
    assert (log.metrics, log.metric_lines) == ({1: {"loss": 0.25}}, 2)


def test_run_sampler_polls_hardware_probes_on_cadence(tmp_path):
    from carbonledger.probe import ProbeDescriptor, ProbeKind, open_probe

    probe = open_probe(ProbeDescriptor("gpu", ProbeKind.GPU, 2), reader=lambda i: 55.0 + i)
    events = write_events(tmp_path / "e.log", MINIMAL_RUN)
    ticks = {"n": 0}

    def stop() -> bool:
        ticks["n"] += 1
        return ticks["n"] > 3

    log = run_sampler([probe], 10, events, stop_condition=stop)
    assert len(log.samples_for("gpu0")) >= 2
    assert len(log.samples_for("gpu1")) >= 2
    assert {s.watts for s in log.samples_for("gpu1")} == {56.0}


def test_run_sampler_notes_a_skipped_hardware_read(tmp_path):
    from carbonledger import carbon
    from carbonledger.errors import TransientReadFailure
    from carbonledger.forecast import account
    from carbonledger.probe import HardwareProbe, ProbeDescriptor, ProbeKind

    reads = {"n": 0}

    def reader(index: int) -> float:
        reads["n"] += 1
        if reads["n"] == 2:
            raise TransientReadFailure("device busy")
        return 50.0

    probe = HardwareProbe(ProbeDescriptor("gpu", ProbeKind.GPU, 1), reader)
    events = write_events(tmp_path / "e.log", MINIMAL_RUN)
    ticks = {"n": 0}

    def stop() -> bool:
        ticks["n"] += 1
        return ticks["n"] > 3

    log = run_sampler([probe], 10, events, stop_condition=stop)
    assert "1 hardware reads skipped" in log.warnings
    record = account(
        log, experiment_id="id-1", label="gpu", started_at="2026-08-10T12:00:00+00:00",
        intensity=carbon.CarbonIntensity("DE", 380.0), pue=1.55, car_factor=carbon.DEFAULT_CAR_KG_PER_KM,
        exit_code=0, interrupted=False,
    )
    assert "1 hardware reads skipped" in record.quality_notes


def test_run_sampler_reads_hardware_on_a_fixed_grid(tmp_path, monkeypatch):
    # Fake clock in exact binary fractions of a second: a read costs 1/16 s,
    # the third one 2.5 intervals; polls cost nothing.
    from types import SimpleNamespace

    from carbonledger import sampler as sampler_mod
    from carbonledger.probe import ProbeDescriptor, ProbeKind, open_probe

    clock = {"now": 1000.0}
    # A loop that stops advancing the fake clock (a pause that bypasses
    # sampler.time) fails here instead of hanging: every loop turn reads it,
    # and a run that pauses on sampler.time makes under 100 calls.
    budget = {"calls": 1_000}

    def spend() -> None:
        budget["calls"] -= 1
        if budget["calls"] < 0:
            raise RuntimeError("fake clock call budget spent: the loop is not pausing on sampler.time")

    def monotonic() -> float:
        spend()
        return clock["now"]

    def sleep(seconds: float) -> None:
        spend()
        assert seconds >= 0.0
        clock["now"] += seconds

    fake_time = SimpleNamespace(monotonic=monotonic, sleep=sleep, time_ns=lambda: 0)
    monkeypatch.setattr(sampler_mod, "time", fake_time)
    read_at = []

    def reader(index: int) -> float:
        spend()
        read_at.append(clock["now"])
        clock["now"] += 0.625 if len(read_at) == 3 else 0.0625
        return 50.0

    probe = open_probe(ProbeDescriptor("gpu", ProbeKind.GPU, 1), reader=reader)
    events = write_events(tmp_path / "e.log", MINIMAL_RUN)
    run_sampler([probe], 250, events, stop_condition=lambda: clock["now"] >= 1003.0)
    in_loop = read_at[:-1]  # the last read is the final one, made at stop time
    slots = [(t - 1000.0) / 0.25 for t in in_loop]
    assert slots == [0, 1, 2, 5, 6, 7, 8, 9, 10, 11, 12]


def test_run_sampler_wakes_when_its_wait_returns(tmp_path, monkeypatch):
    # With a 30 s poll bound, only a wait that wakes on the stop ends the
    # loop in time.
    from carbonledger import sampler as sampler_mod

    monkeypatch.setattr(sampler_mod, "_MAX_POLL_S", 30.0)
    trace = write_trace(tmp_path / "t.csv", [(0, 10.0), (1000, 10.0)])
    events = write_events(tmp_path / "e.log", MINIMAL_RUN)
    stopped = threading.Event()
    timer = threading.Timer(0.05, stopped.set)
    started = time.monotonic()
    timer.start()
    try:
        log = run_sampler([replay_probe(trace)], 60_000, events, stop_condition=stopped.is_set, wait=stopped.wait)
    finally:
        timer.cancel()
        timer.join(5.0)
    assert time.monotonic() - started < 5.0
    assert not timer.is_alive()
    assert log.epochs_completed() == 1


def test_run_sampler_polls_every_20_ms_until_the_first_epoch_ends(tmp_path):
    # The 100 ms bound holds before TRAIN_START and after the first
    # EPOCH_END; between them it is 20 ms. A shorter interval wins.
    trace = write_trace(tmp_path / "t.csv", [(0, 10.0), (1000, 10.0)])
    events = tmp_path / "e.log"

    def pauses_of(interval_ms: int) -> list[float]:
        events.write_text("", encoding="utf-8")
        pauses: list[float] = []

        def wait(seconds: float) -> None:
            pauses.append(seconds)
            # TRAIN_START and EPOCH_START 1 after the first pause, the rest after the third
            lines = {1: MINIMAL_RUN[:2], 3: MINIMAL_RUN[2:]}.get(len(pauses), [])
            with open(events, "a", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in lines))

        log = run_sampler([replay_probe(trace)], interval_ms, events, stop_condition=lambda: len(pauses) == 5, wait=wait)
        assert log.epochs_completed() == 1
        return pauses

    assert pauses_of(1000) == [0.1, 0.02, 0.02, 0.1, 0.1]
    assert pauses_of(10) == [0.01] * 5


def test_run_sampler_rejects_non_positive_interval(tmp_path):
    with pytest.raises(ValueError):
        run_sampler([], 0, tmp_path / "e.log", stop_condition=lambda: True)


def test_run_sampler_is_deterministic_over_replay(tmp_path):
    trace = write_trace(tmp_path / "t.csv", [(t, 10.0 + (t % 7)) for t in range(0, 20_000, 500)])
    events = write_events(tmp_path / "e.log", MINIMAL_RUN)

    def one_run():
        return run_sampler([replay_probe(trace)], 500, events, stop_condition=lambda: True)

    assert one_run() == one_run()


def _stepped_fixture():
    """Three epochs at distinct wattages with inter-phase gaps.

    Wattage changes only between epochs, so each epoch window contains
    one constant level and its boundaries sit on real samples.
    """
    series = []
    for k, watts in enumerate((100.0, 200.0, 300.0)):
        base = k * 20_000
        series.extend((base + t, watts) for t in range(0, 10_001, 1000))
    events = [
        "TRAIN_START 0",
        "EPOCH_START 1 0",
        "EPOCH_END 1 10000",
        "EPOCH_START 2 20000",
        "EPOCH_END 2 30000",
        "EPOCH_START 3 40000",
        "EPOCH_END 3 50000",
        "TRAIN_END 50000",
    ]
    return make_log({"gpu0": series}, interval_ms=5000, event_lines=events)


def test_slice_epoch_keeps_only_that_epochs_samples():
    log = _stepped_fixture()
    sliced = slice_phase(log, "epoch:2")
    assert sliced.samples
    assert all(s.watts == 200.0 for s in sliced.samples)
    assert all(20_000 <= s.timestamp_ms <= 30_000 for s in sliced.samples)


def test_slice_full_is_identity():
    log = _stepped_fixture()
    assert slice_phase(log, "full") is log


def test_slice_unknown_phase():
    log = _stepped_fixture()
    with pytest.raises(UnknownPhase):
        slice_phase(log, "epoch:9")
    with pytest.raises(UnknownPhase):
        slice_phase(log, "warmup")


def test_phase_window_selectors():
    log = _stepped_fixture()
    assert phase_window(log, "run") == (0, 50_000)
    assert phase_window(log, "setup") == (0, 0)
    assert phase_window(log, "epoch:3") == (40_000, 50_000)
    with pytest.raises(UnknownPhase):
        phase_window(log, "epoch:x")


def test_slice_interpolates_cut_boundaries():
    log = make_log({"g": [(0, 0.0), (10_000, 100.0)]}, event_lines=["TRAIN_START 0", "TRAIN_END 10000"])
    sliced = slice_window(log, 2_500, 7_500)
    assert [(s.timestamp_ms, s.watts) for s in sliced.samples] == [(2500, 25.0), (7500, 75.0)]


def test_window_chain_covers_run_exactly():
    """Per-epoch slices plus inter-phase gaps partition the run window:
    energies add up and no interior sample is lost or duplicated."""
    log = _stepped_fixture()
    boundaries = [0, 0, 10_000, 20_000, 30_000, 40_000, 50_000, 50_000]
    windows = list(zip(boundaries, boundaries[1:]))
    total = integrate_energy(slice_window(log, 0, 50_000), 1.0).raw_kwh
    parts = [integrate_energy(slice_window(log, a, b), 1.0).raw_kwh for a, b in windows]
    assert math.isclose(sum(parts), total, rel_tol=1e-9)
    for sample in log.samples:
        holders = [1 for a, b in windows if a <= sample.timestamp_ms < b]
        if sample.timestamp_ms < 50_000:
            assert len(holders) == 1
