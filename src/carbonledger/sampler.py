"""Periodic sampling of probes plus tailing of the epoch-event stream.

The monitored workload runs as a separate OS process and appends lines to
a plain event file (path handed to it via ``CARBONLEDGER_EVENTS``). The
sampler polls that file and the probes, and produces an immutable
:class:`SampleLog` when the run ends.

Epoch-event wire format (line-delimited UTF-8, LF, single spaces):

    TRAIN_START <timestamp_ms>
    EPOCH_START <k> <timestamp_ms>
    EPOCH_END <k> <timestamp_ms>
    METRIC <k> <name> <decimal> <timestamp_ms>
    TRAIN_END <timestamp_ms>

Lines outside this grammar are skipped and counted as violations, as are
structurally invalid events (an EPOCH_END with no matching EPOCH_START,
epoch indices that do not run 1, 2, 3, ..., anything after TRAIN_END).

Replay probes are drained verbatim into the log, so with replay probes the
log is a pure function of (traces, event file, interval) and reruns are
identical. Hardware probes are polled once per ``interval_ms``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable

from .errors import EventProtocolViolation, UnknownPhase
from .probe import Probe, PowerSample, ProbeKind

EVENTS_ENV = "CARBONLEDGER_EVENTS"

# Poll the event file at least this often even when the sampling interval
# is long, so child exit is noticed promptly.
_MAX_POLL_S = 0.1


class EventKind(Enum):
    TRAIN_START = "TRAIN_START"
    EPOCH_START = "EPOCH_START"
    EPOCH_END = "EPOCH_END"
    METRIC = "METRIC"
    TRAIN_END = "TRAIN_END"


@dataclass(frozen=True)
class EpochEvent:
    """One parsed line of the epoch-event stream.

    ``epoch_index`` is 0 for TRAIN_START / TRAIN_END.
    """

    kind: EventKind
    epoch_index: int
    timestamp_ms: int
    metric_name: str | None = None
    metric_value: float | None = None


@dataclass(frozen=True)
class SampleLog:
    """Everything one monitored run produced, ordered and immutable.

    samples are ordered by (timestamp, source_id); events by timestamp
    (stable, so file order breaks ties). ``violations`` counts skipped
    malformed or out-of-protocol event lines; ``warnings`` carries run
    level flags such as a missing TRAIN_START.
    """

    samples: tuple[PowerSample, ...]
    events: tuple[EpochEvent, ...]
    sampling_interval_ms: int
    violations: int = 0
    warnings: tuple[str, ...] = ()

    def sources(self) -> tuple[str, ...]:
        return tuple(sorted({s.source_id for s in self.samples}))

    def samples_for(self, source_id: str) -> tuple[PowerSample, ...]:
        return tuple(s for s in self.samples if s.source_id == source_id)

    def events_of(self, kind: EventKind) -> tuple[EpochEvent, ...]:
        return tuple(e for e in self.events if e.kind is kind)

    def epochs_completed(self) -> int:
        return len(self.events_of(EventKind.EPOCH_END))


def parse_event_line(line: str) -> EpochEvent:
    """Parse a single event line; raise EventProtocolViolation otherwise."""
    parts = line.split(" ")
    if not parts or parts[0] not in EventKind.__members__:
        raise EventProtocolViolation(f"unknown event kind in {line!r}")
    kind = EventKind[parts[0]]

    def _int(text: str, what: str) -> int:
        if not text.isdigit():
            raise EventProtocolViolation(f"bad {what} {text!r} in {line!r}")
        return int(text)

    if kind in (EventKind.TRAIN_START, EventKind.TRAIN_END):
        if len(parts) != 2:
            raise EventProtocolViolation(f"expected 2 fields in {line!r}")
        return EpochEvent(kind, 0, _int(parts[1], "timestamp"))
    if kind in (EventKind.EPOCH_START, EventKind.EPOCH_END):
        if len(parts) != 3:
            raise EventProtocolViolation(f"expected 3 fields in {line!r}")
        epoch = _int(parts[1], "epoch index")
        if epoch < 1:
            raise EventProtocolViolation(f"epoch index must be >= 1 in {line!r}")
        return EpochEvent(kind, epoch, _int(parts[2], "timestamp"))
    # METRIC <k> <name> <decimal> <timestamp_ms>
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
    return EpochEvent(kind, epoch, _int(parts[4], "timestamp"), name, value)


class _EventStream:
    """The one parse -> protocol check -> count loop over event lines.

    ``events`` keeps the admitted events in stream order; ``violations``
    counts lines that failed the grammar or the protocol.
    """

    def __init__(self) -> None:
        self.train_started = False
        self.train_ended = False
        self.last_started = 0
        self.open_epoch: int | None = None
        self.events: list[EpochEvent] = []
        self.violations = 0

    @property
    def epochs_ended(self) -> int:
        return self.last_started - (self.open_epoch is not None)

    def feed(self, lines: Iterable[str]) -> None:
        for line in lines:
            try:
                event = parse_event_line(line)
                self._admit(event)
            except EventProtocolViolation:
                self.violations += 1
                continue
            self.events.append(event)

    def _admit(self, event: EpochEvent) -> None:
        """Raise EventProtocolViolation if the event is illegal here."""
        if self.train_ended:
            raise EventProtocolViolation(f"event after TRAIN_END: {event.kind.value}")
        if event.kind is EventKind.TRAIN_START:
            if self.train_started:
                raise EventProtocolViolation("duplicate TRAIN_START")
            self.train_started = True
        elif event.kind is EventKind.EPOCH_START:
            if self.open_epoch is not None:
                raise EventProtocolViolation(f"EPOCH_START {event.epoch_index} while {self.open_epoch} open")
            if event.epoch_index != self.last_started + 1:
                raise EventProtocolViolation(
                    f"epoch index {event.epoch_index} does not follow {self.last_started}"
                )
            self.open_epoch = event.epoch_index
            self.last_started = event.epoch_index
        elif event.kind is EventKind.EPOCH_END:
            if self.open_epoch != event.epoch_index:
                raise EventProtocolViolation(f"EPOCH_END {event.epoch_index} without matching start")
            self.open_epoch = None
        elif event.kind is EventKind.METRIC:
            if event.epoch_index < 1 or event.epoch_index > self.last_started:
                raise EventProtocolViolation(f"METRIC for unknown epoch {event.epoch_index}")
        elif event.kind is EventKind.TRAIN_END:
            self.train_ended = True


def parse_events(lines: Iterable[str]) -> tuple[tuple[EpochEvent, ...], int]:
    """Parse an event stream; skipped bad lines are counted, not fatal."""
    stream = _EventStream()
    stream.feed(lines)
    return tuple(stream.events), stream.violations


class _EventTail(_EventStream):
    """Incrementally reads and parses new lines from the event file.

    Lines end at LF only; a trailing partial line waits in the buffer
    until its LF arrives or :meth:`finish` takes it as complete.
    """

    def __init__(self, path: str | Path):
        super().__init__()
        self.path = Path(path)
        self._offset = 0
        self._buffer = ""

    def poll(self) -> bool:
        """Consume newly appended complete lines; True if one ended an epoch."""
        if not self.path.exists():
            return False
        with open(self.path, "r", encoding="utf-8", newline="\n") as fh:
            fh.seek(self._offset)
            chunk = fh.read()
            self._offset = fh.tell()
        if not chunk:
            return False
        lines = (self._buffer + chunk).split("\n")
        self._buffer = lines.pop()
        ended = self.epochs_ended
        self.feed(lines)
        return self.epochs_ended > ended

    def finish(self) -> None:
        """Final poll, once the writer is gone: a last line needs no LF."""
        self.poll()
        if self._buffer:
            self.feed([self._buffer])
            self._buffer = ""


def run_sampler(
    probes: Iterable[Probe],
    interval_ms: int,
    event_stream_path: str | Path,
    stop_condition: Callable[[], bool],
    on_tick: Callable[[SampleLog], None] | None = None,
) -> SampleLog:
    """Drive sampling until ``stop_condition`` returns True.

    Replay probes are drained in full up front; hardware probes are read
    once per interval. The event file is polled at least every 100 ms so
    a fast child is not held hostage by a long sampling interval.
    ``on_tick``, when given, receives a snapshot log after every poll that
    admitted an EPOCH_END (used for live forecasting). An unterminated
    last event line is parsed once ``stop_condition`` is true.
    """
    if interval_ms <= 0:
        raise ValueError("interval_ms must be positive")
    probes = list(probes)
    samples: list[PowerSample] = []
    skipped_note = 0

    hardware = []
    for probe in probes:
        if probe.descriptor.kind is ProbeKind.REPLAY:
            while (batch := probe.read()) is not None:
                samples.extend(batch)
        else:
            hardware.append(probe)

    tail = _EventTail(event_stream_path)
    started_wall_ms = time.time_ns() // 1_000_000
    next_hw_read = time.monotonic()
    while True:
        now = time.monotonic()
        if hardware and now >= next_hw_read:
            for probe in hardware:
                batch = probe.read()
                if batch:
                    samples.extend(batch)
            next_hw_read = now + interval_ms / 1000.0
        if tail.poll() and on_tick is not None:
            on_tick(_build_log(samples, tail, interval_ms, started_wall_ms, bool(hardware)))
        if stop_condition():
            break
        time.sleep(min(interval_ms / 1000.0, _MAX_POLL_S))
    # Final read per source, then whatever the child wrote last.
    for probe in hardware:
        batch = probe.read()
        if batch:
            samples.extend(batch)
        skipped_note += probe.skipped_reads
    tail.finish()
    return _build_log(samples, tail, interval_ms, started_wall_ms, bool(hardware), skipped_note)


def _build_log(
    samples: list[PowerSample],
    tail: _EventTail,
    interval_ms: int,
    started_wall_ms: int,
    wall_clocked: bool,
    skipped_reads: int = 0,
) -> SampleLog:
    ordered = tuple(sorted(samples, key=lambda s: (s.timestamp_ms, s.source_id)))
    events = tuple(sorted(tail.events, key=lambda e: e.timestamp_ms))
    warnings: list[str] = []
    if not any(e.kind is EventKind.TRAIN_START for e in events):
        warnings.append("no TRAIN_START observed")
    else:
        # Clock-skew check: events must not precede the first sample point
        # of the run (wall start for hardware, trace start for replay).
        start = started_wall_ms if wall_clocked else (ordered[0].timestamp_ms if ordered else None)
        first_event = min(e.timestamp_ms for e in events)
        if start is not None and first_event < start:
            warnings.append("event timestamps precede sampler start (clock skew)")
    if skipped_reads:
        warnings.append(f"{skipped_reads} hardware reads skipped")
    return SampleLog(ordered, events, interval_ms, tail.violations, tuple(warnings))


def phase_window(log: SampleLog, phase: str) -> tuple[int, int]:
    """Resolve a phase selector to a [start_ms, end_ms] window.

    Selectors: ``run`` (TRAIN_START..TRAIN_END), ``setup`` (TRAIN_START..
    EPOCH_START 1), ``epoch:<k>``. ``full`` is handled by slice_phase
    directly and never reaches here.
    """
    def only(kind: EventKind, index: int | None = None) -> EpochEvent:
        for event in log.events:
            if event.kind is kind and (index is None or event.epoch_index == index):
                return event
        raise UnknownPhase(f"no {kind.value}{'' if index is None else f' {index}'} in events")

    if phase == "run":
        return only(EventKind.TRAIN_START).timestamp_ms, only(EventKind.TRAIN_END).timestamp_ms
    if phase == "setup":
        return only(EventKind.TRAIN_START).timestamp_ms, only(EventKind.EPOCH_START, 1).timestamp_ms
    if phase.startswith("epoch:"):
        try:
            k = int(phase.split(":", 1)[1])
        except ValueError as exc:
            raise UnknownPhase(f"bad phase selector {phase!r}") from exc
        return only(EventKind.EPOCH_START, k).timestamp_ms, only(EventKind.EPOCH_END, k).timestamp_ms
    raise UnknownPhase(f"unknown phase selector {phase!r}")


def _interpolate(before: PowerSample, after: PowerSample, ts: int) -> float:
    span = after.timestamp_ms - before.timestamp_ms
    frac = (ts - before.timestamp_ms) / span
    return before.watts + (after.watts - before.watts) * frac


def slice_window(log: SampleLog, start: int, end: int) -> SampleLog:
    """Restrict a log to the [start, end] millisecond window.

    The slice keeps samples inside the window and synthesizes linearly
    interpolated boundary samples where the window cuts between two real
    samples; that keeps adjacent windows exactly additive under the
    trapezoidal integrator. Boundaries outside a source's sampled span
    are clamped to the data.
    """
    if end < start:
        raise UnknownPhase(f"window end {end} before start {start}")
    sliced: list[PowerSample] = []
    for source in log.sources():
        series = log.samples_for(source)
        inside = [s for s in series if start <= s.timestamp_ms <= end]
        for boundary in (start, end):
            if any(s.timestamp_ms == boundary for s in series):
                continue  # real sample already sits on the boundary
            before = next((s for s in reversed(series) if s.timestamp_ms < boundary), None)
            after = next((s for s in series if s.timestamp_ms > boundary), None)
            if before is None or after is None:
                continue  # boundary outside sampled span: clamp
            inside.append(PowerSample(source, boundary, _interpolate(before, after, boundary)))
        sliced.extend(inside)
    events = tuple(e for e in log.events if start <= e.timestamp_ms <= end)
    return replace(
        log,
        samples=tuple(sorted(sliced, key=lambda s: (s.timestamp_ms, s.source_id))),
        events=events,
    )


def slice_phase(log: SampleLog, phase: str) -> SampleLog:
    """Restrict a log to one named phase; ``full`` is the identity."""
    if phase == "full":
        return log
    return slice_window(log, *phase_window(log, phase))
