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

Indices and timestamps are ASCII decimal digits. Lines outside this
grammar are skipped and counted as violations, as are structurally invalid
events (an EPOCH_END with no matching EPOCH_START, epoch indices that do
not run 1, 2, 3, ..., a METRIC for an epoch not yet started, anything
after TRAIN_END). The boundary events (TRAIN_* and EPOCH_*) are kept as
:class:`EpochEvent`; a METRIC line is folded into its epoch's metrics,
where the last value per name wins.

Replay probes are drained verbatim into the log, so with replay probes the
log is a pure function of (traces, event file, interval) and reruns are
identical. Hardware probes are polled once per ``interval_ms``, on a grid
fixed at the first read, so a late read does not shift later ones. Boundary
events are kept in timestamp order as they are admitted.

A log stores each source's samples as columns
(:class:`~carbonledger.energy.SourceSeries`); rows
(:attr:`SampleLog.samples`) are a view built on request. A replay probe
hands over its parsed trace as one series, shared by all its fan-out
sources; the sampler puts it into every log as it is, never copied, so
its kWh terms are computed once. The sampler appends each hardware read
straight into its source's columns, and a snapshot copies only the
columns that grew since the last one, so the kWh terms a series caches
are shared by every log that holds it. Phase windows resolve by
dictionary lookup, and :func:`slice_window` and
:func:`~carbonledger.energy.window_energy` find a window's samples by
``bisect``; no path rescans the whole log per phase.
"""

from __future__ import annotations

import math
import time
from array import array
from bisect import bisect_left, bisect_right, insort_right
from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from heapq import merge
from itertools import repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable

from .energy import SourceSeries
from .errors import UnknownPhase
from .probe import Probe, PowerSample, ProbeKind

# Poll the event file at least this often even when the sampling interval
# is long: this bounds how late an EPOCH_END, and so the epoch-1 forecast,
# is seen. The stop itself is seen at once when the pause wakes on it.
_MAX_POLL_S = 0.1
# From TRAIN_START until the first epoch has ended, the bound is this
# instead: the epoch-1 forecast is printed when that end is seen.
_FIRST_EPOCH_POLL_S = 0.02

_TIMESTAMP = attrgetter("timestamp_ms")

# Fields of each line kind, the kind itself included.
_FIELDS = {"TRAIN_START": 2, "TRAIN_END": 2, "EPOCH_START": 3, "EPOCH_END": 3, "METRIC": 5}


class EventKind(Enum):
    TRAIN_START = "TRAIN_START"
    EPOCH_START = "EPOCH_START"
    EPOCH_END = "EPOCH_END"
    METRIC = "METRIC"
    TRAIN_END = "TRAIN_END"


@dataclass(frozen=True)
class EpochEvent:
    """One admitted boundary event (TRAIN_* or EPOCH_*).

    ``epoch_index`` is 0 for TRAIN_START / TRAIN_END.
    """

    kind: EventKind
    epoch_index: int
    timestamp_ms: int


@dataclass(frozen=True)
class SampleLog:
    """Everything one monitored run produced, ordered and immutable.

    ``series`` maps each source id, in sorted order, to its samples; a
    source with no sample has no entry. ``events`` holds the boundary
    events only, ordered by timestamp (stable, so file order breaks ties).
    ``metrics`` maps each epoch to the last value of each metric name
    reported for it, and ``metric_lines`` counts the METRIC lines folded
    into it; metrics belong to epochs, not to instants, so a slice keeps
    them whole. ``violations`` counts skipped malformed or out-of-protocol
    event lines; ``warnings`` carries run level flags such as a missing
    TRAIN_START.
    """

    series: dict[str, SourceSeries]
    events: tuple[EpochEvent, ...]
    sampling_interval_ms: int
    violations: int = 0
    warnings: tuple[str, ...] = ()
    metrics: dict[int, dict[str, float]] = field(default_factory=dict)
    metric_lines: int = 0

    @property
    def samples(self) -> tuple[PowerSample, ...]:
        """Every sample as a row, ordered by (timestamp, source_id), in
        recorded order among equal pairs; built anew on each access."""
        rows = (self.samples_for(source) for source in self.series)
        return tuple(merge(*rows, key=_TIMESTAMP))

    @cached_property
    def boundaries(self) -> dict[tuple[EventKind, int], EpochEvent]:
        """``(kind, epoch)`` of every event mapped to its first occurrence
        (epoch 0 for TRAIN_START / TRAIN_END)."""
        # reversed, so the first occurrence is the one that stays
        return {(e.kind, e.epoch_index): e for e in reversed(self.events)}

    def sources(self) -> tuple[str, ...]:
        return tuple(self.series)

    def samples_for(self, source_id: str) -> tuple[PowerSample, ...]:
        series = self.series.get(source_id)
        if series is None:
            return ()
        return tuple(map(PowerSample, repeat(source_id), series.timestamps, series.watts))

    def events_of(self, kind: EventKind) -> tuple[EpochEvent, ...]:
        return tuple(e for e in self.events if e.kind is kind)

    def epochs_completed(self) -> int:
        return len(self.events_of(EventKind.EPOCH_END))


class _EventStream:
    """The one parse -> protocol check -> admit loop over event lines.

    ``events`` keeps the admitted boundary events in timestamp order,
    stream order among equal stamps (what a stable sort would give);
    ``metrics`` and ``metric_lines`` fold the admitted METRIC lines as on
    :class:`SampleLog`; ``earliest_ms`` is the earliest stamp admitted of
    any kind (inf before the first); ``violations`` counts lines that
    failed the grammar, the protocol or, in the tail, UTF-8 decoding.
    """

    def __init__(self) -> None:
        self.train_started = False
        self.train_ended = False
        self.last_started = 0
        self.open_epoch: int | None = None
        self.events: list[EpochEvent] = []
        self.metrics: dict[int, dict[str, float]] = {}
        self.metric_lines = 0
        self.earliest_ms: float = math.inf
        self.violations = 0

    @property
    def epochs_ended(self) -> int:
        return self.last_started - (self.open_epoch is not None)

    def feed(self, lines: Iterable[str]) -> None:
        """Admit each line that passes the grammar and the protocol; any
        other line counts one violation and changes nothing else."""
        events, metrics, fields, isfinite = self.events, self.metrics, _FIELDS.get, math.isfinite
        started, ended, last, open_epoch = self.train_started, self.train_ended, self.last_started, self.open_epoch
        earliest, folded = self.earliest_ms, self.metric_lines
        for line in lines:
            parts = line.split(" ")
            kind, stamp = parts[0], parts[-1]
            # isdigit alone also takes digits such as "\u00b2" that int() refuses
            if ended or fields(kind) != len(parts) or not (stamp.isascii() and stamp.isdigit()):
                self.violations += 1
                continue
            ts, index = int(stamp), parts[1]  # on a TRAIN_* line, index is the stamp
            k = int(index) if index.isascii() and index.isdigit() else -1
            # each kind decides whether the line is admitted and applies it only
            # if so (a rejected TRAIN_START sets started, which was set already)
            if kind == "METRIC":
                try:
                    value = float(parts[3])
                except ValueError:
                    value = math.nan
                admitted = 0 < k <= last and parts[2] != "" and isfinite(value)
                if admitted:
                    try:
                        metrics[k][parts[2]] = value
                    except KeyError:
                        metrics[k] = {parts[2]: value}
                    folded += 1
            elif kind == "EPOCH_START":
                admitted = open_epoch is None and k == last + 1
                if admitted:
                    open_epoch = last = k
            elif kind == "EPOCH_END":
                admitted = k == open_epoch
                if admitted:
                    open_epoch = None
            elif kind == "TRAIN_START":
                admitted, started, k = not started, True, 0
            else:
                admitted, ended, k = True, True, 0
            if not admitted:
                self.violations += 1
                continue
            if kind != "METRIC":
                event = EpochEvent(EventKind(kind), k, ts)
                if events and ts < events[-1].timestamp_ms:
                    insort_right(events, event, key=_TIMESTAMP)
                else:
                    events.append(event)
            if ts < earliest:
                earliest = ts
        self.train_started, self.train_ended, self.last_started, self.open_epoch = started, ended, last, open_epoch
        self.earliest_ms, self.metric_lines = earliest, folded


def parse_events(lines: Iterable[str]) -> tuple[tuple[EpochEvent, ...], int]:
    """Parse an event stream into its boundary events, in timestamp order,
    and the count of skipped bad lines; a bad line is never fatal."""
    stream = _EventStream()
    stream.feed(lines)
    return tuple(stream.events), stream.violations


class _EventTail(_EventStream):
    """Incrementally reads and parses new lines from the event file.

    The file is read as bytes and lines end at LF only, so a read that
    stops inside a multi-byte character leaves it whole in the trailing
    partial line. That line waits in the buffer until its LF arrives or
    :meth:`finish` takes it as complete. A complete line that is not
    UTF-8 counts as a violation.
    """

    def __init__(self, path: str | Path):
        super().__init__()
        self.path = Path(path)
        self._offset = 0
        self._buffer = b""

    def poll(self) -> bool:
        """Consume newly appended complete lines; True if one ended an epoch."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
        except FileNotFoundError:  # not written yet, or removed: no new lines
            return False
        if not chunk:
            return False
        self._offset += len(chunk)
        lines = (self._buffer + chunk).split(b"\n")
        self._buffer = lines.pop()
        ended = self.epochs_ended
        self.feed(self._decoded(lines))
        return self.epochs_ended > ended

    def finish(self) -> None:
        """Final poll, once the writer is gone: a last line needs no LF."""
        self.poll()
        if self._buffer:
            self.feed(self._decoded([self._buffer]))
            self._buffer = b""

    def _decoded(self, lines: list[bytes]) -> Iterable[str]:
        for raw in lines:
            try:
                yield raw.decode("utf-8")
            except UnicodeDecodeError:
                self.violations += 1


def run_sampler(
    probes: Iterable[Probe],
    interval_ms: int,
    event_stream_path: str | Path,
    stop_condition: Callable[[], bool],
    on_tick: Callable[[SampleLog], None] | None = None,
    wait: Callable[[float], object] | None = None,
) -> SampleLog:
    """Drive sampling until ``stop_condition`` returns True.

    Replay probes are drained in full up front; hardware probes are read
    once per interval, on a grid fixed at the first read, and a read that
    runs late skips the slots it missed rather than bursting. The event
    file is polled at least every 100 ms, so an epoch's end is seen within
    that even under a long sampling interval, and every 20 ms from
    TRAIN_START until the first epoch has ended, so the first end is seen
    within about 20 ms.
    Between polls the loop pauses with ``wait(seconds)``, ``time.sleep``
    when not given. A ``wait`` that returns as soon as ``stop_condition``
    turns true, such as the ``wait`` of the ``threading.Event`` whose
    ``is_set`` is the stop condition, ends the loop at once rather than
    after the pause.
    ``on_tick``, when given, receives a snapshot log after every poll that
    admitted an EPOCH_END (used for live forecasting). An unterminated
    last event line is parsed once ``stop_condition`` is true.
    """
    if interval_ms <= 0:
        raise ValueError("interval_ms must be positive")
    probes = list(probes)
    columns: dict[str, tuple[array, array]] = defaultdict(lambda: (array("q"), array("d")))  # timestamps, watts
    frozen: dict[str, SourceSeries] = {}
    skipped_note = 0

    hardware = []
    for probe in probes:
        if probe.descriptor.kind is ProbeKind.REPLAY:
            while (reading := probe.read()) is not None:
                for source, series in reading.series.items():
                    frozen[source] = _merged(frozen[source], series) if source in frozen else series
        else:
            hardware.append(probe)
    for source in (source for probe in hardware for source in probe.source_ids if source in frozen):
        # a hardware probe reading a replayed source id appends to a copy of its columns
        series = frozen.pop(source)
        columns[source] = (array("q", series.timestamps), array("d", series.watts))

    tail = _EventTail(event_stream_path)
    started_wall_ms = time.time_ns() // 1_000_000

    def snapshot(skipped_reads: int = 0) -> SampleLog:
        for source, (ts, ws) in columns.items():
            # columns only grow, so an unchanged length means unchanged data
            if source not in frozen or len(frozen[source].timestamps) != len(ts):
                frozen[source] = SourceSeries(array("q", ts), array("d", ws))
        warnings: list[str] = []
        if not tail.train_started:
            warnings.append("no TRAIN_START observed")
        else:
            # Clock-skew check: no admitted event, METRIC lines included, may
            # precede the first sample point of the run (wall start for
            # hardware, trace start for replay).
            start = started_wall_ms if hardware else min((s.timestamps[0] for s in frozen.values()), default=None)
            if start is not None and tail.earliest_ms < start:
                warnings.append("event timestamps precede sampler start (clock skew)")
        if skipped_reads:
            warnings.append(f"{skipped_reads} hardware reads skipped")
        series = {source: frozen[source] for source in sorted(frozen)}
        # the tail keeps folding into its dicts, so a snapshot takes copies
        metrics = {k: dict(names) for k, names in tail.metrics.items()}
        return SampleLog(
            series, tuple(tail.events), interval_ms, tail.violations, tuple(warnings), metrics, tail.metric_lines
        )

    # resolved per call, so a replaced module clock is the one that sleeps
    pause_for = wait or time.sleep
    interval_s = interval_ms / 1000.0
    first_hw_read = next_hw_read = time.monotonic()
    hw_slot = 0
    while True:
        if hardware and time.monotonic() >= next_hw_read:
            for probe in hardware:
                _record(columns, probe.read() or ())
            # Reads are due on the grid first_hw_read + k * interval: a late
            # or slow read delays no later one; the slots it missed are skipped.
            elapsed = time.monotonic() - first_hw_read
            hw_slot = max(hw_slot + 1, math.floor(elapsed / interval_s) + 1)
            next_hw_read = first_hw_read + hw_slot * interval_s
        if tail.poll() and on_tick is not None:
            on_tick(snapshot())
        if stop_condition():
            break
        first_epoch = tail.train_started and not (tail.epochs_ended or tail.train_ended)
        pause = min(interval_s, _FIRST_EPOCH_POLL_S if first_epoch else _MAX_POLL_S)
        if hardware:
            pause = min(pause, max(next_hw_read - time.monotonic(), 0.0))
        pause_for(pause)
    # Final read per source, then whatever the child wrote last.
    for probe in hardware:
        _record(columns, probe.read() or ())
        skipped_note += probe.skipped_reads
    tail.finish()
    return snapshot(skipped_note)


def _merged(first: SourceSeries, second: SourceSeries) -> SourceSeries:
    """Both series as a new one in timestamp order; equal stamps keep
    ``first``'s samples ahead, as a stable sort would."""
    rows = list(merge(zip(first.timestamps, first.watts), zip(second.timestamps, second.watts), key=itemgetter(0)))
    return SourceSeries(array("q", map(itemgetter(0), rows)), array("d", map(itemgetter(1), rows)))


def _record(columns: dict[str, tuple[array, array]], batch: Iterable[PowerSample]) -> None:
    """Append each sample to its source's columns, keeping them in
    timestamp order; equal stamps keep arrival order, as a stable sort would."""
    for sample in batch:
        ts, ws = columns[sample.source_id]
        if ts and sample.timestamp_ms < ts[-1]:
            k = bisect_right(ts, sample.timestamp_ms)
            ts.insert(k, sample.timestamp_ms)
            ws.insert(k, sample.watts)
        else:
            ts.append(sample.timestamp_ms)
            ws.append(sample.watts)


def phase_window(log: SampleLog, phase: str) -> tuple[int, int]:
    """Resolve a phase selector to a [start_ms, end_ms] window.

    Selectors: ``run`` (TRAIN_START..TRAIN_END), ``setup`` (TRAIN_START..
    EPOCH_START 1), ``epoch:<k>``. ``full`` is handled by slice_phase
    directly and never reaches here. Each boundary is the first matching
    event in the log.
    """
    boundaries = log.boundaries

    def only(kind: EventKind, index: int = 0) -> int:
        try:
            return boundaries[kind, index].timestamp_ms
        except KeyError:
            raise UnknownPhase(f"no {kind.value}{f' {index}' if index else ''} in events") from None

    if phase == "run":
        return only(EventKind.TRAIN_START), only(EventKind.TRAIN_END)
    if phase == "setup":
        return only(EventKind.TRAIN_START), only(EventKind.EPOCH_START, 1)
    if phase.startswith("epoch:"):
        try:
            k = int(phase.split(":", 1)[1])
        except ValueError as exc:
            raise UnknownPhase(f"bad phase selector {phase!r}") from exc
        return only(EventKind.EPOCH_START, k), only(EventKind.EPOCH_END, k)
    raise UnknownPhase(f"unknown phase selector {phase!r}")


def slice_window(log: SampleLog, start: int, end: int) -> SampleLog:
    """Restrict a log to the [start, end] millisecond window.

    The slice keeps samples inside the window and synthesizes linearly
    interpolated boundary samples where the window cuts between two real
    samples; that keeps adjacent windows exactly additive under the
    trapezoidal integrator. Boundaries outside a source's sampled span
    are clamped to the data, and a source with no sample in the window is
    left out. The window is found by bisecting each source's columns, and
    the slice is built from column slices.
    """
    if end < start:
        raise UnknownPhase(f"window end {end} before start {start}")
    sliced: dict[str, SourceSeries] = {}
    for source, series in log.series.items():
        lo, hi, w_start, w_end = series.window(start, end)
        ts, ws = series.timestamps[lo:hi], series.watts[lo:hi]
        if w_start is not None:
            ts.insert(0, start)
            ws.insert(0, w_start)
        if w_end is not None:
            ts.append(end)
            ws.append(w_end)
        if ts:
            sliced[source] = SourceSeries(ts, ws)
    lo = bisect_left(log.events, start, key=_TIMESTAMP)
    return replace(log, series=sliced, events=log.events[lo : bisect_right(log.events, end, lo, key=_TIMESTAMP)])


def slice_phase(log: SampleLog, phase: str) -> SampleLog:
    """Restrict a log to one named phase; ``full`` is the identity."""
    if phase == "full":
        return log
    return slice_window(log, *phase_window(log, phase))
