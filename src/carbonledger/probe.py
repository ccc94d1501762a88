"""Instantaneous power sources behind one uniform read interface.

Three kinds of probe exist:

* ``replay`` -- a recorded trace file played back verbatim. This is the
  backend used by all tests and any deterministic run.
* ``gpu-management-interface`` -- polls ``nvidia-smi`` for per-device
  power draw. Optional; opening it on a machine without the tool raises
  :class:`~carbonledger.errors.BackendUnavailable`.
* ``cpu-energy-counter`` -- derives watts from the RAPL cumulative energy
  counter under ``/sys/class/powercap``. Optional, same fallback story.

Trace file format: one sample per line, ``timestamp_ms,watts`` as decimal
text, UTF-8, LF line endings. Lines starting with ``#`` are comments.
Timestamps must be strictly increasing. The environment variable
``CARBONLEDGER_TRACE_DIR`` optionally roots relative trace paths.

A replay trace is parsed once, straight into a timestamp and a watts
column (a :class:`~carbonledger.energy.SourceSeries`). Its probe hands
that series over in a single read, as a :class:`Reading` that maps every
fan-out source to the same series, so no row object is built per sample.
Hardware probes return one :class:`PowerSample` per source per read.

Probe handles are single-consumer: exactly one reader at a time. They may
be handed between threads but never shared concurrently.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import time
from array import array
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable

from .energy import SourceSeries
from .errors import BackendUnavailable, TraceParseError, TransientReadFailure

TRACE_DIR_ENV = "CARBONLEDGER_TRACE_DIR"


@dataclass(frozen=True)
class PowerSample:
    """One timestamped instantaneous power reading from one source.

    Attributes:
        source_id: opaque identifier of the emitting source.
        timestamp_ms: milliseconds since epoch (trace-local for replay).
        watts: non-negative instantaneous power draw.
    """

    source_id: str
    timestamp_ms: int
    watts: float

    def __post_init__(self) -> None:
        if self.watts < 0:
            raise ValueError(f"negative watts: {self.watts}")


class ProbeKind(Enum):
    GPU = "gpu-management-interface"
    CPU = "cpu-energy-counter"
    REPLAY = "replay"


@dataclass(frozen=True)
class ProbeDescriptor:
    """What to open: backend kind, device fan-out, and the trace for replay.

    ``source_id`` is a base name; individual sources are numbered from it
    (``gpu`` with device_count=2 yields sources ``gpu0`` and ``gpu1``).
    """

    source_id: str
    kind: ProbeKind
    device_count: int = 1
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if self.device_count < 1:
            raise ValueError("device_count must be >= 1")
        if self.kind is ProbeKind.REPLAY and not self.trace_path:
            raise ValueError("replay descriptor requires a trace path")

    @property
    def source_ids(self) -> tuple[str, ...]:
        return tuple(f"{self.source_id}{i}" for i in range(self.device_count))


def parse_trace(path: str | Path) -> SourceSeries:
    """Parse a trace file into one series: a timestamp and a watts column.

    The file is read through ``TraceParseError.lines``. Raises
    TraceParseError (with line number) on bytes that are not UTF-8,
    malformed lines, negative or non-finite watts, timestamps outside the
    64-bit range, and non-increasing timestamps.
    """
    name = str(resolve_trace_path(path))
    stamps, watts_column = array("q"), array("d")
    previous = None
    for line_no, line in TraceParseError.lines(name):
        parts = line.split(",")
        if len(parts) != 2:
            raise TraceParseError(name, line_no, f"expected 2 fields, got {len(parts)}")
        try:
            ts, watts = int(parts[0]), float(parts[1])
        except ValueError as exc:
            raise TraceParseError(name, line_no, str(exc)) from exc
        if not math.isfinite(watts):
            raise TraceParseError(name, line_no, "watts must be finite")
        if watts < 0:
            raise TraceParseError(name, line_no, f"negative watts {watts}")
        if previous is not None and ts <= previous:
            raise TraceParseError(name, line_no, f"timestamp {ts} not increasing (previous {previous})")
        try:
            stamps.append(ts)
        except OverflowError:
            raise TraceParseError(name, line_no, f"timestamp {ts} outside the 64-bit range") from None
        watts_column.append(watts)
        previous = ts
    return SourceSeries(stamps, watts_column)


def resolve_trace_path(path: str | Path) -> Path:
    """Root relative trace paths at $CARBONLEDGER_TRACE_DIR when set."""
    p = Path(path)
    if not p.is_absolute():
        root = os.environ.get(TRACE_DIR_ENV)
        if root:
            return Path(root) / p
    return p


@dataclass(frozen=True)
class Reading:
    """A replay probe's whole trace, handed over in one read: each source
    id mapped to its series (one shared object for a fan-out). ``len()``
    is the sample count over all sources."""

    series: dict[str, SourceSeries]

    def __len__(self) -> int:
        return sum(map(len, self.series.values()))


class Probe:
    """Base handle. Subclasses fill in one read() step."""

    def __init__(self, descriptor: ProbeDescriptor):
        self.descriptor = descriptor
        self.source_ids = descriptor.source_ids
        self.skipped_reads = 0

    def read(self) -> Reading | list[PowerSample] | None:
        """A replay probe returns its whole trace as one Reading, then None.
        A hardware probe returns one sample per source read, and never None."""
        raise NotImplementedError


class ReplayProbe(Probe):
    """Plays a parsed trace back verbatim, all of it in the first read.

    All sources of a replay probe share the one parsed series. read()
    returns None once the trace is handed over, or at once for a trace
    without samples, and keeps returning None afterwards.
    """

    def __init__(self, descriptor: ProbeDescriptor):
        super().__init__(descriptor)
        assert descriptor.trace_path is not None
        self._series: SourceSeries | None = parse_trace(descriptor.trace_path)

    def read(self) -> Reading | None:
        series, self._series = self._series, None
        if not series:
            return None
        return Reading(dict.fromkeys(self.source_ids, series))


class HardwareProbe(Probe):
    """Wraps a per-device reader callable behind the probe interface.

    The reader maps a device index to instantaneous watts and may raise
    TransientReadFailure. A failed read, and a reading that is negative,
    NaN or infinite, is skipped and counted in ``skipped_reads``.
    Timestamps come from the wall clock and are bumped by 1 ms if two
    reads land in the same millisecond, so one source never emits
    non-increasing timestamps.
    """

    def __init__(self, descriptor: ProbeDescriptor, reader: Callable[[int], float]):
        super().__init__(descriptor)
        self._reader = reader
        self._last_ts: dict[str, int] = {}

    def read(self) -> list[PowerSample] | None:
        samples: list[PowerSample] = []
        for index, sid in enumerate(self.source_ids):
            try:
                watts = self._reader(index)
            except TransientReadFailure:
                watts = math.nan  # skipped below, as a reading out of range is
            if not 0 <= watts < math.inf:
                self.skipped_reads += 1
                continue
            ts = time.time_ns() // 1_000_000
            last = self._last_ts.get(sid)
            if last is not None and ts <= last:
                ts = last + 1
            self._last_ts[sid] = ts
            samples.append(PowerSample(sid, ts, watts))
        return samples


def _nvidia_smi_reader() -> Callable[[int], float]:
    binary = shutil.which("nvidia-smi")
    if binary is None:
        raise BackendUnavailable("nvidia-smi not found; use a replay probe instead")

    def read(index: int) -> float:
        command = [binary, f"--id={index}", "--query-gpu=power.draw", "--format=csv,noheader,nounits"]
        try:
            result = subprocess.run(command, capture_output=True, text=True, timeout=3.0)
        except (subprocess.SubprocessError, OSError) as exc:  # a hung or vanished nvidia-smi
            raise TransientReadFailure(f"nvidia-smi read failed for device {index}: {exc}") from exc
        if result.returncode != 0 or not result.stdout.strip():
            raise TransientReadFailure(f"nvidia-smi read failed for device {index}")
        try:
            return float(result.stdout.strip().splitlines()[0])
        except ValueError as exc:
            raise TransientReadFailure(str(exc)) from exc

    return read


class _RaplReader:
    """Watts from consecutive RAPL energy_uj deltas. The first reading is
    taken at open, so a counter that cannot be read is BackendUnavailable."""

    def __init__(self, zone: Path):
        self._energy_file = zone / "energy_uj"
        try:
            self._last = (int(self._energy_file.read_text().strip()), time.time_ns())  # (energy_uj, t_ns)
        except (OSError, ValueError) as exc:
            raise BackendUnavailable(f"RAPL energy counter unreadable: {exc}") from exc

    def __call__(self, index: int) -> float:
        try:
            energy = int(self._energy_file.read_text().strip())
        except (OSError, ValueError) as exc:
            raise TransientReadFailure(str(exc)) from exc
        now = time.time_ns()
        last, self._last = self._last, (energy, now)
        d_energy, d_t = energy - last[0], now - last[1]
        if d_energy < 0 or d_t <= 0:
            raise TransientReadFailure("counter wrapped or clock stalled")
        return (d_energy / 1e6) / (d_t / 1e9)


def _rapl_reader() -> Callable[[int], float]:
    zone = Path("/sys/class/powercap/intel-rapl:0")
    if not (zone / "energy_uj").exists():
        raise BackendUnavailable("RAPL energy counter not present; use a replay probe instead")
    return _RaplReader(zone)


def open_probe(descriptor: ProbeDescriptor, reader: Callable[[int], float] | None = None) -> Probe:
    """Open a probe for the descriptor.

    ``reader`` overrides the default hardware backend (used by tests to
    inject stub readers); it is ignored for replay descriptors.

    Raises BackendUnavailable when the hardware backend is missing and
    TraceParseError for unreadable or malformed traces.
    """
    if descriptor.kind is ProbeKind.REPLAY:
        return ReplayProbe(descriptor)
    if reader is None:
        reader = _nvidia_smi_reader() if descriptor.kind is ProbeKind.GPU else _rapl_reader()
    return HardwareProbe(descriptor, reader)
