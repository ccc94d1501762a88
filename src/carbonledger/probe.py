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

Probe handles are single-consumer: exactly one reader at a time. They may
be handed between threads but never shared concurrently.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable

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


def parse_trace(path: str | Path) -> list[tuple[int, float]]:
    """Parse a trace file into (timestamp_ms, watts) pairs.

    Raises TraceParseError (with line number) on malformed lines, negative
    watts, or non-increasing timestamps.
    """
    resolved = resolve_trace_path(path)
    pairs: list[tuple[int, float]] = []
    with open(resolved, "r", encoding="utf-8", newline="\n") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise TraceParseError(str(resolved), line_no, f"expected 2 fields, got {len(parts)}")
            try:
                ts = int(parts[0])
                watts = float(parts[1])
            except ValueError as exc:
                raise TraceParseError(str(resolved), line_no, str(exc)) from exc
            if watts != watts or watts in (float("inf"), float("-inf")):
                raise TraceParseError(str(resolved), line_no, "watts must be finite")
            if watts < 0:
                raise TraceParseError(str(resolved), line_no, f"negative watts {watts}")
            if pairs and ts <= pairs[-1][0]:
                raise TraceParseError(
                    str(resolved), line_no, f"timestamp {ts} not increasing (previous {pairs[-1][0]})"
                )
            pairs.append((ts, watts))
    return pairs


def resolve_trace_path(path: str | Path) -> Path:
    """Root relative trace paths at $CARBONLEDGER_TRACE_DIR when set."""
    p = Path(path)
    if not p.is_absolute():
        root = os.environ.get(TRACE_DIR_ENV)
        if root:
            return Path(root) / p
    return p


class Probe:
    """Base handle. Subclasses fill in one read() step."""

    def __init__(self, descriptor: ProbeDescriptor):
        self.descriptor = descriptor
        self.source_ids = descriptor.source_ids
        self.skipped_reads = 0

    def read(self) -> list[PowerSample] | None:
        """Return one sample per source, or None at end of trace."""
        raise NotImplementedError


class ReplayProbe(Probe):
    """Plays a parsed trace back verbatim, one entry per source per read.

    All sources of a replay probe share the same trace, so they exhaust
    together; read() returns None once the trace is consumed and keeps
    returning None afterwards.
    """

    def __init__(self, descriptor: ProbeDescriptor):
        super().__init__(descriptor)
        assert descriptor.trace_path is not None
        self._entries = parse_trace(descriptor.trace_path)
        self._cursor = 0

    def read(self) -> list[PowerSample] | None:
        if self._cursor >= len(self._entries):
            return None
        ts, watts = self._entries[self._cursor]
        self._cursor += 1
        return [PowerSample(sid, ts, watts) for sid in self.source_ids]


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
        result = subprocess.run(
            [binary, f"--id={index}", "--query-gpu=power.draw", "--format=csv,noheader,nounits"],
            capture_output=True,
            text=True,
            timeout=3.0,
        )
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
