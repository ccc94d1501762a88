"""Exception hierarchy shared across the package, and the one reader of
line files: trace, registry, config, triples and templates are each read
through ``FileLineError.lines``, so a bad line is always ``file:line: reason``.

Every error a caller is expected to branch on gets its own class; plain
ValueError is reserved for bad in-memory arguments (negative watts,
non-positive run parameters, probabilities outside (0, 1)).
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, Iterator


class CarbonLedgerError(Exception):
    """Base class for all package-specific failures."""


class UsageError(CarbonLedgerError, ValueError):
    """A command line, config file or setting that cannot be acted on; the CLI exits 2."""


class BackendUnavailable(CarbonLedgerError):
    """A hardware power backend is missing; callers may fall back to replay."""


class FileLineError(CarbonLedgerError):
    """A line of an input file is unusable; says which file, line and why."""

    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason

    @classmethod
    def lines(cls, path: str | Path) -> Iterator[tuple[int, str]]:
        """The content lines of the file at ``path``, as ``content_lines``
        streams them. Bytes that are not UTF-8 raise this class at the call,
        naming their line: the file is decoded here, once, split on LF only."""
        data = Path(path).read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise cls(str(path), data.count(b"\n", 0, exc.start) + 1, "not UTF-8") from None
        return content_lines(io.StringIO(text, newline="\n"))


def content_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """``(line_no, text)`` per content line: numbered from 1, the trailing
    LF dropped, lines that are empty or start with ``#`` skipped."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if line and not line.startswith("#"):
            yield line_no, line


class TraceParseError(FileLineError):
    """A replay trace file has a malformed or out-of-order line."""


class ConfigParseError(FileLineError, UsageError):
    """A run config line is not ``key = value`` or names an unknown key."""


class TransientReadFailure(CarbonLedgerError):
    """One hardware read failed; the sample is skipped and counted."""


class UnknownPhase(CarbonLedgerError):
    """Requested phase has no boundaries in the event stream."""


class InsufficientSamples(CarbonLedgerError):
    """Too few samples to compute a time-weighted average."""


class RegistryParseError(FileLineError):
    """An intensity registry row is malformed."""


class DuplicateRegion(RegistryParseError):
    """The same region code appears twice in one intensity registry file."""


class NoCompletedEpochs(CarbonLedgerError):
    """Forecasting requires at least one completed epoch."""


class EpochIndexRegression(CarbonLedgerError):
    """A refinement was handed an epoch that is not the next one."""


class LedgerParseError(FileLineError):
    """A ledger line is torn, not UTF-8 or not JSON, or breaks the one record rule."""


class InconsistentRecord(CarbonLedgerError):
    """append_record refused a record that breaks the one record rule."""


class EmptySelection(CarbonLedgerError):
    """A report or comparison was requested over zero records."""


class UnknownBaseline(CarbonLedgerError):
    """compare() was given a baseline id that matches no record."""


class MalformedRow(FileLineError):
    """A triple or template TSV row is malformed (triples: strict mode only)."""


class UnknownRelation(CarbonLedgerError):
    """A triple's relation has no verbalization template."""
