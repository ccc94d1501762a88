"""Exception hierarchy shared across the package.

Every error a caller is expected to branch on gets its own class; plain
ValueError is reserved for bad in-memory arguments (negative watts,
non-positive run parameters, probabilities outside (0, 1)).
"""

from __future__ import annotations


class CarbonLedgerError(Exception):
    """Base class for all package-specific failures."""


class BackendUnavailable(CarbonLedgerError):
    """A hardware power backend is missing; callers may fall back to replay."""


class FileLineError(CarbonLedgerError):
    """A line of an input file is unusable; says which file, line and why."""

    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class TraceParseError(FileLineError):
    """A replay trace file has a malformed or out-of-order line."""


class TransientReadFailure(CarbonLedgerError):
    """One hardware read failed; the sample is skipped and counted."""


class UnknownPhase(CarbonLedgerError):
    """Requested phase has no boundaries in the event stream."""


class InsufficientSamples(CarbonLedgerError):
    """Too few samples to compute a time-weighted average."""


class DuplicateRegion(CarbonLedgerError):
    """The same region code appears twice in one intensity registry file."""


class RegistryParseError(FileLineError):
    """An intensity registry row is malformed."""


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


class MalformedRow(CarbonLedgerError):
    """A triple TSV row is malformed (strict mode)."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class UnknownRelation(CarbonLedgerError):
    """A triple's relation has no verbalization template."""
