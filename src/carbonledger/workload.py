"""Deterministic demonstration workload that the tracker wraps.

Builds a sentence corpus from weighted triples (parse, keep the heaviest,
verbalize), then runs up to ``max_epochs`` passes of arithmetic over it,
emitting the epoch-event protocol to the file named by the
``CARBONLEDGER_EVENTS`` environment variable (``carbonledger.EVENTS_ENV``,
the one name the tracker sets). Training stops early when
the synthetic validation loss fails to improve for ``patience``
consecutive epochs; improvement means strictly lower than the best seen.
From the package it imports only ``kgverb`` and ``errors``, so a tracked
job loads none of the tracker's modules.

There is no model here on purpose: the tracker needs a measurable,
reproducible load, and per-epoch masking plus checksum arithmetic over
the corpus provides exactly that.

Event timestamps come from the wall clock by default. Passing
``virtual_start_ms`` switches to a virtual timeline where each epoch
takes exactly ``epoch_ms``; that is what lets replay-probe runs line up
with their traces and makes end-to-end records reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field

from . import EVENTS_ENV, kgverb
from .errors import CarbonLedgerError

DEFAULT_MAX_EPOCHS = 50
DEFAULT_PATIENCE = 3
LOSS_FLOOR = 0.1


def early_stop_index(losses: list[float], patience: int) -> int | None:
    """1-based epoch after which training stops, or None if it never does.

    Tracks the best loss so far; ``patience`` consecutive epochs without a
    strict improvement trigger the stop.
    """
    if patience < 1:
        raise ValueError("patience must be >= 1")
    best = float("inf")
    streak = 0
    for epoch, loss in enumerate(losses, start=1):
        if loss < best:
            best = loss
            streak = 0
        else:
            streak += 1
            if streak >= patience:
                return epoch
    return None


def default_loss(epoch: int) -> float:
    """Geometric decay with a floor: improves for a while, then plateaus."""
    return max(LOSS_FLOOR, 0.9**epoch)


@dataclass
class WorkloadConfig:
    triples_path: str
    templates_path: str | None = None
    top_n: int = 100
    scope: str = "per-subject"
    mask_probability: float = kgverb.DEFAULT_MASK_PROBABILITY
    seed: int = 0
    max_epochs: int = DEFAULT_MAX_EPOCHS
    patience: int = DEFAULT_PATIENCE
    losses: list[float] | None = None
    event_path: str | None = None
    corpus_out: str | None = None
    virtual_start_ms: int | None = None
    epoch_ms: int = 1000


@dataclass
class WorkloadResult:
    epochs_run: int
    stopped_early: bool
    corpus_size: int
    checksum: int
    losses: list[float] = field(default_factory=list)


class _EventWriter:
    """Appends protocol lines, flushing each so the sampler can tail."""

    def __init__(self, path: str, virtual_start_ms: int | None):
        try:
            self._fh = open(path, "a", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise OSError(f"event path not writable: {path}: {exc}") from exc
        self._virtual = virtual_start_ms

    def now_ms(self, virtual_offset_ms: int) -> int:
        if self._virtual is not None:
            return self._virtual + virtual_offset_ms
        return time.time_ns() // 1_000_000

    def write(self, line: str) -> None:
        self._fh.write(line + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _epoch_compute(sentences: list[str], epoch: int, config: WorkloadConfig) -> int:
    """Deterministic arithmetic pass over the corpus; returns a checksum."""
    checksum = 0
    for index, sentence in enumerate(sentences):
        tokens = sentence.split()
        if not tokens:
            continue
        pair = kgverb.mask_tokens(
            tokens,
            config.mask_probability,
            seed=config.seed * 1_000_003 + epoch * 10_007 + index,
        )
        checksum = (checksum + sum(len(t) for t in pair.masked_tokens) + len(pair.labels)) % (2**31)
    return checksum


def _loss_for(epoch: int, losses: list[float] | None) -> float:
    if losses is None:
        return default_loss(epoch)
    if epoch <= len(losses):
        return losses[epoch - 1]
    return losses[-1]  # schedule exhausted: hold the last value (plateau)


def build_corpus(config: WorkloadConfig) -> list[str]:
    triples = kgverb.load_triples(config.triples_path)
    templates = (
        kgverb.load_templates(config.templates_path)
        if config.templates_path
        else kgverb.DEFAULT_TEMPLATES
    )
    selected = kgverb.select_top(triples, config.top_n, config.scope)
    sentences, _skipped = kgverb.verbalize_all(selected, templates)
    return sentences


def run_workload(config: WorkloadConfig) -> WorkloadResult:
    """Build the corpus, run epochs with early stopping, emit events.

    TRAIN_START goes out before the corpus is built, so on a wall clock
    the setup phase (TRAIN_START to EPOCH_START 1) covers corpus
    construction.
    """
    event_path = config.event_path or os.environ.get(EVENTS_ENV)
    if not event_path:
        raise ValueError(f"no event path: set {EVENTS_ENV} or pass event_path")

    schedule = [_loss_for(k, config.losses) for k in range(1, config.max_epochs + 1)]
    stop_at = early_stop_index(schedule, config.patience)
    epochs_run = stop_at if stop_at is not None else config.max_epochs

    writer = _EventWriter(event_path, config.virtual_start_ms)
    checksum = 0
    try:
        writer.write(f"TRAIN_START {writer.now_ms(0)}")
        sentences = build_corpus(config)
        if config.corpus_out:
            kgverb.write_corpus(sentences, config.corpus_out)
        for epoch in range(1, epochs_run + 1):
            writer.write(f"EPOCH_START {epoch} {writer.now_ms((epoch - 1) * config.epoch_ms)}")
            checksum = (checksum + _epoch_compute(sentences, epoch, config)) % (2**31)
            end_ms = writer.now_ms(epoch * config.epoch_ms)
            writer.write(f"METRIC {epoch} val_loss {schedule[epoch - 1]} {end_ms}")
            writer.write(f"EPOCH_END {epoch} {end_ms}")
        writer.write(f"TRAIN_END {writer.now_ms(epochs_run * config.epoch_ms)}")
    finally:
        writer.close()
    return WorkloadResult(
        epochs_run, stop_at is not None, len(sentences), checksum, schedule[:epochs_run]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="carbonledger-workload",
        description="KG-verbalization demo workload emitting the epoch-event protocol",
    )
    parser.add_argument("--triples", required=True, help="weighted triple TSV file")
    parser.add_argument("--templates", default=None, help="relation template TSV (default: built-in)")
    parser.add_argument("--top-n", type=int, default=100)
    parser.add_argument("--scope", choices=("global", "per-subject"), default="per-subject")
    parser.add_argument("--mask-p", type=float, default=kgverb.DEFAULT_MASK_PROBABILITY)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-epochs", type=int, default=DEFAULT_MAX_EPOCHS)
    parser.add_argument("--patience", type=int, default=DEFAULT_PATIENCE)
    parser.add_argument("--losses", default=None, help="comma-separated loss schedule override")
    parser.add_argument("--corpus-out", default=None, help="write the verbalized corpus here")
    parser.add_argument(
        "--virtual-start-ms",
        type=int,
        default=None,
        help="emit virtual timestamps starting here instead of wall clock",
    )
    parser.add_argument("--epoch-ms", type=int, default=1000, help="virtual duration of one epoch")
    args = parser.parse_args(argv)

    losses = None
    if args.losses:
        try:
            losses = [float(x) for x in args.losses.split(",")]
        except ValueError:
            print(f"bad --losses value: {args.losses}", file=sys.stderr)
            return 2
    config = WorkloadConfig(
        triples_path=args.triples,
        templates_path=args.templates,
        top_n=args.top_n,
        scope=args.scope,
        mask_probability=args.mask_p,
        seed=args.seed,
        max_epochs=args.max_epochs,
        patience=args.patience,
        losses=losses,
        corpus_out=args.corpus_out,
        virtual_start_ms=args.virtual_start_ms,
        epoch_ms=args.epoch_ms,
    )
    try:
        result = run_workload(config)
    except (CarbonLedgerError, OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    reason = "early stop" if result.stopped_early else "max epochs"
    print(
        f"corpus {result.corpus_size} sentences; {result.epochs_run} epoch(s) ({reason}); "
        f"checksum {result.checksum}"
    )
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
