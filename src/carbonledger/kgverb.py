"""Knowledge-graph verbalization pipeline for the demonstration workload.

Weighted (subject, relation, object) triples come in as TSV, the heaviest
ones are kept, each surviving triple is rendered through a per-relation
template, and the resulting sentences can be turned into masked pairs for
a masked-language-modeling style load.

Triple TSV schema: ``subject<TAB>relation<TAB>object<TAB>weight``, UTF-8,
LF; ``#`` lines are comments. Template files: ``relation<TAB>template``
where the template contains ``{s}`` and ``{o}`` exactly once each.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import MalformedRow, UnknownRelation, content_lines

SENTINEL = "<extra_id_{}>"
DEFAULT_MASK_PROBABILITY = 0.15


@dataclass(frozen=True)
class WeightedTriple:
    subject: str
    relation: str
    object: str
    weight: float

    def __post_init__(self) -> None:
        if not (self.subject and self.relation and self.object):
            raise ValueError("subject, relation and object must be non-empty")
        if not math.isfinite(self.weight):
            raise ValueError("weight must be finite")


def _template_fault(relation: str, template: str) -> str | None:
    """Why ``template`` cannot render ``relation``, or None if it can."""
    if template.count("{s}") != 1 or template.count("{o}") != 1:
        return f"template for {relation!r} must contain {{s}} and {{o}} exactly once"
    return None


@dataclass(frozen=True)
class TemplateTable:
    """relation -> sentence template; each template uses {s} and {o} once."""

    templates: dict[str, str]

    def __post_init__(self) -> None:
        for relation, template in self.templates.items():
            fault = _template_fault(relation, template)
            if fault:
                raise ValueError(fault)

    def __contains__(self, relation: str) -> bool:
        return relation in self.templates

    def __getitem__(self, relation: str) -> str:
        return self.templates[relation]


DEFAULT_TEMPLATES = TemplateTable(
    {
        "AtLocation": "You are likely to find {s} in {o}.",
        "IsA": "{s} is a {o}.",
        "UsedFor": "{s} is used for {o}.",
        "CapableOf": "{s} can {o}.",
        "Causes": "{s} causes {o}.",
        "HasSubevent": "Something that might happen while {s} is {o}.",
        "HasPrerequisite": "Something you need to do before {s} is {o}.",
        "PartOf": "{s} is part of {o}.",
        "Desires": "{s} wants {o}.",
        "MotivatedByGoal": "You would {s} because {o}.",
    }
)


def parse_triples(lines: Iterable[str], strict: bool = True) -> list[WeightedTriple]:
    """Parse TSV rows into triples, preserving input order.

    In strict mode a malformed row raises MalformedRow with its line
    number (in the path ``<lines>``); otherwise the row is skipped.
    """
    return _triples("<lines>", content_lines(lines), strict)


def load_triples(path: str | Path, strict: bool = True) -> list[WeightedTriple]:
    """``parse_triples`` over the file read through ``MalformedRow.lines``."""
    return _triples(str(path), MalformedRow.lines(path), strict)


def _triples(path: str, numbered: Iterable[tuple[int, str]], strict: bool) -> list[WeightedTriple]:
    triples: list[WeightedTriple] = []
    for line_no, line in numbered:
        parts = line.split("\t")
        try:
            if len(parts) != 4:
                raise ValueError(f"expected 4 fields, got {len(parts)}")
            triple = WeightedTriple(parts[0], parts[1], parts[2], float(parts[3]))
        except ValueError as exc:
            if strict:
                raise MalformedRow(path, line_no, str(exc)) from exc
            continue
        triples.append(triple)
    return triples


def load_templates(path: str | Path) -> TemplateTable:
    """A template file read through ``MalformedRow.lines``; each row is
    checked as it is read, so a bad one is named ``file:line: reason``."""
    templates: dict[str, str] = {}
    for line_no, line in MalformedRow.lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedRow(str(path), line_no, f"expected 2 fields, got {len(parts)}")
        fault = _template_fault(*parts)
        if fault:
            raise MalformedRow(str(path), line_no, fault)
        templates[parts[0]] = parts[1]
    return TemplateTable(templates)


def _sort_key(triple: WeightedTriple) -> tuple:
    return (-triple.weight, triple.subject, triple.relation, triple.object)


def select_top(
    triples: Iterable[WeightedTriple], n: int, scope: str = "per-subject"
) -> list[WeightedTriple]:
    """Keep the n heaviest triples, globally or per subject.

    Descending by weight, ties broken lexicographically by (subject,
    relation, object); the result is a pure function of the input *set*,
    so permuting the input never changes it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if scope == "global":
        return sorted(triples, key=_sort_key)[:n]
    if scope == "per-subject":
        by_subject: dict[str, list[WeightedTriple]] = {}
        for triple in triples:
            by_subject.setdefault(triple.subject, []).append(triple)
        selected: list[WeightedTriple] = []
        for subject in sorted(by_subject):
            selected.extend(sorted(by_subject[subject], key=_sort_key)[:n])
        return selected
    raise ValueError(f"unknown scope {scope!r}")


def verbalize(triple: WeightedTriple, templates: TemplateTable = DEFAULT_TEMPLATES) -> str:
    """Render one triple as a sentence; underscores become spaces."""
    if triple.relation not in templates:
        raise UnknownRelation(f"no template for relation {triple.relation!r}")
    subject = triple.subject.replace("_", " ")
    obj = triple.object.replace("_", " ")
    return templates[triple.relation].replace("{s}", subject).replace("{o}", obj)


def verbalize_all(
    triples: Iterable[WeightedTriple], templates: TemplateTable = DEFAULT_TEMPLATES
) -> tuple[list[str], list[WeightedTriple]]:
    """Batch verbalization; triples with unknown relations are skipped and
    returned separately."""
    sentences: list[str] = []
    skipped: list[WeightedTriple] = []
    for triple in triples:
        try:
            sentences.append(verbalize(triple, templates))
        except UnknownRelation:
            skipped.append(triple)
    return sentences, skipped


def write_corpus(sentences: Iterable[str], path: str | Path) -> None:
    """One sentence per line, UTF-8, LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sentence in sentences:
            fh.write(sentence + "\n")


@dataclass(frozen=True)
class MaskedPair:
    """A token sequence with sentinel spans plus the removed spans.

    Splicing ``labels[i]`` back in place of the i-th sentinel reconstructs
    the original sequence exactly.
    """

    masked_tokens: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]


def mask_tokens(
    tokens: list[str] | tuple[str, ...],
    probability: float = DEFAULT_MASK_PROBABILITY,
    seed: int = 0,
) -> MaskedPair:
    """Independently mask each token with the given probability.

    Consecutive masked tokens merge into a single sentinel span. The
    generator is seeded, so the same (tokens, probability, seed) always
    yields the same pair; all-masked and none-masked outcomes are valid.
    """
    if not tokens:
        raise ValueError("need at least one token")
    if not 0.0 < probability < 1.0:
        raise ValueError("probability must be in (0, 1)")
    rng = random.Random(seed)
    masked: list[str] = []
    labels: list[tuple[str, ...]] = []
    span: list[str] = []
    for token in tokens:
        if rng.random() < probability:
            span.append(token)
            continue
        if span:
            masked.append(SENTINEL.format(len(labels)))
            labels.append(tuple(span))
            span = []
        masked.append(token)
    if span:
        masked.append(SENTINEL.format(len(labels)))
        labels.append(tuple(span))
    return MaskedPair(tuple(masked), tuple(labels))


def unmask(pair: MaskedPair) -> tuple[str, ...]:
    """Splice the labels back at their sentinels."""
    out: list[str] = []
    cursor = 0
    for token in pair.masked_tokens:
        if token == SENTINEL.format(cursor):
            out.extend(pair.labels[cursor])
            cursor += 1
        else:
            out.append(token)
    return tuple(out)
