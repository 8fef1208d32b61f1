"""Document model, raw-text parsing, gold annotations and corpus splitting.

Documents are plain text files whose optional section headers look like
``Defects: ...`` (header name followed by a colon).  Everything outside a
recognized header, including text before the first header, lands in the
``Unsectioned`` pseudo-section.  Section bodies preserve the raw bytes so
that gold annotation character offsets stay valid.  A Token's one offset
pair is its ``raw_span`` into the document text, and a Sentence is its
tokens and negation scopes: no sentence text or section name is kept.

Token, Sentence and Document are slotted dataclasses that are not frozen.
Each is complete once built (``preprocess_document`` sets a Document's
sentences once) and nothing changes it afterwards: ``correct_spelling``
returns a new Token.  They are not frozen because a frozen dataclass sets
every field through ``object.__setattr__``; building a Token that way
took 1.1 us against 0.41 us slotted (CPython 3.11 on a shared Xeon
host), and every document builds one per token.  Being mutable with
``__eq__``, they are unhashable.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from .errors import (
    CorpusTooSmall,
    DuplicateGoldRecord,
    EmptyDocument,
    InvalidRating,
    InvalidSpan,
)

SECTION_NAMES = (
    "Pipe Characteristics",
    "Emergency Repair",
    "Smoke Testing Assessment",
    "Defects",
    "Composite Assessment",
    "Criticality Assessment",
    "Capacity",
    "Summary",
)
UNSECTIONED = "Unsectioned"

ENTITY_TYPES = (
    "Defect",
    "SizeOfDefect",
    "LocationOfDefect",
    "FrequencyOfDefects",
)


@dataclass(slots=True)
class Token:
    surface: str
    normalized: str
    raw_span: tuple[int, int]  # offsets into the raw document text


@dataclass(slots=True)
class Sentence:
    tokens: list[Token] = field(default_factory=list)
    negation_scopes: list[tuple[int, int]] = field(default_factory=list)


@dataclass(slots=True)
class Document:
    id: str
    raw: str
    sections: dict[str, str]
    section_spans: dict[str, tuple[int, int]]
    sentences: list[Sentence] = field(default_factory=list)


@dataclass(frozen=True)
class GoldEntity:
    entity_type: str
    span: tuple[int, int]  # 0-based, end-exclusive, into the raw document


@dataclass
class GoldRecord:
    document_id: str
    entities: list[GoldEntity]
    rating: int
    annotator_id: str


@dataclass(frozen=True)
class CorpusSplit:
    train: tuple[str, ...]
    test: tuple[str, ...]


_HEADER_RE = re.compile(
    r"^[ \t]*(%s)[ \t]*:" % "|".join(re.escape(n) for n in SECTION_NAMES),
    # ASCII case only: under full Unicode folding "ſ" matches "s" and "ı"
    # matches "i", and lower() maps neither back to a canonical name
    re.IGNORECASE | re.MULTILINE | re.ASCII,
)

_CANONICAL = {n.lower(): n for n in SECTION_NAMES}


def parse_document(raw: str, id: str) -> Document:
    """Split raw text into named sections, preserving body bytes."""
    if not raw.strip():
        raise EmptyDocument(f"document {id!r} is empty")
    sections: dict[str, str] = {}
    spans: dict[str, tuple[int, int]] = {}
    first: dict[str, re.Match] = {}
    for m in _HEADER_RE.finditer(raw):  # a repeated header is plain body text
        first.setdefault(_CANONICAL[m.group(1).lower()], m)
    matches = list(first.items())
    end = matches[0][1].start() if matches else len(raw)
    if end > 0:
        sections[UNSECTIONED] = raw[:end]
        spans[UNSECTIONED] = (0, end)
    for k, (name, m) in enumerate(matches):
        body_start = m.end()
        body_end = matches[k + 1][1].start() if k + 1 < len(matches) else len(raw)
        sections[name] = raw[body_start:body_end]
        spans[name] = (body_start, body_end)
    return Document(id=id, raw=raw, sections=sections, section_spans=spans)


_SPAN_RE = re.compile(r"^(\w+):(\d+)-(\d+)$")


def parse_gold(raw: str) -> list[GoldRecord]:
    """Parse the tab-separated gold annotation format.

    One record per line: ``doc_id <TAB> rating <TAB> entities <TAB>
    annotator_id`` where entities is a comma-separated list of
    ``EntityType:start-end`` items, or ``-`` when the document has none.
    """
    records: list[GoldRecord] = []
    seen: set[tuple[str, str]] = set()
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 4:
            raise InvalidSpan(f"line {lineno}: expected 4 tab-separated fields")
        doc_id, rating_field, entity_field, annotator = parts
        try:
            rating = int(rating_field)
        except ValueError:
            raise InvalidRating(f"line {lineno}: rating {rating_field!r} is not an integer")
        if rating not in (1, 2, 3, 4, 5):
            raise InvalidRating(f"line {lineno}: rating {rating} outside 1..5")
        entities: list[GoldEntity] = []
        if entity_field != "-":
            for item in entity_field.split(","):
                m = _SPAN_RE.match(item.strip())
                if not m:
                    raise InvalidSpan(f"line {lineno}: malformed span {item!r}")
                etype, start, end = m.group(1), int(m.group(2)), int(m.group(3))
                if etype not in ENTITY_TYPES:
                    raise InvalidSpan(f"line {lineno}: unknown entity type {etype!r}")
                if end <= start:
                    raise InvalidSpan(f"line {lineno}: empty span {item!r}")
                entities.append(GoldEntity(etype, (start, end)))
        key = (doc_id, annotator)
        if key in seen:
            raise DuplicateGoldRecord(f"line {lineno}: duplicate record for {key}")
        seen.add(key)
        records.append(GoldRecord(doc_id, entities, rating, annotator))
    return records


def format_gold(records: list[GoldRecord]) -> str:
    """Inverse of parse_gold (stable ordering as given)."""
    lines = []
    for r in records:
        ents = ",".join(f"{e.entity_type}:{e.span[0]}-{e.span[1]}" for e in r.entities) or "-"
        lines.append(f"{r.document_id}\t{r.rating}\t{ents}\t{r.annotator_id}")
    return "\n".join(lines) + ("\n" if lines else "")


def gold_token_types(sentences: list[Sentence], gold: list[GoldEntity]) -> list[list[str]]:
    """Per sentence, each token's gold entity type, or "O": the type of the
    first gold entity whose raw-text span overlaps the token's."""

    def token_type(tok: Token) -> str:
        s, e = tok.raw_span
        return next((g.entity_type for g in gold if s < g.span[1] and g.span[0] < e), "O")

    return [[token_type(tok) for tok in sentence.tokens] for sentence in sentences]


def split_corpus(ids: list[str], ratio: float, seed: int) -> CorpusSplit:
    """Deterministic train/test split by seeded shuffle of the sorted ids."""
    if len(ids) < 2:
        raise CorpusTooSmall(f"need at least 2 ids, got {len(ids)}")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    ordered = sorted(ids)
    rng = random.Random(seed)
    rng.shuffle(ordered)
    n_train = int(round(len(ordered) * ratio))
    n_train = min(max(n_train, 1), len(ordered) - 1)
    return CorpusSplit(train=tuple(ordered[:n_train]), test=tuple(ordered[n_train:]))
