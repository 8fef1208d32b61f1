"""Document model, raw-text parsing, gold annotations and corpus splitting.

Documents are plain text files whose optional section headers look like
``Defects: ...`` (header name followed by a colon).  Everything outside a
recognized header, including text before the first header, lands in the
``Unsectioned`` pseudo-section.  ``raw`` is a Document's one copy of its
text: a section, like a gold entity, is a ``(start, end)`` span of it.  A
Token's one offset pair is its ``raw_span`` into the text, and a Sentence
is its tokens and negation scopes: no sentence text or section name is kept.

Token, Sentence and Document, like every record rating uses, are plain
slotted classes on ``lexicon.Record``, not dataclasses: importing
dataclasses (and inspect) and generating their methods was half of the
benchmark probe's set-up, 64 ms with them and 34 ms without (CPython
3.11, 2 cores).  Each is complete once built, but for a Document's
sentences: those come only from ``pipeline.preprocess_document``, which
sets them once.  Nothing changes a record afterwards:
``correct_spelling`` returns a new Token.  They are not frozen: a frozen
record sets each field through ``object.__setattr__``, and a Token took
1.1 us to build so against 0.2-0.3 us.  Being mutable, they are unhashable.
"""

from __future__ import annotations

import re

from .errors import ConfigError, EmptyDocument, InvalidRating, InvalidSpan
from .lexicon import Record, read_rows

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


class Token(Record):
    __slots__ = ("surface", "normalized", "raw_span")  # raw_span: offsets into the raw text

    def __init__(self, surface: str, normalized: str, raw_span: tuple[int, int]):
        self.surface, self.normalized, self.raw_span = surface, normalized, raw_span


class Sentence(Record):
    """Tokens and negation scopes, each a ``(start, end)`` token range; both given when built."""

    __slots__ = ("tokens", "negation_scopes")

    def __init__(self, tokens: list[Token], negation_scopes: list[tuple[int, int]]):
        self.tokens, self.negation_scopes = tokens, negation_scopes


class Document(Record):
    """Raw text and section spans, in text order; ``preprocess_document`` sets the sentences."""

    __slots__ = ("id", "raw", "section_spans", "sentences")

    def __init__(self, id: str, raw: str, section_spans: dict[str, tuple[int, int]]):
        self.id, self.raw, self.section_spans = id, raw, section_spans
        self.sentences: list[Sentence] = []

    @property
    def sections(self) -> dict[str, str]:  # each body sliced from raw; perfbench's tests read it
        return {name: self.raw[s:e] for name, (s, e) in self.section_spans.items()}


class GoldEntity(Record):
    __slots__ = ("entity_type", "span")  # span: 0-based, end-exclusive, into the raw text

    def __init__(self, entity_type: str, span: tuple[int, int]):
        self.entity_type, self.span = entity_type, span


class GoldRecord(Record):
    __slots__ = ("document_id", "entities", "rating", "annotator_id")

    def __init__(self, document_id: str, entities: list[GoldEntity], rating: int,
                 annotator_id: str):
        self.document_id, self.entities = document_id, entities
        self.rating, self.annotator_id = rating, annotator_id


class CorpusSplit(Record):
    __slots__ = ("train", "test")

    def __init__(self, train: tuple[str, ...], test: tuple[str, ...]):
        self.train, self.test = train, test


_HEADER_RE = re.compile(
    r"^[ \t]*(%s)[ \t]*:" % "|".join(re.escape(n) for n in SECTION_NAMES),
    # ASCII case only: under full Unicode folding "ſ" matches "s" and "ı"
    # matches "i", and lower() maps neither back to a canonical name
    re.IGNORECASE | re.MULTILINE | re.ASCII,
)

_CANONICAL = {n.lower(): n for n in SECTION_NAMES}


def parse_document(raw: str, id: str) -> Document:
    """Split raw text into named sections: their body spans of raw, in text order."""
    if not raw.strip():
        raise EmptyDocument(f"document {id!r} is empty")
    first: dict[str, re.Match] = {}
    for m in _HEADER_RE.finditer(raw):  # a repeated header is plain body text
        first.setdefault(_CANONICAL[m.group(1).lower()], m)
    # a body ends where the next header starts, the last one at the end of raw
    ends = [m.start() for m in first.values()] + [len(raw)]
    spans = {UNSECTIONED: (0, ends[0])} if ends[0] else {}
    for (name, m), end in zip(first.items(), ends[1:]):
        spans[name] = (m.end(), end)
    return Document(id=id, raw=raw, section_spans=spans)


_SPAN_RE = re.compile(r"^(\w+):(\d+)-(\d+)$")


def read_gold(path) -> dict[str, GoldRecord]:
    """Each document's record in a gold file of ``doc_id <TAB> rating <TAB>
    entities <TAB> annotator_id`` lines, where entities is a comma-separated
    list of ``EntityType:start-end`` items, or ``-`` for none.  A bad field
    raises InvalidRating or InvalidSpan naming ``path:line``, and a second
    record for a document, from any annotator, raises ConfigError."""
    gold: dict[str, GoldRecord] = {}
    annotators: dict[str, list[str]] = {}
    form = "doc_id<TAB>rating<TAB>entities<TAB>annotator_id"
    for lineno, (doc_id, rating_field, entity_field, annotator) in read_rows(path, 4, form):
        try:
            rating = int(rating_field)
        except ValueError:
            raise InvalidRating(f"{path}:{lineno}: rating {rating_field!r} is not an integer")
        if rating not in (1, 2, 3, 4, 5):
            raise InvalidRating(f"{path}:{lineno}: rating {rating} outside 1..5")
        entities: list[GoldEntity] = []
        if entity_field != "-":
            for item in entity_field.split(","):
                m = _SPAN_RE.match(item.strip())
                if not m:
                    raise InvalidSpan(f"{path}:{lineno}: malformed span {item!r}")
                etype, start, end = m.group(1), int(m.group(2)), int(m.group(3))
                if etype not in ENTITY_TYPES:
                    raise InvalidSpan(f"{path}:{lineno}: unknown entity type {etype!r}")
                if end <= start:
                    raise InvalidSpan(f"{path}:{lineno}: empty span {item!r}")
                entities.append(GoldEntity(etype, (start, end)))
        annotators.setdefault(doc_id, []).append(annotator)
        gold[doc_id] = GoldRecord(doc_id, entities, rating, annotator)
    shared = [f"{d} (annotators {', '.join(a)})" for d, a in annotators.items() if len(a) > 1]
    if shared:
        raise ConfigError(f"gold file {path} has more than one record for a document,"
                          f" where train and evaluate take one: {'; '.join(shared)}")
    return gold


def format_gold(records: list[GoldRecord]) -> str:
    """The gold file format of read_gold (stable ordering as given)."""
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
    """Deterministic train/test split by seeded shuffle of the sorted ids;
    callers pass at least 2 ids and 0 < ratio < 1."""
    import random  # only train splits a corpus; rate never loads it

    ordered = sorted(ids)
    rng = random.Random(seed)
    rng.shuffle(ordered)
    n_train = int(round(len(ordered) * ratio))
    n_train = min(max(n_train, 1), len(ordered) - 1)
    return CorpusSplit(train=tuple(ordered[:n_train]), test=tuple(ordered[n_train:]))
