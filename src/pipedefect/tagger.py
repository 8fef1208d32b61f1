"""Token tagging (dictionary and Bi-LSTM paths) and entity assembly.

The tag scheme is IO with four indices: O plus one tag per keyword entity
category.  Numeric size/distance mentions ("10 feet") are not taggable in
this scheme; a pattern table turns number+unit token pairs into
SizeOfDefect or distance-style LocationOfDefect entities instead.

A sentence's entities are one list in token order.  Entities are built
for every sentence, so like the corpus records they are plain slotted
classes, not frozen (see ``corpus``): ``extract_entities`` builds a
sentence's list and nothing changes it or its entities afterwards.
"""

from __future__ import annotations

from enum import IntEnum

from .corpus import Sentence, gold_token_types
from .errors import LexiconFormatError
from .lexicon import NUMBER_RE, Lexicon, Record, check_term, read_rows


class Tag(IntEnum):
    O = 0
    DEFECT = 1
    LOCATION = 2
    FREQUENCY = 3


CATEGORY_TO_TAG = {"Defect": Tag.DEFECT, "Location": Tag.LOCATION, "Frequency": Tag.FREQUENCY}

TAG_TO_ENTITY_TYPE = {
    Tag.DEFECT: "Defect",
    Tag.LOCATION: "LocationOfDefect",
    Tag.FREQUENCY: "FrequencyOfDefects",
}


class Entity(Record):
    __slots__ = ("entity_type", "token_range", "negated", "matched_lexicon_term", "seed_root")

    def __init__(self, entity_type: str, token_range: tuple[int, int], negated: bool,
                 matched_lexicon_term: str | None = None, seed_root: str | None = None):
        # token_range: end-exclusive token indices
        self.entity_type, self.token_range, self.negated = entity_type, token_range, negated
        self.matched_lexicon_term, self.seed_root = matched_lexicon_term, seed_root


class PatternTable(Record):
    """Unit vocabularies for number+unit entity patterns."""

    __slots__ = ("size_units", "distance_units")

    def __init__(self, size_units: frozenset[str], distance_units: frozenset[str]):
        self.size_units, self.distance_units = size_units, distance_units

    @classmethod
    def load(cls, path) -> "PatternTable":
        kinds: dict[str, set[str]] = {"size": set(), "distance": set()}
        form = "size|distance<TAB>units"
        for lineno, (kind, units) in read_rows(path, 2, form):
            if kind not in kinds:
                raise LexiconFormatError(f"{path}:{lineno}: expected '{form}'")
            kinds[kind].update(
                check_term(path, lineno, u.strip().lower(), "unit") for u in units.split(",")
            )
        return cls(frozenset(kinds["size"]), frozenset(kinds["distance"]))


def dictionary_tag(sentence: Sentence, lexicon: Lexicon) -> list[Tag]:
    tags = [Tag.O] * len(sentence.tokens)
    words = [t.normalized for t in sentence.tokens]
    for (start, end), entry in lexicon.lookup(words):
        for i in range(start, end):
            tags[i] = CATEGORY_TO_TAG[entry.category]
    return tags


# Most real tokens in one forward pass.  The pass's memory grows with
# them, about 20 KB a token at the default dimensions, so a long document
# is tagged in several passes.
MAX_BATCH_TOKENS = 256


def predict_document_tags(
    sentences: list[Sentence], lexicon: Lexicon, model: TaggerModel
) -> list[list[Tag]]:
    """Tags for every sentence of a document: argmax over each token's
    logits, ties to the lowest index.  The sentences' tokens run as one
    packed stream, cut into several passes before a sentence that would
    take a pass past MAX_BATCH_TOKENS; preprocess_section cuts any longer
    one (given here, it runs alone).  An empty sentence rides along: []."""
    from .network import batch_logits  # loads numpy, which the dictionary tagger never needs

    tags: list[list[Tag]] = []
    ids: list[int] = []
    feats: list[int] = []
    lengths: list[int] = []
    for k, s in enumerate(sentences):
        ids += [model.token_index(t.normalized) for t in s.tokens]
        feats += dictionary_tag(s, lexicon)
        lengths.append(len(s.tokens))
        if k + 1 == len(sentences) or len(ids) + len(sentences[k + 1].tokens) > MAX_BATCH_TOKENS:
            best = iter(batch_logits(ids, feats, lengths, model).argmax(axis=1).tolist())
            tags += [[Tag(next(best)) for _ in range(n)] for n in lengths]
            ids, feats, lengths = [], [], []
    return tags


def predict_tags(sentence: Sentence, lexicon: Lexicon, model: TaggerModel) -> list[Tag]:
    """predict_document_tags of a one-sentence document."""
    return predict_document_tags([sentence], lexicon, model)[0]


def extract_entities(
    sentence: Sentence,
    tags: list[Tag],
    patterns: PatternTable,
    lexicon: Lexicon,
) -> list[Entity]:
    """A sentence's entities in token order, in one pass: maximal same-tag
    runs, each split at its lexicon hits, and number+unit pattern matches.

    Only lexicon terms of the run's own category count as its hits.  A run
    that is one whole such term is one entity.  Otherwise it splits before
    each such ``lexicon.lookup`` hit after the first, and each piece takes
    its hit's term and root; other tokens, a term of another category
    among them, stay with the piece before them, or with the first piece
    when they lead the run.  A run with no hit is one entity with no term.
    Pattern matches only claim tokens tagged O so the two sources never
    overlap.  An entity with a token in a negation scope is negated.
    """
    words = [t.normalized for t in sentence.tokens]
    n = len(tags)
    negated = [False] * n
    for start, end in sentence.negation_scopes:
        negated[start:end] = [True] * (end - start)
    entities: list[Entity] = []
    i = 0
    while i < n:
        tag = tags[i]
        if tag:
            j = i + 1
            while j < n and tags[j] == tag:
                j += 1
            whole = lexicon.entries.get(" ".join(words[i:j]))
            if whole and CATEGORY_TO_TAG[whole.category] == tag:
                hits = [((0, j - i), whole)]
            else:
                hits = [(span, entry) for span, entry in lexicon.lookup(words[i:j])
                        if CATEGORY_TO_TAG[entry.category] == tag]
            cuts = [i] + [i + start for (start, _), _ in hits[1:]] + [j]
            for k, (_, entry) in enumerate(hits or [(None, None)]):
                term, root = (entry.term, entry.seed_root) if entry else (None, None)
                entities.append(Entity(TAG_TO_ENTITY_TYPE[tag], (cuts[k], cuts[k + 1]),
                                       any(negated[cuts[k] : cuts[k + 1]]), term, root))
            i = j
            continue
        # \d is any Unicode decimal digit, which is what str.isdecimal tests
        if (i + 1 < n and not tags[i + 1]
                and words[i][:1].isdecimal() and NUMBER_RE.match(words[i])):
            unit = words[i + 1].rstrip(".")
            etype = ("LocationOfDefect" if unit in patterns.distance_units
                     else "SizeOfDefect" if unit in patterns.size_units else None)
            if etype:
                entities.append(Entity(etype, (i, i + 2), negated[i] or negated[i + 1]))
        i += 1
    return entities


def entity_text(sentence: Sentence, entity: Entity) -> str:
    return " ".join(t.normalized for t in sentence.tokens[slice(*entity.token_range)])


def entity_span(sentence: Sentence, entity: Entity) -> tuple[int, int]:
    """The entity's span of the raw document text."""
    start, end = entity.token_range
    return sentence.tokens[start].raw_span[0], sentence.tokens[end - 1].raw_span[1]


# SizeOfDefect has no tag in the IO scheme; sizes are pattern-matched.
_ENTITY_TYPE_TO_TAG = {"O": Tag.O, "SizeOfDefect": Tag.O,
                       **{etype: tag for tag, etype in TAG_TO_ENTITY_TYPE.items()}}


def tags_from_gold_spans(sentences, gold_entities) -> list[list[Tag]]:
    """Gold tag sequences for preprocessed sentences, from raw-text spans."""
    return [
        [_ENTITY_TYPE_TO_TAG[t] for t in types]
        for types in gold_token_types(sentences, gold_entities)
    ]
