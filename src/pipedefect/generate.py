"""Synthetic inspection-document generator.

Documents are assembled from lexicon terms plus a fixed filler
vocabulary, with exact gold character spans recorded as text is built.
Each document's gold rating is computed by the rating engine from the
gold entities, so generator and engine agree by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .corpus import Document, GoldEntity, GoldRecord, parse_document
from .errors import LexiconRequired
from .lexicon import Lexicon
from .rating import DEFAULT_FREQUENCY_BANDS, rate_frames
from .tagger import CATEGORY_TO_TAG, TAG_TO_ENTITY_TYPE, Entity

ANNOTATOR_ID = "synthetic"

NEGATION_PROB = 0.3
EXTRA_SECTION_PROB = 0.2
SECOND_FREQUENCY_PROB = 0.25
DEFECT_COUNT_WEIGHTS = (0.15, 0.45, 0.40)  # 0 / 1 / 2
LOCATION_COUNT_WEIGHTS = (0.30, 0.40, 0.30)  # 0 / 1 / 2

# Filler words used by templates; all must be in the base spelling
# vocabulary and none may be (part of the start of) a lexicon term.
_NEUTRAL_SENTENCES = (
    "Routine inspection completed.",
    "Pipe section in normal service.",
    "Camera survey record complete.",
)
_BODY_START = "Defects: "


@dataclass
class GeneratorConfig:
    n_documents: int
    lexicon: Lexicon


class _DocBuilder:
    """Raw text, with filler appended to `text` and lexicon terms through
    `term`, and the gold entities at their absolute spans. They are rated
    as one sentence's list: no weight depends on an entity's sentence."""

    def __init__(self, lexicon: Lexicon):
        self.lexicon = lexicon
        self.text = _BODY_START
        self.entities: list[GoldEntity] = []
        self.rated: list[Entity] = []

    def term(self, term: str, negated: bool = False) -> None:
        """Append `term` with its entry's entity type and seed root,
        capitalised when it opens the Defects: body."""
        entry = self.lexicon.entries[term]
        entity_type = TAG_TO_ENTITY_TYPE[CATEGORY_TO_TAG[entry.category]]
        surface = term[0].upper() + term[1:] if self.text == _BODY_START else term
        start = len(self.text)
        self.text += surface
        self.entities.append(GoldEntity(entity_type, (start, start + len(surface))))
        # token positions are not needed for rating
        self.rated.append(Entity(entity_type, (0, 1), negated, term, entry.seed_root))


def _term_pools(lexicon: Lexicon):
    entries = lexicon.entries
    seeds = sorted(t for t, e in entries.items() if e.origin == "seed")
    defects = [t for t in seeds if entries[t].category == "Defect" and not t.startswith("no ")]
    locations = [t for t in seeds if entries[t].category == "Location"]
    frequencies = sorted(t for t in DEFAULT_FREQUENCY_BANDS
                         if t in entries and entries[t].category == "Frequency")
    # bands: the frequencies by band, in band order; a document picks a band
    # first so ratings 2..5 are evenly exercised
    by_band: dict[float, list[str]] = {}
    for term in frequencies:
        by_band.setdefault(DEFAULT_FREQUENCY_BANDS[term], []).append(term)
    return defects, locations, frequencies, [by_band[band] for band in sorted(by_band)]


def generate_synthetic_corpus(config: GeneratorConfig, seed: int
                              ) -> tuple[list[Document], list[GoldRecord]]:
    pools = _term_pools(config.lexicon)
    if not all(pools):
        raise LexiconRequired("lexicon must provide defect, location and frequency seeds")
    rng = random.Random(seed)
    docs: list[Document] = []
    golds: list[GoldRecord] = []
    for k in range(config.n_documents):
        doc_id = f"pipe{k:04d}"
        b = _build_document(config, rng, *pools)
        docs.append(parse_document(b.text, doc_id))
        rating = rate_frames(doc_id, [b.rated]).rating.value
        golds.append(GoldRecord(doc_id, b.entities, rating, ANNOTATOR_ID))
    return docs, golds


def _build_document(config, rng, defect_pool, location_pool, frequency_pool, bands) -> _DocBuilder:
    b = _DocBuilder(config.lexicon)
    n_defects = rng.choices((0, 1, 2), weights=DEFECT_COUNT_WEIGHTS)[0]
    n_locations = rng.choices((0, 1, 2), weights=LOCATION_COUNT_WEIGHTS)[0]
    defects = rng.sample(defect_pool, k=max(n_defects, 1))[:n_defects]
    locations = rng.sample(location_pool, k=n_locations)
    frequency = rng.choice(rng.choice(bands)) if rng.random() < 0.85 else None

    if frequency is not None:
        b.term(frequency)
        b.text += " "
    if n_defects == 0:
        b.text += ("surveyed with nothing further noted." if frequency is not None
                   else rng.choice(_NEUTRAL_SENTENCES))
    else:
        b.term(defects[0])
        b.text += " observed"
        if locations:
            b.text += " at "
            b.term(locations[0])
        b.text += "."
        if n_defects > 1:
            b.text += " Also "
            if rng.random() < SECOND_FREQUENCY_PROB:
                b.term(rng.choice(frequency_pool))
                b.text += " "
            b.term(defects[1])
            b.text += " noted during review."
    if len(locations) > 1:
        b.text += " Issue recorded at "
        b.term(locations[1])
        b.text += " as well."
    if rng.random() < NEGATION_PROB:
        b.text += " No "
        b.term(rng.choice(defect_pool), negated=True)
        b.text += " found."
    if rng.random() < EXTRA_SECTION_PROB:
        b.text += "\nSummary: Inspection record filed for review."
    return b
