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
from .tagger import Entity

ANNOTATOR_ID = "synthetic"

NEGATION_PROB = 0.3
EXTRA_SECTION_PROB = 0.2
SECOND_FREQUENCY_PROB = 0.25
DEFECT_COUNT_WEIGHTS = (0.15, 0.45, 0.40)  # 0 / 1 / 2
LOCATION_CASE_WEIGHTS = (0.30, 0.40, 0.30)  # none / one / multiple

# Filler words used by templates; all must be in the base spelling
# vocabulary and none may be (part of the start of) a lexicon term.
_NEUTRAL_SENTENCES = (
    "Routine inspection completed.",
    "Pipe section in normal service.",
    "Camera survey record complete.",
)


@dataclass
class GeneratorConfig:
    n_documents: int
    lexicon: Lexicon


class _DocBuilder:
    """Accumulates raw text while tracking absolute entity spans.

    The whole document's entities are rated as one sentence's list: no
    weight depends on which sentence holds an entity.
    """

    def __init__(self):
        self.text = ""
        self.entities: list[GoldEntity] = []
        self.rated: list[Entity] = []

    def add(self, piece: str) -> None:
        self.text += piece

    def add_entity(
        self, term: str, entity_type: str, negated: bool, seed_root: str,
        capitalize: bool = False,
    ) -> None:
        surface = term[0].upper() + term[1:] if capitalize else term
        start = len(self.text)
        self.text += surface
        self.entities.append(GoldEntity(entity_type, (start, start + len(surface))))
        self.rated.append(
            Entity(
                entity_type=entity_type,
                token_range=(0, 1),  # token positions are not needed for rating
                negated=negated,
                matched_lexicon_term=term,
                seed_root=seed_root,
            )
        )


def _term_pools(config: GeneratorConfig):
    lex = config.lexicon
    defects = sorted(
        t for t, e in lex.entries.items()
        if e.category == "Defect" and e.origin == "seed" and not t.startswith("no ")
    )
    locations = sorted(
        t for t, e in lex.entries.items() if e.category == "Location" and e.origin == "seed"
    )
    frequencies = sorted(
        t for t in DEFAULT_FREQUENCY_BANDS
        if t in lex.entries and lex.entries[t].category == "Frequency"
    )
    return defects, locations, frequencies


def generate_synthetic_corpus(
    config: GeneratorConfig, seed: int
) -> tuple[list[Document], list[GoldRecord]]:
    if len(config.lexicon) == 0:
        raise LexiconRequired("generator needs a non-empty lexicon")
    defect_pool, location_pool, frequency_pool = _term_pools(config)
    if not (defect_pool and location_pool and frequency_pool):
        raise LexiconRequired("lexicon must provide defect, location and frequency seeds")
    rng = random.Random(seed)
    docs: list[Document] = []
    golds: list[GoldRecord] = []
    for k in range(config.n_documents):
        doc_id = f"pipe{k:04d}"
        builder = _build_document(config, rng, defect_pool, location_pool, frequency_pool)
        doc = parse_document(builder.text, doc_id)
        report = rate_frames(doc_id, [builder.rated])
        golds.append(
            GoldRecord(
                document_id=doc_id,
                entities=builder.entities,
                rating=report.rating.value,
                annotator_id=ANNOTATOR_ID,
            )
        )
        docs.append(doc)
    return docs, golds


def _build_document(config, rng, defect_pool, location_pool, frequency_pool) -> _DocBuilder:
    b = _DocBuilder()
    b.add("Defects:")
    n_defects = rng.choices((0, 1, 2), weights=DEFECT_COUNT_WEIGHTS)[0]
    loc_case = rng.choices(("none", "one", "multiple"), weights=LOCATION_CASE_WEIGHTS)[0]
    defects = rng.sample(defect_pool, k=max(n_defects, 1))[:n_defects]
    n_locations = {"none": 0, "one": 1, "multiple": 2}[loc_case]
    locations = rng.sample(location_pool, k=n_locations)
    # pick a band first so ratings 2..5 are evenly exercised
    by_band: dict[float, list[str]] = {}
    for term in frequency_pool:
        by_band.setdefault(DEFAULT_FREQUENCY_BANDS[term], []).append(term)
    frequency = None
    if rng.random() < 0.85:
        band = rng.choice(sorted(by_band))
        frequency = rng.choice(by_band[band])

    lex = config.lexicon

    def root(term):
        return lex.entries[term].seed_root

    if n_defects == 0:
        b.add(" ")
        if frequency is not None:
            b.add_entity(frequency, "FrequencyOfDefects", False, root(frequency),
                         capitalize=True)
            b.add(" surveyed with nothing further noted.")
        else:
            b.add(rng.choice(_NEUTRAL_SENTENCES))
    else:
        b.add(" ")
        if frequency is not None:
            b.add_entity(frequency, "FrequencyOfDefects", False, root(frequency),
                         capitalize=True)
            b.add(" ")
            b.add_entity(defects[0], "Defect", False, root(defects[0]))
        else:
            b.add_entity(defects[0], "Defect", False, root(defects[0]), capitalize=True)
        b.add(" observed")
        if locations:
            b.add(" at ")
            b.add_entity(locations[0], "LocationOfDefect", False, root(locations[0]))
        b.add(".")
        if n_defects > 1:
            b.add(" ")
            b.add("Also ")
            second_freq = (
                rng.choice(frequency_pool)
                if rng.random() < SECOND_FREQUENCY_PROB
                else None
            )
            if second_freq is not None:
                b.add_entity(second_freq, "FrequencyOfDefects", False, root(second_freq))
                b.add(" ")
            b.add_entity(defects[1], "Defect", False, root(defects[1]))
            b.add(" noted during review.")
    if len(locations) > 1:
        b.add(" ")
        b.add("Issue recorded at ")
        b.add_entity(locations[1], "LocationOfDefect", False, root(locations[1]))
        b.add(" as well.")
    if rng.random() < NEGATION_PROB:
        negated = rng.choice(defect_pool)
        b.add(" ")
        b.add("No ")
        b.add_entity(negated, "Defect", True, root(negated))
        b.add(" found.")
    if rng.random() < EXTRA_SECTION_PROB:
        b.add("\nSummary: Inspection record filed for review.")
    return b
