"""Weight assignment and the 1-5 defect rating lookup.

The three weights are matched against fixed value sets and looked up in a
rating table; no arithmetic combines them.  Negated entities are excluded
from all three weights, so "no leaks" never raises a rating.  The rating
table has no row for defects observed with the lowest frequency band;
that combination maps to rating 1 and is flagged (gap_row) for auditing.

WeightTriple, DefectRating and RatingReport are built for every document,
so like the corpus records they are plain slotted classes, not frozen
(see ``corpus``).  ``rate_frames`` and ``pipeline.rate_document`` finish
a report before returning it, and nothing changes a record afterwards.
"""

from __future__ import annotations

from .errors import InvalidWeight
from .lexicon import Record
from .tagger import Entity

# Frequency band -> rating when a defect is present; the lowest band has
# no row of its own in the table and rates 1 as a gap row.
_FREQUENCY_TO_RATING = {0.1: 1, 0.25: 2, 0.50: 3, 0.75: 4, 0.99: 5}
FREQUENCY_WEIGHTS = tuple(_FREQUENCY_TO_RATING)
LOCATION_WEIGHTS = (0.9, 1.0)
DEFECT_WEIGHTS = (0.5, 0.8, 1.0)

# Frequency term -> band weight.  Terms are matched after lexicon
# normalization; unmatched terms fall back to their lexicon seed_root.
DEFAULT_FREQUENCY_BANDS = {
    "none": 0.1,
    "very rarely": 0.1,
    "rarely": 0.25,
    "seldom": 0.25,
    "moderate": 0.50,
    "moderately": 0.50,
    "moderate to frequently": 0.75,
    "frequent": 0.99,
    "frequently": 0.99,
    "very frequently": 0.99,
    "more frequently": 0.99,
    "several": 0.99,
    "often": 0.99,
    "oftenly": 0.99,
}

ACTION_TEXT = {
    1: "Reassess in ten years",
    2: "Rehabilitate or replace in six to ten years",
    3: "Rehabilitate or replace in three to five years",
    4: "Rehabilitate or replace in zero to two years",
    5: "Rehabilitate or replace immediately",
}


class WeightTriple(Record):
    __slots__ = ("frequencies", "location", "defect")

    def __init__(self, frequencies: float, location: float, defect: float):
        self.frequencies, self.location, self.defect = frequencies, location, defect
        if self.frequencies not in FREQUENCY_WEIGHTS:
            raise InvalidWeight(f"w_frequencies {self.frequencies} not in {FREQUENCY_WEIGHTS}")
        if self.location not in LOCATION_WEIGHTS:
            raise InvalidWeight(f"w_location {self.location} not in {LOCATION_WEIGHTS}")
        if self.defect not in DEFECT_WEIGHTS:
            raise InvalidWeight(f"w_defect {self.defect} not in {DEFECT_WEIGHTS}")


class DefectRating(Record):
    __slots__ = ("value", "action_text", "gap_row")

    def __init__(self, value: int, action_text: str, gap_row: bool = False):
        self.value, self.action_text, self.gap_row = value, action_text, gap_row


class RatingReport(Record):
    """Weights, rating and notes; ``pipeline.rate_document`` appends the entity dicts."""

    __slots__ = ("document_id", "weights", "rating", "entities", "notes")

    def __init__(self, document_id: str, weights: WeightTriple, rating: DefectRating,
                 notes: list[str]):
        self.document_id, self.weights, self.rating = document_id, weights, rating
        self.entities: list[dict] = []
        self.notes = notes


def band_weight(term: str | None, seed_root: str | None) -> float | None:
    """The band of a frequency term, else of its seed root; None if neither
    has one.  load_resources checks that every Frequency lexicon term has a
    band, and extract_entities names a frequency span only by a Frequency
    term, so a band-less span is a mis-tag: the Bi-LSTM can tag a span no
    Frequency lexicon entry matched."""
    weight = DEFAULT_FREQUENCY_BANDS.get(term) if term else None
    if weight is None and seed_root:
        weight = DEFAULT_FREQUENCY_BANDS.get(seed_root)
    return weight


def assign_rating(w: WeightTriple) -> DefectRating:
    """Exact table lookup over the weight triple.

    No defect unit found (w_defect 0.5) is rating 1 regardless of the
    frequency band.  Defects present but the lowest frequency band (0.1)
    has no table row: rating 1 with gap_row set.
    """
    if w.defect == 0.5:
        return DefectRating(1, ACTION_TEXT[1])
    value = _FREQUENCY_TO_RATING[w.frequencies]
    return DefectRating(value, ACTION_TEXT[value], gap_row=w.frequencies == 0.1)


def rate_frames(document_id: str, frames: list[list[Entity]]) -> RatingReport:
    """Weight triple, rating and notes from each sentence's entities, in one
    walk over their non-negated entities:

    - w_frequencies is the maximum band over frequency spans, 0.1 if none;
      a span without a band is skipped and noted;
    - w_location is 0.9 for exactly one location in the document, else 1.0;
    - w_defect is 0.5 / 0.8 / 1.0 for 0 / 1 / 2+ distinct defect lexicon
      units, told apart by seed_root so morphology (leak, leaking) counts once.
    """
    frequency = 0.1
    n_locations = 0
    roots = set()
    skipped = []
    for sent_idx, entities in enumerate(frames):
        for entity in entities:
            if entity.negated:
                continue
            if entity.entity_type == "Defect":
                roots.add(entity.seed_root or entity.matched_lexicon_term or id(entity))
            elif entity.entity_type == "LocationOfDefect":
                n_locations += 1
            elif entity.entity_type == "FrequencyOfDefects":
                weight = band_weight(entity.matched_lexicon_term, entity.seed_root)
                if weight is not None:
                    frequency = max(frequency, weight)
                    continue
                start, end = entity.token_range
                term = entity.matched_lexicon_term or entity.seed_root
                why = f"({term!r}) has no frequency band" if term else "has no lexicon entry"
                skipped.append(
                    f"frequency span at sentence {sent_idx} tokens {start}-{end} {why}; skipped"
                )
    triple = WeightTriple(
        frequencies=frequency,
        location=0.9 if n_locations == 1 else 1.0,
        defect=DEFECT_WEIGHTS[min(len(roots), 2)],
    )
    rating = assign_rating(triple)
    notes = ["negated entities excluded from all weights"]
    if rating.gap_row:
        notes.append("weight triple outside the rating table; defaulted to rating 1")
    return RatingReport(document_id, triple, rating, notes + skipped)
