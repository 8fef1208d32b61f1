"""Weight assignment and the 1-5 defect rating lookup.

The three weights are matched against fixed value sets and looked up in a
rating table; no arithmetic combines them.  Negated entities are excluded
from all three weights, so "no leaks" never raises a rating.  The rating
table has no row for defects observed with the lowest frequency band;
that combination maps to rating 1 and is flagged (gap_row) for auditing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidWeight
from .tagger import Entity, EntityFrame

FREQUENCY_WEIGHTS = (0.1, 0.25, 0.50, 0.75, 0.99)
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

_FREQUENCY_TO_RATING = {0.25: 2, 0.50: 3, 0.75: 4, 0.99: 5}


@dataclass(frozen=True)
class WeightTriple:
    frequencies: float
    location: float
    defect: float

    def __post_init__(self):
        if self.frequencies not in FREQUENCY_WEIGHTS:
            raise InvalidWeight(f"w_frequencies {self.frequencies} not in {FREQUENCY_WEIGHTS}")
        if self.location not in LOCATION_WEIGHTS:
            raise InvalidWeight(f"w_location {self.location} not in {LOCATION_WEIGHTS}")
        if self.defect not in DEFECT_WEIGHTS:
            raise InvalidWeight(f"w_defect {self.defect} not in {DEFECT_WEIGHTS}")


@dataclass(frozen=True)
class DefectRating:
    value: int
    action_text: str
    gap_row: bool = False


@dataclass
class RatingReport:
    document_id: str
    weights: WeightTriple
    rating: DefectRating
    entities: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _active(entities: list[Entity]) -> list[Entity]:
    return [e for e in entities if not e.negated]


def weight_location(frames: list[EntityFrame]) -> float:
    """Exactly one non-negated location in the document -> 0.9, else 1.0."""
    count = sum(len(_active(f.locations)) for f in frames)
    return 0.9 if count == 1 else 1.0


def band_weight(term: str | None, seed_root: str | None, bands: dict[str, float]) -> float | None:
    """The band of a frequency term, else of its seed root; None if neither has one."""
    weight = bands.get(term) if term else None
    if weight is None and seed_root:
        weight = bands.get(seed_root)
    return weight


def _band(entity: Entity, bands: dict[str, float]) -> float | None:
    """The band of a frequency span, None if it has none: the Bi-LSTM can
    tag a span no lexicon entry matched, or one that matched a Defect or
    Location entry.  load_resources has already checked that every
    Frequency lexicon term has a band, so a band-less span is a mis-tag."""
    return band_weight(entity.matched_lexicon_term, entity.seed_root, bands)


def weight_frequency(
    frames: list[EntityFrame],
    bands: dict[str, float] = DEFAULT_FREQUENCY_BANDS,
) -> float:
    """Maximum band over non-negated frequency terms; none present -> 0.1.

    Spans without a band are skipped (rate_frames notes each).
    """
    best = 0.1
    for frame in frames:
        for entity in _active(frame.frequencies):
            weight = _band(entity, bands)
            if weight is not None:
                best = max(best, weight)
    return best


def weight_defect(frames: list[EntityFrame]) -> float:
    """0 / 1 / 2+ distinct non-negated defect lexicon units -> 0.5 / 0.8 / 1.0.

    Distinctness is by seed_root so morphology (leak, leaking) counts once.
    """
    roots = set()
    for frame in frames:
        for entity in _active(frame.defects):
            roots.add(entity.seed_root or entity.matched_lexicon_term or id(entity))
    if not roots:
        return 0.5
    return 0.8 if len(roots) == 1 else 1.0


def assign_rating(w: WeightTriple) -> DefectRating:
    """Exact table lookup over the weight triple.

    No defect unit found (w_defect 0.5) is rating 1 regardless of the
    frequency band.  Defects present but the lowest frequency band (0.1)
    has no table row: rating 1 with gap_row set.
    """
    if w.defect == 0.5:
        return DefectRating(1, ACTION_TEXT[1])
    if w.frequencies == 0.1:
        return DefectRating(1, ACTION_TEXT[1], gap_row=True)
    value = _FREQUENCY_TO_RATING[w.frequencies]
    return DefectRating(value, ACTION_TEXT[value])


def rate_frames(
    document_id: str,
    frames: list[EntityFrame],
    bands: dict[str, float] = DEFAULT_FREQUENCY_BANDS,
) -> RatingReport:
    """Weight triple + rating from per-sentence entity frames."""
    triple = WeightTriple(
        frequencies=weight_frequency(frames, bands),
        location=weight_location(frames),
        defect=weight_defect(frames),
    )
    rating = assign_rating(triple)
    report = RatingReport(document_id=document_id, weights=triple, rating=rating)
    report.notes.append("negated entities excluded from all weights")
    if rating.gap_row:
        report.notes.append("weight triple outside the rating table; defaulted to rating 1")
    for sent_idx, frame in enumerate(frames):
        for entity in _active(frame.frequencies):
            if _band(entity, bands) is not None:
                continue
            start, end = entity.token_range
            term = entity.matched_lexicon_term or entity.seed_root
            why = f"({term!r}) has no frequency band" if term else "has no lexicon entry"
            report.notes.append(
                f"frequency span at sentence {sent_idx} tokens {start}-{end} {why}; skipped"
            )
    return report
