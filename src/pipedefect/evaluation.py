"""Classifier metrics, Cohen's kappa, and report emission.

Metric values are plain fractions; 0/0 cases are reported as None
(undefined) rather than coerced to zero, and undefined values are skipped
when averaging.  Precision and specificity use the standard confusion
definitions (precision = tp/(tp+fp), specificity = tn/(tn+fp)).
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import asdict, astuple, dataclass
from itertools import chain

from .corpus import Document, GoldEntity, GoldRecord, gold_token_types
from .errors import AlignmentError
from .tagger import Entity, entity_span

METRIC_COLUMNS = ("Accuracy", "Recall", "Specificity", "Precision", "F1")

ENTITY_ROW_LABELS = {
    "Defect": "Defects",
    "LocationOfDefect": "Location of defect",
    "FrequencyOfDefects": "Frequency of defects",
    "SizeOfDefect": "Size of defect",
}

FORMULA_NOTE = (
    "precision = tp/(tp+fp); specificity = tn/(tn+fp); "
    "undefined (0/0) values reported as NA and excluded from averages"
)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricRow:
    label: str
    accuracy: float | None
    recall: float | None
    specificity: float | None
    precision: float | None
    f1: float | None


def confusion_counts(pred: list, gold: list, target) -> ConfusionCounts:
    if len(pred) != len(gold):
        raise AlignmentError(f"pred has {len(pred)} labels, gold has {len(gold)}")
    tp = fp = fn = tn = 0
    for p, g in zip(pred, gold):
        if p == target and g == target:
            tp += 1
        elif p == target:
            fp += 1
        elif g == target:
            fn += 1
        else:
            tn += 1
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def _ratio(num: int, den: int) -> float | None:
    return None if den == 0 else num / den


def metrics(c: ConfusionCounts, label: str = "") -> MetricRow:
    precision = _ratio(c.tp, c.tp + c.fp)
    recall = _ratio(c.tp, c.tp + c.fn)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * recall * precision / (recall + precision)
    return MetricRow(
        label=label,
        accuracy=_ratio(c.tp + c.tn, c.total),
        recall=recall,
        specificity=_ratio(c.tn, c.tn + c.fp),
        precision=precision,
        f1=f1,
    )


def cohens_kappa(labels_a: list, labels_b: list) -> float | None:
    if len(labels_a) != len(labels_b):
        raise AlignmentError("label lists differ in length")
    n = len(labels_a)
    if n == 0:
        return None
    p_o = sum(a == b for a, b in zip(labels_a, labels_b)) / n
    count_a = Counter(labels_a)
    count_b = Counter(labels_b)
    p_e = sum(count_a[k] * count_b.get(k, 0) for k in count_a) / (n * n)
    if p_e == 1.0:
        return None
    return (p_o - p_e) / (1.0 - p_e)


def frame_spans(doc: Document, frames: list[list[Entity]]) -> list[GoldEntity]:
    """Each sentence's entities as typed raw-text spans, as a report writes them."""
    return [
        GoldEntity(entity.entity_type, entity_span(sentence, entity))
        for sentence, entities in zip(doc.sentences, frames)
        for entity in entities
    ]


def evaluate_entities(
    pred_frames: dict[str, list[list[Entity]]],
    gold: dict[str, GoldRecord],
    docs: dict[str, Document],
) -> list[MetricRow]:
    """evaluate_entity_spans of each document's tagged entities."""
    return evaluate_entity_spans(
        {i: frame_spans(docs[i], frames) for i, frames in pred_frames.items()}, gold, docs
    )


def evaluate_entity_spans(
    pred: dict[str, list[GoldEntity]],
    gold: dict[str, GoldRecord],
    docs: dict[str, Document],
) -> list[MetricRow]:
    """Token-level one-vs-rest rows per entity type for each document of
    ``pred``.  Predicted and gold raw-text spans both label the document's
    tokens through corpus.gold_token_types."""
    pred_labels: list[str] = []
    gold_labels: list[str] = []
    for doc_id in sorted(pred):
        sentences = docs[doc_id].sentences
        pred_labels += chain.from_iterable(gold_token_types(sentences, pred[doc_id]))
        gold_labels += chain.from_iterable(gold_token_types(sentences, gold[doc_id].entities))
    return [
        metrics(confusion_counts(pred_labels, gold_labels, etype), label=label)
        for etype, label in ENTITY_ROW_LABELS.items()
    ]


def evaluate_ratings(pred: dict[str, int | None], gold: dict[str, int]) -> list[MetricRow]:
    """One-vs-rest rows per rating class plus an overall accuracy line; a
    None rating (a document that failed to rate) matches no class."""
    ids = sorted(pred)
    pred_list = [pred[i] for i in ids]
    gold_list = [gold[i] for i in ids]
    rows = []
    for rating in (1, 2, 3, 4, 5):
        c = confusion_counts(pred_list, gold_list, rating)
        rows.append(metrics(c, label=f"Defect rating {rating}"))
    overall = (
        sum(p == g for p, g in zip(pred_list, gold_list)) / len(ids) if ids else None
    )
    rows.append(MetricRow("Overall", overall, None, None, None, None))
    return rows


def pct(value: float | None) -> str:
    """A fraction as a one-decimal percentage; NA when it is undefined."""
    return "NA" if value is None else f"{100.0 * value:.1f}"


def write_metric_reports(rows: list[MetricRow], csv_path, json_path) -> None:
    """CSV with one-decimal percentages; JSON keeps raw fractions."""
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("Label",) + METRIC_COLUMNS)
        for row in rows:
            label, *values = astuple(row)
            writer.writerow([label, *map(pct, values)])
        writer.writerow([])
        writer.writerow([f"# note: {FORMULA_NOTE}"])
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"rows": [asdict(r) for r in rows], "note": FORMULA_NOTE},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
