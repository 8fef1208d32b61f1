import csv
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pipedefect.corpus import GoldEntity, GoldRecord, parse_document
from pipedefect.errors import AlignmentError
from pipedefect.evaluation import (
    FORMULA_NOTE,
    METRIC_COLUMNS,
    ConfusionCounts,
    cohens_kappa,
    confusion_counts,
    evaluate_entities,
    evaluate_ratings,
    frame_spans,
    metrics,
    write_metric_reports,
)
from pipedefect.pipeline import preprocess_document, tag_document

LABELS = ["A", "B", "C"]


class TestConfusionCounts:
    def test_perfect(self):
        c = confusion_counts(["A", "A"], ["A", "A"], "A")
        assert (c.tp, c.fp, c.fn, c.tn) == (2, 0, 0, 0)

    def test_swapped(self):
        c = confusion_counts(["A", "B"], ["B", "A"], "A")
        assert (c.tp, c.fp, c.fn, c.tn) == (0, 1, 1, 0)

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            confusion_counts(["A"], ["A", "B"], "A")

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1)

    @given(
        st.lists(st.sampled_from(LABELS), max_size=60),
        st.sampled_from(LABELS),
        st.randoms(),
    )
    def test_matches_bruteforce_and_sums(self, gold, target, rnd):
        pred = [rnd.choice(LABELS) for _ in gold]
        c = confusion_counts(pred, gold, target)
        # independent per-position loop
        tp = sum(1 for p, g in zip(pred, gold) if p == target and g == target)
        fp = sum(1 for p, g in zip(pred, gold) if p == target and g != target)
        fn = sum(1 for p, g in zip(pred, gold) if p != target and g == target)
        tn = sum(1 for p, g in zip(pred, gold) if p != target and g != target)
        assert (c.tp, c.fp, c.fn, c.tn) == (tp, fp, fn, tn)
        assert c.total == len(gold)


class TestMetrics:
    def test_perfect(self):
        row = metrics(ConfusionCounts(tp=1, tn=1))
        assert (row.accuracy, row.recall, row.specificity, row.precision, row.f1) == (
            1.0, 1.0, 1.0, 1.0, 1.0,
        )

    def test_balanced_95(self):
        row = metrics(ConfusionCounts(tp=95, fp=5, fn=5, tn=95))
        assert row.precision == 0.95
        assert row.recall == 0.95
        assert abs(row.f1 - 0.95) <= 1e-12
        assert row.accuracy == 0.95

    def test_undefined_precision(self):
        row = metrics(ConfusionCounts(tp=0, fp=0, fn=3, tn=2))
        assert row.precision is None
        assert row.f1 is None

    def test_f1_harmonic_identity(self):
        row = metrics(ConfusionCounts(tp=7, fp=3, fn=2, tn=8))
        expected = 2 * row.precision * row.recall / (row.precision + row.recall)
        assert abs(row.f1 - expected) <= 1e-15

    def test_empty_counts_all_undefined(self):
        row = metrics(ConfusionCounts())
        assert row.accuracy is None


class TestCohensKappa:
    def test_identity_is_one(self):
        assert cohens_kappa(["A", "B", "A"], ["A", "B", "A"]) == 1.0

    def test_two_class_fixture(self):
        # agreement 40 + 45, disagreement 10 + 5 over 100:
        # p_o = 0.85, marginals 50/50 each side so p_e = 0.5, kappa = 0.7
        a = ["x"] * 40 + ["x"] * 10 + ["y"] * 5 + ["y"] * 45
        b = ["x"] * 40 + ["y"] * 10 + ["x"] * 5 + ["y"] * 45
        assert abs(cohens_kappa(a, b) - 0.7) <= 1e-12

    def test_constant_against_uniform_is_zero(self):
        a = ["x", "y"] * 50
        b = ["x"] * 100
        assert abs(cohens_kappa(a, b)) <= 1e-12

    def test_both_constant_undefined(self):
        assert cohens_kappa(["x", "x"], ["x", "x"]) is None

    def test_empty_undefined(self):
        assert cohens_kappa([], []) is None

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            cohens_kappa(["x"], ["x", "y"])

    @given(st.lists(st.tuples(st.sampled_from("xy"), st.sampled_from("xy")), min_size=1))
    def test_symmetric(self, pairs):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        ka = cohens_kappa(a, b)
        kb = cohens_kappa(b, a)
        assert ka == kb or abs(ka - kb) <= 1e-12


class TestTokenLabels:
    def doc_and_frames(self, resources):
        raw = "Frequently leaks at midpoint."
        doc = preprocess_document(parse_document(raw, "d1"), resources)
        frames = tag_document(doc, resources)
        gold = GoldRecord(
            "d1",
            [
                GoldEntity("FrequencyOfDefects", (0, 10)),
                GoldEntity("Defect", (11, 16)),
                GoldEntity("LocationOfDefect", (20, 28)),
            ],
            5,
            "ann",
        )
        return doc, frames, gold

    def test_gold_and_frame_labels_agree(self, resources):
        doc, frames, gold = self.doc_and_frames(resources)
        assert sorted(frame_spans(doc, frames), key=lambda g: g.span) == gold.entities

    def test_perfect_prediction_rows(self, resources):
        doc, frames, gold = self.doc_and_frames(resources)
        rows = evaluate_entities({"d1": frames}, {"d1": gold}, {"d1": doc})
        labels = [r.label for r in rows]
        assert labels == [
            "Defects", "Location of defect", "Frequency of defects", "Size of defect",
        ]
        for row in rows[:3]:
            assert row.accuracy == 1.0
            assert row.recall == 1.0
            assert row.precision == 1.0


class TestEvaluateRatings:
    def test_all_correct(self):
        pred = {f"d{i}": (i % 5) + 1 for i in range(20)}
        rows = evaluate_ratings(pred, dict(pred))
        assert [r.label for r in rows] == [f"Defect rating {k}" for k in range(1, 6)] + [
            "Overall"
        ]
        assert rows[-1].accuracy == 1.0
        for row in rows[:5]:
            assert row.accuracy == 1.0

    def test_single_misclassification(self):
        gold = {f"d{i}": 5 if i < 50 else 4 for i in range(100)}
        pred = dict(gold, d0=4)  # one document slips from class 5 to 4
        rows = evaluate_ratings(pred, gold)
        class5 = rows[4]
        c = confusion_counts(
            [pred[f"d{i}"] for i in range(100)], [gold[f"d{i}"] for i in range(100)], 5
        )
        assert class5.recall == c.tp / (c.tp + c.fn) == 49 / 50
        assert rows[-1].accuracy == 0.99


class TestReports:
    def rows(self):
        return [
            metrics(ConfusionCounts(tp=95, fp=5, fn=5, tn=95), label="Defects"),
            metrics(ConfusionCounts(tp=0, fp=0, fn=0, tn=10), label="Size of defect"),
        ]

    def test_csv_schema_and_formats(self, tmp_path):
        csv_path = tmp_path / "m.csv"
        json_path = tmp_path / "m.json"
        write_metric_reports(self.rows(), csv_path, json_path)
        with open(csv_path, newline="") as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == ["Label", *METRIC_COLUMNS]
        assert lines[1] == ["Defects", "95.0", "95.0", "95.0", "95.0", "95.0"]
        assert lines[2][1] == "100.0"  # accuracy tn-only
        assert lines[2][2] == "NA"  # undefined recall
        assert FORMULA_NOTE in lines[-1][0]

    def test_json_keeps_fractions(self, tmp_path):
        csv_path = tmp_path / "m.csv"
        json_path = tmp_path / "m.json"
        write_metric_reports(self.rows(), csv_path, json_path)
        payload = json.loads(json_path.read_text())
        assert payload["rows"][0]["precision"] == 0.95
        assert payload["rows"][1]["recall"] is None
        assert payload["note"] == FORMULA_NOTE
