import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pipedefect.corpus import (
    SECTION_NAMES,
    UNSECTIONED,
    GoldEntity,
    GoldRecord,
    format_gold,
    parse_document,
    read_gold,
    split_corpus,
)
from pipedefect.errors import ConfigError, EmptyDocument, InvalidRating, InvalidSpan


class TestParseDocument:
    def test_single_header(self):
        doc = parse_document("Defects: Frequent leaks at joint.", "d1")
        assert list(doc.section_spans) == ["Defects"]
        assert doc.raw[slice(*doc.section_spans["Defects"])] == " Frequent leaks at joint."

    def test_no_header_goes_to_unsectioned(self):
        doc = parse_document("Frequent leaks at joint.", "d1")
        assert list(doc.section_spans) == [UNSECTIONED]
        assert doc.raw[slice(*doc.section_spans[UNSECTIONED])] == "Frequent leaks at joint."

    def test_two_headers_hand_split(self):
        raw = "Defects: leaks here.\nSummary: all done."
        doc = parse_document(raw, "d1")
        # oracle: substring indexing of the two header positions
        first_body = raw[len("Defects:") : raw.index("Summary:")]
        second_body = raw[raw.index("Summary:") + len("Summary:") :]
        assert doc.raw[slice(*doc.section_spans["Defects"])] == first_body
        assert doc.raw[slice(*doc.section_spans["Summary"])] == second_body
        assert doc.sections == {"Defects": first_body, "Summary": second_body}  # a view of raw

    def test_header_case_insensitive(self):
        doc = parse_document("dEfEcTs: leaks.", "d1")
        assert "Defects" in doc.section_spans

    @pytest.mark.parametrize("raw", ["Defect\u017f: leaks.", "Crit\u0131cality Assessment: ok"])
    def test_header_with_non_ascii_case_is_body_text(self, raw):
        # "\u017f" (long s) and "\u0131" (dotless i) fold to "s" and "i"
        # under Unicode matching, but lower() keeps them
        assert parse_document(raw, "d1").section_spans == {UNSECTIONED: (0, len(raw))}

    def test_repeated_header_is_body_text(self):
        raw = "Defects: one.\nDefects: two."
        doc = parse_document(raw, "d1")
        assert doc.raw[slice(*doc.section_spans["Defects"])] == " one.\nDefects: two."

    def test_leading_text_before_first_header(self):
        raw = "preamble\nDefects: leaks."
        doc = parse_document(raw, "d1")
        assert doc.raw[slice(*doc.section_spans[UNSECTIONED])] == "preamble\n"

    def test_sections_in_text_order_not_header_table_order(self):
        doc = parse_document("note\nSummary: all done.\nDefects: leaks.", "d1")
        assert list(doc.section_spans) == [UNSECTIONED, "Summary", "Defects"]
        bodies = [doc.raw[start:end] for start, end in doc.section_spans.values()]
        assert bodies == ["note\n", " all done.\n", " leaks."]

    def test_empty_document_rejected(self):
        with pytest.raises(EmptyDocument):
            parse_document("   \n ", "d1")

    def test_body_bytes_roundtrip(self):
        raw = "intro text\nDefects: a, b & c!\nCapacity: 77%\nSummary:"
        doc = parse_document(raw, "d1")
        # spans come in text order and tile the document except for the
        # header lines themselves
        covered = list(doc.section_spans.values())
        assert covered == sorted(covered)
        reassembled = "".join(raw[s:e] for s, e in covered)
        stripped = raw
        for name in SECTION_NAMES:
            stripped = stripped.replace(f"{name}:", "", 1)
        assert reassembled == stripped


def write_gold(tmp_path, text):
    path = tmp_path / "gold.tsv"
    path.write_text(text)
    return path


class TestParseGold:
    def test_basic_record(self, tmp_path):
        recs = read_gold(write_gold(tmp_path, "doc1\t5\tDefect:3-8\tann1\n"))
        assert list(recs) == ["doc1"]
        r = recs["doc1"]
        assert r.rating == 5
        assert r.entities == [GoldEntity("Defect", (3, 8))]
        assert r.annotator_id == "ann1"

    def test_no_entities_dash(self, tmp_path):
        recs = read_gold(write_gold(tmp_path, "doc1\t1\t-\tann1\n"))
        assert recs["doc1"].entities == []

    def test_rating_zero_rejected(self, tmp_path):
        with pytest.raises(InvalidRating):
            read_gold(write_gold(tmp_path, "doc1\t0\t-\tann1\n"))

    def test_rating_six_rejected(self, tmp_path):
        with pytest.raises(InvalidRating):
            read_gold(write_gold(tmp_path, "doc1\t6\t-\tann1\n"))

    def test_non_integer_rating_names_its_line(self, tmp_path):
        path = write_gold(tmp_path, "doc1\t3\t-\tann1\ndoc2\tx\t-\tann1\n")
        with pytest.raises(InvalidRating, match=rf"^{re.escape(str(path))}:2: rating 'x' "):
            read_gold(path)

    def test_malformed_span_rejected(self, tmp_path):
        with pytest.raises(InvalidSpan):
            read_gold(write_gold(tmp_path, "doc1\t3\tDefect:3\tann1\n"))

    def test_unknown_entity_type_rejected(self, tmp_path):
        with pytest.raises(InvalidSpan):
            read_gold(write_gold(tmp_path, "doc1\t3\tBogus:1-2\tann1\n"))

    def test_empty_span_rejected(self, tmp_path):
        with pytest.raises(InvalidSpan):
            read_gold(write_gold(tmp_path, "doc1\t3\tDefect:5-5\tann1\n"))

    def test_duplicate_doc_annotator_rejected(self, tmp_path):
        path = write_gold(tmp_path, "doc1\t3\t-\tann1\ndoc1\t4\t-\tann1\n")
        with pytest.raises(ConfigError, match=r"doc1 \(annotators ann1, ann1\)$"):
            read_gold(path)

    def test_record_count_matches_line_count(self, tmp_path):
        lines = [f"doc{i}\t{(i % 5) + 1}\tDefect:0-4\tann1" for i in range(500)]
        recs = read_gold(write_gold(tmp_path, "\n".join(lines) + "\n"))
        assert len(recs) == 500

    def test_format_parse_roundtrip(self, tmp_path):
        records = [
            GoldRecord("a", [GoldEntity("Defect", (0, 4))], 5, "x"),
            GoldRecord("b", [], 1, "x"),
            GoldRecord(
                "c",
                [GoldEntity("LocationOfDefect", (2, 9)), GoldEntity("SizeOfDefect", (10, 15))],
                3,
                "y",
            ),
        ]
        path = write_gold(tmp_path, format_gold(records))
        assert read_gold(path) == {r.document_id: r for r in records}


class TestSplitCorpus:
    def test_sizes_500_at_08(self):
        ids = [f"d{i}" for i in range(500)]
        split = split_corpus(ids, 0.8, seed=1)
        assert len(split.train) == 400
        assert len(split.test) == 100

    def test_same_seed_identical(self):
        ids = [f"d{i}" for i in range(10)]
        assert split_corpus(ids, 0.8, 7) == split_corpus(ids, 0.8, 7)

    def test_different_seeds_differ(self):
        ids = [f"d{i}" for i in range(10)]
        a = split_corpus(ids, 0.8, 1)
        b = split_corpus(ids, 0.8, 2)
        assert a.train != b.train or a.test != b.test

    def test_order_insensitive(self):
        ids = [f"d{i}" for i in range(20)]
        assert split_corpus(ids, 0.7, 5) == split_corpus(list(reversed(ids)), 0.7, 5)

    @given(
        ids=st.lists(st.text(alphabet="abcdef", min_size=1, max_size=6), min_size=2, unique=True),
        ratio=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_partition_property(self, ids, ratio, seed):
        split = split_corpus(ids, ratio, seed)
        assert set(split.train) | set(split.test) == set(ids)
        assert set(split.train) & set(split.test) == set()
        assert len(split.train) >= 1 and len(split.test) >= 1
