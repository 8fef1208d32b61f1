import logging
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pipedefect.config import PipelineConfig, build_default_lexicon
from pipedefect.errors import LexiconFormatError
from pipedefect.lexicon import (
    ORIGIN_MORPH,
    Blacklist,
    Lexicon,
    LexiconEntry,
    PhraseIndex,
    SynonymGraph,
    expand_morphology,
    expand_synonyms,
    load_lexicon,
    load_seeds,
    save_lexicon,
)
from pipedefect.preprocess import load_phrase_file
from pipedefect.tagger import PatternTable


def graph_of(*edges):
    g = SynonymGraph()
    for a, rel, b in edges:
        g.add_edge(a, b, rel)
    return g


class TestMorphology:
    def test_leak_family(self):
        out = expand_morphology("leak")
        assert {"leak", "leaks", "leaking", "leaked", "leakage"} <= set(out)

    def test_sag_plural(self):
        assert "sags" in expand_morphology("sag")

    def test_e_drop(self):
        out = expand_morphology("rupture")
        assert "ruptured" in out and "rupturing" in out

    def test_no_age_without_rule(self):
        assert "crackage" not in expand_morphology("crack")

    def test_deduplicated(self):
        out = expand_morphology("leak")
        assert len(out) == len(set(out))


class TestExpandSynonyms:
    def test_depth_one(self):
        g = graph_of(("rupture", "syn", "burst"))
        lex = expand_synonyms([("rupture", "Defect")], g, Blacklist({}), max_depth=1)
        assert "burst" in lex
        assert lex.entries["burst"].origin == "syn1"
        assert lex.entries["burst"].seed_root == "rupture"

    def test_depth_zero_is_seed_plus_morphology(self):
        g = graph_of(("rupture", "syn", "burst"))
        lex = expand_synonyms([("rupture", "Defect")], g, Blacklist({}), max_depth=0)
        assert "burst" not in lex
        assert set(lex.entries) == set(expand_morphology("rupture"))

    def test_blacklist_removes_node_and_descendants(self):
        g = graph_of(("rupture", "syn", "burst"), ("burst", "syn", "blowout"))
        bl = Blacklist({"rupture": {"burst"}})
        lex = expand_synonyms([("rupture", "Defect")], g, bl, max_depth=3)
        assert "burst" not in lex
        assert "blowout" not in lex  # only reachable through the banned node

    def test_blacklisted_variant_left_out(self):
        g = SynonymGraph()
        lex = expand_synonyms([("leak", "Defect")], g, Blacklist({"leak": {"leaks"}}), max_depth=1)
        assert set(lex.entries) == set(expand_morphology("leak")) - {"leaks"}

    def test_antonyms_recorded_not_added(self, caplog):
        g = graph_of(("rupture", "syn", "burst"), ("rupture", "ant", "intact"))
        with caplog.at_level(logging.INFO, logger="pipedefect.lexicon"):
            lex = expand_synonyms([("rupture", "Defect")], g, Blacklist({}), max_depth=2)
        assert "intact" not in lex
        assert "seed 'rupture': antonyms recorded, not added: ['intact']" in caplog.messages

    def test_collision_smaller_depth_wins(self):
        g = graph_of(("a", "syn", "x"), ("b", "syn", "m"), ("m", "syn", "x"))
        lex = expand_synonyms([("a", "Defect"), ("b", "Defect")], g, Blacklist({}), max_depth=2)
        assert lex.entries["x"].seed_root == "a"
        assert lex.entries["x"].origin == "syn1"

    def test_collision_tie_breaks_by_seed_root(self):
        g = graph_of(("b", "syn", "x"), ("a", "syn", "x"))
        lex = expand_synonyms([("b", "Defect"), ("a", "Defect")], g, Blacklist({}), max_depth=1)
        assert lex.entries["x"].seed_root == "a"

    def test_seed_beats_synonym(self):
        g = graph_of(("a", "syn", "b"))
        lex = expand_synonyms([("a", "Defect"), ("b", "Location")], g, Blacklist({}), max_depth=1)
        assert lex.entries["b"].origin == "seed"
        assert lex.entries["b"].category == "Location"

    def test_seed_missing_from_graph_warns(self, caplog):
        g = graph_of(("x", "syn", "y"))
        with caplog.at_level(logging.WARNING, logger="pipedefect.lexicon"):
            lex = expand_synonyms([("zzz", "Defect")], g, Blacklist({}), max_depth=2)
        assert "zzz" in lex
        assert any("zzz" in rec.message for rec in caplog.records)

    def test_missing_seeds_warn_once(self, caplog):
        g = graph_of(("x", "syn", "y"))
        seeds = [("zzz", "Defect"), ("x", "Defect"), ("qqq", "Location")]
        with caplog.at_level(logging.WARNING, logger="pipedefect.lexicon"):
            expand_synonyms(seeds, g, Blacklist({}), max_depth=2)
        (record,) = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert "zzz" in record.message and "qqq" in record.message
        assert "'x'" not in record.message

    def test_multiword_seed_no_morphology(self):
        g = SynonymGraph()
        lex = expand_synonyms([("deposits settled", "Defect")], g, Blacklist({}), max_depth=1)
        assert set(lex.entries) == {"deposits settled"}

    def test_default_lexicon_inflects_defect_seeds_only(self):
        """A frequency adverb or a location word has no -s/-ing/-ed form
        ("rarelying", "downstreamed")."""
        entries = build_default_lexicon(PipelineConfig()).entries.values()
        morph = {e.category for e in entries if e.origin == ORIGIN_MORPH}
        assert morph == {"Defect"}


# Terms sharing first words ("deposits", "very", "joint") at several
# lengths, a term that is a prefix of another, and one whose words are
# terms of their own.
SCAN_LEXICON = Lexicon()
for _term, _category in [
    ("deposits", "Defect"), ("deposits settled", "Defect"),
    ("deposits settled hard", "Defect"), ("deposits attached", "Defect"),
    ("very", "Frequency"), ("very frequently", "Frequency"), ("very rarely", "Frequency"),
    ("frequently", "Frequency"), ("joint offset", "Defect"), ("offset", "Location"),
    ("joint", "Location"), ("crack", "Defect"),
]:
    SCAN_LEXICON.add(LexiconEntry(_term, _category, "seed", _term))
SCAN_PIECES = sorted(
    set(SCAN_LEXICON.entries) | {w for t in SCAN_LEXICON.entries for w in t.split()}
) + ["pipe", "at", ".", "settled", "Deposits"]


def reference_lookup(lexicon, words):
    """At each position the longest term starting there, found by trying
    every term; after a match the walk goes on past it, else one step."""
    terms = [tuple(t.split()) for t in lexicon.entries]
    matches = []
    i = 0
    while i < len(words):
        fits = [t for t in terms if tuple(words[i : i + len(t)]) == t]
        if fits:
            term = max(fits, key=len)
            matches.append(((i, i + len(term)), lexicon.entries[" ".join(term)]))
            i += len(term)
        else:
            i += 1
    return matches


class TestLookup:
    def test_frequency_then_defect(self, lexicon):
        hits = lexicon.lookup(["frequent", "leaks"])
        assert [(span, e.category) for span, e in hits] == [
            ((0, 1), "Frequency"),
            ((1, 2), "Defect"),
        ]

    def test_empty(self, lexicon):
        assert lexicon.lookup([]) == []

    def test_multiword_longest_match(self, lexicon):
        hits = lexicon.lookup(["deposits", "settled"])
        assert len(hits) == 1
        (span, entry) = hits[0]
        assert span == (0, 2)
        assert entry.term == "deposits settled"

    def test_matches_never_overlap(self, lexicon):
        words = "very frequently leaks at midpoint deposits settled".split()
        hits = lexicon.lookup(words)
        for (s1, e1), _ in hits:
            for (s2, e2), _ in hits:
                assert (s1, e1) == (s2, e2) or e1 <= s2 or e2 <= s1

    def test_longest_match_wins_at_shared_start(self, lexicon):
        # "very frequently" must not be consumed as bare "frequently"
        hits = lexicon.lookup(["very", "frequently"])
        assert hits[0][1].term == "very frequently"

    @given(st.lists(st.sampled_from(SCAN_PIECES), max_size=12))
    def test_agrees_with_a_walk_position_by_position(self, pieces):
        words = [w for piece in pieces for w in piece.split()]
        assert SCAN_LEXICON.lookup(words) == reference_lookup(SCAN_LEXICON, words)


class TestPhraseIndexScan:
    def test_longest_first_and_never_overlapping(self):
        index = PhraseIndex(["a b", "a", "b c", "c"])
        assert list(index.scan("a b c a x".split())) == [(0, ("a", "b")), (2, ("c",)), (3, ("a",))]

    def test_from_start(self):
        index = PhraseIndex(["a b", "a", "b c", "c"])
        assert list(index.scan("a b c a x".split(), 1)) == [(1, ("b", "c")), (3, ("a",))]

    def test_phrase_cut_off_by_the_end_does_not_match(self):
        assert list(PhraseIndex(["a b"]).scan(["x", "a"])) == []

    def test_phrase_starting_before_stop_may_end_past_it(self):
        assert list(PhraseIndex(["a b"]).scan("x a b".split(), 0, 2)) == [(1, ("a", "b"))]

    def test_phrase_starting_at_stop_does_not_match(self):
        index = PhraseIndex(["a b", "c"])
        assert list(index.scan("x c a b".split(), 0, 2)) == [(1, ("c",))]
        assert list(index.scan("x c a b".split(), 1, 1)) == []


class TestPersistence:
    def entries(self):
        return [
            LexiconEntry("leak", "Defect", "seed", "leak"),
            LexiconEntry("leaks", "Defect", "morph", "leak"),
            LexiconEntry("seep", "Defect", "syn1", "leak"),
        ]

    def test_roundtrip(self, tmp_path):
        lex = Lexicon()
        for e in self.entries():
            lex.add(e)
        path = tmp_path / "lex.tsv"
        save_lexicon(lex, path)
        assert load_lexicon(path).entries == lex.entries

    def test_file_sorted_by_term(self, tmp_path):
        lex = Lexicon()
        for e in self.entries():
            lex.add(e)
        path = tmp_path / "lex.tsv"
        save_lexicon(lex, path)
        terms = [line.split("\t")[0] for line in path.read_text().splitlines()]
        assert terms == sorted(terms)

    def test_duplicate_term_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("leak\tDefect\tseed\tleak\nleak\tDefect\tseed\tleak\n")
        with pytest.raises(LexiconFormatError):
            load_lexicon(path)

    def test_three_entry_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text(
            "crack\tDefect\tseed\tcrack\n"
            "midpoint\tLocation\tseed\tmidpoint\n"
            "rarely\tFrequency\tseed\trarely\n"
        )
        assert len(load_lexicon(path)) == 3

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("leak\tDefect\n")
        with pytest.raises(LexiconFormatError):
            load_lexicon(path)

    @pytest.mark.parametrize("row, why", [
        ("leak\tSize\tseed\tleak", "unknown category 'Size'"),
        ("leak\tDefect\tsyn0\tleak", "synonym depth must be >= 1: 'syn0'"),
    ])
    def test_entry_refused_names_its_line(self, tmp_path, row, why):
        path = tmp_path / "lex.tsv"
        path.write_text(f"crack\tDefect\tseed\tcrack\n{row}\n")
        with pytest.raises(LexiconFormatError, match=rf"^{re.escape(f'{path}:2: {why}')}$"):
            load_lexicon(path)

    def test_seed_with_unknown_category_names_its_line(self, tmp_path):
        path = tmp_path / "seeds.tsv"
        path.write_text("leak\tDefect\nmidpoint\tPlace\n")
        with pytest.raises(LexiconFormatError, match=rf"^{re.escape(str(path))}:2: "):
            load_seeds(path)


class TestEntryValidation:
    def test_uppercase_rejected(self):
        with pytest.raises(ValueError):
            LexiconEntry("Leak", "Defect", "seed", "leak")

    def test_bad_category_rejected(self):
        with pytest.raises(ValueError):
            LexiconEntry("leak", "Size", "seed", "leak")

    def test_zero_synonym_depth_rejected(self):
        with pytest.raises(ValueError):
            LexiconEntry("leak", "Defect", "syn0", "leak")

    def test_non_numeric_synonym_depth_rejected(self):
        with pytest.raises(ValueError):
            LexiconEntry("leak", "Defect", "synx", "leak")


class TestSynonymGraph:
    def test_self_edge_rejected(self):
        g = SynonymGraph()
        with pytest.raises(ValueError):
            g.add_edge("a", "a", "syn")

    def test_bad_relation_rejected(self):
        g = SynonymGraph()
        with pytest.raises(ValueError):
            g.add_edge("a", "b", "related")

    def test_neighbors_sorted_by_relation(self):
        g = graph_of(("a", "syn", "c"), ("a", "syn", "b"), ("a", "ant", "z"))
        assert g.neighbors("a", "syn") == ["b", "c"]
        assert g.neighbors("a", "ant") == ["z"]


# Each loader, a reader that makes its result comparable, and two rows.
DATA_FILES = {
    "seeds": (load_seeds, ["leak\tDefect", "rarely\tFrequency"]),
    "lexicon": (lambda p: load_lexicon(p).entries,
                ["leak\tDefect\tseed\tleak", "leaks\tDefect\tmorph\tleak"]),
    "synonym_graph": (lambda p: vars(SynonymGraph.load(p)), ["leak\tsyn\tseep", "leak\tant\tseal"]),
    "blacklists": (Blacklist.load, ["leak\tseal", "crack\tfissure"]),
    "patterns": (PatternTable.load, ["size\tinch, mm", "distance\tfeet"]),
    "phrases": (load_phrase_file, ["the", "of"]),
    "negation phrases": (load_phrase_file, ["no", "free of"]),
    "abbreviations": (lambda p: load_phrase_file(p, "abbreviation"), ["ft.", "e.g."]),
}


@pytest.mark.parametrize("name", sorted(DATA_FILES))
class TestDataFileRows:
    def test_comments_and_blank_lines_skipped(self, name, tmp_path):
        load, (first, second) = DATA_FILES[name]
        plain = tmp_path / "plain.txt"
        plain.write_text(f"{first}\n{second}\n", encoding="utf-8")
        noisy = tmp_path / "noisy.txt"
        noisy.write_text(
            f"# header\n\n{first}  # inline comment\n   \n\t\n  {second}\n# end\n",
            encoding="utf-8",
        )
        assert load(noisy) == load(plain)

    def test_crlf_file_loads_like_lf(self, name, tmp_path):
        load, (first, second) = DATA_FILES[name]
        lf = tmp_path / "lf.txt"
        lf.write_bytes(f"{first}\n{second}\n".encode())
        crlf = tmp_path / "crlf.txt"
        crlf.write_bytes(f"{first}\r\n{second}\r\n".encode())
        assert load(crlf) == load(lf)
