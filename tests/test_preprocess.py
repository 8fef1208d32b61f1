import copy
import random
import re
import string
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipedefect import preprocess
from pipedefect.config import PipelineConfig, load_resources
from pipedefect.corpus import SECTION_NAMES, Sentence, Token, parse_document
from pipedefect.errors import PipeDefectError
from pipedefect.lexicon import PhraseIndex
from pipedefect.pipeline import BILSTM_TAGGER, rate_document
from pipedefect.preprocess import (
    NEGATION_WINDOW,
    SENTENCE_TERMINATORS,
    NegationTriggerSet,
    SpellVocabulary,
    correct_spelling,
    detect_negation,
    load_phrase_file,
    preprocess_section,
    within_edits,
)
from pipedefect.tagger import MAX_BATCH_TOKENS

ABBREVS = frozenset({"ft.", "in.", "no."})

TRIGGERS = NegationTriggerSet(
    pre_triggers=("no", "not", "without", "free of"),
    scope_terminators=("but", "however"),
)

# A vocabulary that changes no token: every word it would search is longer
# than its longest term (none) plus two.
NO_SPELLING = SpellVocabulary(frozenset())


def sentences(body, abbreviations=frozenset()):
    """The sentences of one section body, without spelling correction."""
    return preprocess_section(body, 0, NO_SPELLING, TRIGGERS, abbreviations)


def sentence_text(sentence):
    """The sentence's token surfaces, with a space wherever two tokens' raw
    spans are not adjacent: its runs joined by single spaces."""
    out, end = [], None
    for tok in sentence.tokens:
        if end is not None and tok.raw_span[0] != end:
            out.append(" ")
        out.append(tok.surface)
        end = tok.raw_span[1]
    return "".join(out)


def normalize_text(raw):
    return " ".join(sentence_text(s) for s in sentences(raw))


def split_sentences(text, abbreviations=frozenset()):
    return [sentence_text(s) for s in sentences(text, abbreviations)]


def toks(text):
    """The tokens of a body of at most one sentence."""
    found = sentences(text)
    assert len(found) <= 1
    return found[0].tokens if found else []


class TestNormalize:
    def test_list_commas_removed(self):
        assert normalize_text("leaks, cracks, & holes") == "leaks cracks holes"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_all_special(self):
        assert normalize_text("###") == ""

    def test_case_preserved(self):
        assert normalize_text("No Leaks!") == "No Leaks!"

    def test_whitespace_collapsed(self):
        assert normalize_text("a\t\n  b") == "a b"

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once


class TestSplitSentences:
    def test_two_sentences(self):
        out = split_sentences("No leaks. Minor sag at 10 ft.", ABBREVS)
        assert out == ["No leaks.", "Minor sag at 10 ft."]

    def test_abbreviation_does_not_split(self):
        out = split_sentences("Pipe at 10 ft. from inlet leaks.", ABBREVS)
        assert out == ["Pipe at 10 ft. from inlet leaks."]

    def test_empty(self):
        assert split_sentences("", ABBREVS) == []

    def test_unit_after_number_ends_sentence(self):
        out = split_sentences("Sag 10 ft. Crack at 2.5 in. Leak at ten ft. Root", ABBREVS)
        assert out == ["Sag 10 ft.", "Crack at 2.5 in.", "Leak at ten ft. Root"]

    def test_lowercase_continuation_no_split(self):
        out = split_sentences("approx. 10 feet in.", ABBREVS)
        assert len(out) == 1

    def test_question_and_exclamation(self):
        out = split_sentences("Any leaks? None found! All clear.", ABBREVS)
        assert out == ["Any leaks?", "None found!", "All clear."]

    @given(st.text(alphabet="aB .!?", max_size=80))
    def test_concatenation_reproduces_input(self, text):
        # sentences appear in order and cover all non-separator text
        rebuilt = "".join(split_sentences(text))
        assert "".join(rebuilt.split()) == "".join(text.split())


class TestTokenize:
    def test_trailing_terminator_split(self):
        assert [t.surface for t in toks("Frequent leaks.")] == ["Frequent", "leaks", "."]

    def test_spans(self):
        spans = [t.raw_span for t in toks("10 feet away")]
        assert spans == [(0, 2), (3, 7), (8, 12)]

    def test_empty(self):
        assert toks("") == []

    def test_lone_terminator(self):
        assert [t.surface for t in toks(".")] == ["."]

    def test_normalized_lowercase(self):
        assert [t.normalized for t in toks("No Leaks")] == ["no", "leaks"]

    @given(st.text(alphabet="ab1 .", max_size=60))
    def test_spans_reconstruct_sentence(self, text):
        covered = set()
        for sentence in sentences(text):
            for tok in sentence.tokens:
                s, e = tok.raw_span
                assert text[s:e] == tok.surface
                covered.update(range(s, e))
        non_ws = {i for i, ch in enumerate(text) if not ch.isspace()}
        assert covered == non_ws


def oracle_edit_distance(a, b):
    """Reference Levenshtein distance: the full dynamic-programming table."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


# Arbitrary Unicode (the empty string included), astral characters, and
# strings past one 64-bit word from a three-letter alphabet.
_ED_TEXT = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="a\u00e9\U0001f600\U00010348", max_size=12),
    st.text(alphabet="abc", min_size=60, max_size=140),
)


@st.composite
def _edited(draw, word, edits, chars):
    """``word`` after ``edits`` random insertions, deletions or
    substitutions of characters drawn from ``chars``."""
    out = list(word)
    for _ in range(draw(edits)):
        i = draw(st.integers(0, len(out)))
        op = draw(st.sampled_from(["insert", "delete", "substitute"]))
        c = draw(chars)
        if op == "insert":
            out.insert(i, c)
        elif i < len(out):
            if op == "delete":
                del out[i]
            else:
                out[i] = c
    return "".join(out)


@st.composite
def _string_pair(draw):
    """Two independent strings, or a string and a few random edits of it,
    so that long pairs within a small cap occur."""
    a = draw(_ED_TEXT)
    if draw(st.booleans()):
        return a, draw(_ED_TEXT)
    return a, draw(_edited(a, st.integers(0, 4), st.sampled_from("abc\U0001f600")))


class TestEditDistance:
    """``within_edits(a, b, k)``: the Levenshtein distance is at most k."""

    def test_identity(self):
        assert within_edits("leak", "leak", 0)

    def test_transposed_letters(self):
        assert not within_edits("laeks", "leaks", 1)
        assert within_edits("laeks", "leaks", 2)

    def test_cap_exceeded(self):
        assert not within_edits("aaaa", "bbbb", 2)

    def test_false_one_above_k(self):
        assert not within_edits("abc", "xyz", 2)
        assert within_edits("abc", "xyz", 3)

    @given(st.text(max_size=12), st.text(max_size=12), st.integers(0, 3))
    def test_symmetric(self, a, b, k):
        assert within_edits(a, b, k) == within_edits(b, a, k)

    @settings(max_examples=200)
    @given(_string_pair())
    @example(("", ""))
    @example(("", "\U0001f600"))
    @example(("a" * 70, "a" * 69 + "b"))
    def test_matches_dynamic_programming_table(self, pair):
        a, b = pair
        exact = oracle_edit_distance(a, b)
        for k in (0, 1, 2, 3):
            assert within_edits(a, b, k) == (exact <= k)
            assert within_edits(b, a, k) == (exact <= k)


MAX_EDITS = 2  # the corrector's edit budget


def brute_force_correction(word, vocab):
    """Reference corrector: scan every known term, keep the smallest
    (distance, term) within the budget."""
    if word in vocab.known_terms or len(word) < 3 or not any(ch.isalpha() for ch in word):
        return word
    best = None
    best_dist = MAX_EDITS + 1
    for term in vocab.known_terms:
        if abs(len(word) - len(term)) > MAX_EDITS:
            continue  # the distance is at least the length gap
        d = oracle_edit_distance(word, term)
        if d < best_dist or (d == best_dist and (best is None or term < best)):
            best = term
            best_dist = d
    if best is None or best_dist > MAX_EDITS:
        return word
    return best


# A three-letter alphabet makes repeated letters, short terms and several
# terms at the same distance from a word (ties) common.
_TERMS = st.text(alphabet="abc", min_size=1, max_size=5)


@st.composite
def _vocab_and_word(draw):
    terms = draw(st.frozensets(_TERMS, min_size=8, max_size=40))
    vocab = SpellVocabulary(terms)
    if draw(st.booleans()):
        word = draw(st.text(alphabet="abc1", max_size=8))
    else:  # a few random edits away from a known term
        term = draw(st.sampled_from(sorted(terms)))
        word = draw(_edited(term, st.integers(1, 3), st.sampled_from("abcd")))
    return vocab, word


class TestCorrectSpelling:
    VOCAB = SpellVocabulary(frozenset({"leaks", "cracks", "holes", "pipe"}))

    def make(self, word):
        return Token(surface=word, normalized=word.lower(), raw_span=(0, len(word)))

    def test_typo_corrected(self):
        assert correct_spelling(self.make("Laeks"), self.VOCAB).normalized == "leaks"

    def test_in_vocab_unchanged(self):
        tok = self.make("leaks")
        assert correct_spelling(tok, self.VOCAB) is tok

    def test_no_candidate_within_distance(self):
        # oracle: exhaustive scan shows every vocab term is > 2 edits away
        assert all(oracle_edit_distance("xyzq", t) > 2 for t in self.VOCAB.known_terms)
        assert correct_spelling(self.make("xyzq"), self.VOCAB).normalized == "xyzq"

    def test_numbers_never_corrected(self):
        assert correct_spelling(self.make("10"), self.VOCAB).normalized == "10"

    def test_short_tokens_never_corrected(self):
        assert correct_spelling(self.make("at"), self.VOCAB).normalized == "at"

    def test_surface_and_span_preserved(self):
        out = correct_spelling(self.make("Laeks"), self.VOCAB)
        assert out.surface == "Laeks"
        assert out.raw_span == (0, 5)

    def test_tie_breaks_lexicographically(self):
        vocab = SpellVocabulary(frozenset({"cat", "bat"}))
        assert correct_spelling(self.make("aat"), vocab).normalized == "bat"

    @given(st.sampled_from(sorted(VOCAB.known_terms)))
    def test_identity_on_vocabulary(self, word):
        tok = self.make(word)
        assert correct_spelling(tok, self.VOCAB).normalized == word

    # "abcd": depth-1 keys reach only "abcdxy" (distance 2); the smaller
    # "abaa", also at distance 2, shares only the depth-2 key "ab".
    DEPTH_2_TIE = SpellVocabulary(frozenset({"abcdxy", "abaa"}))

    @settings(max_examples=500)
    @given(_vocab_and_word())
    @example((DEPTH_2_TIE, "abcd"))
    # only the word itself, a depth-2 key of "abcdxy", reaches that term
    @example((SpellVocabulary(frozenset({"abcdxy"})), "abcd"))
    @example((SpellVocabulary(frozenset({"abcdxy", "abaa", "zbcd"})), "abcd"))
    # one edit: the word is the term minus one character (an insertion),
    # the word minus one character is the term (a deletion), and both minus
    # the same position agree (a substitution)
    @example((SpellVocabulary(frozenset({"abcab"})), "abab"))
    @example((SpellVocabulary(frozenset({"abab"})), "abcab"))
    @example((SpellVocabulary(frozenset({"abcab"})), "abbab"))
    # adjacent transpositions share a deletion at different positions and
    # are two edits: "bac" and "abc" both give "ac" and "bc"
    @example((SpellVocabulary(frozenset({"ab"})), "ba"))
    @example((SpellVocabulary(frozenset({"abc"})), "bac"))
    @example((SpellVocabulary(frozenset({"abc", "aaa"})), "bac"))
    # repeated letters give one key at several positions
    @example((SpellVocabulary(frozenset({"abb"})), "aab"))
    # a tie between the three one-edit branches
    @example((SpellVocabulary(frozenset({"abcd", "bbc", "bc"})), "abc"))
    def test_matches_brute_force_scan(self, case):
        """The one-edit search alone settles a word with a term one edit
        away; a two-edit correction comes from the two-edit search, the only
        caller of ``within_edits`` with k = 2 (its recursion lowers k)."""
        vocab, word = case
        expected = brute_force_correction(word, vocab)
        check = mock.patch.object(preprocess, "within_edits", wraps=preprocess.within_edits)
        with check as within:
            assert correct_spelling(self.make(word), vocab).normalized == expected
        if expected != word:
            one_edit = oracle_edit_distance(word, expected) == 1
            two_edit_search = any(call.args[2] == 2 for call in within.call_args_list)
            assert two_edit_search != one_edit

    @given(_vocab_and_word())
    @example((VOCAB, "Laeks"))
    def test_argument_left_unchanged(self, case):
        """A correction is a new Token; otherwise the argument comes back."""
        vocab, word = case
        tok = self.make(word)
        before = copy.copy(tok)
        out = correct_spelling(tok, vocab)
        assert tok == before
        assert (out is tok) == (out.normalized == tok.normalized)

    def test_one_edit_needs_no_distance_check(self, monkeypatch):
        """A one-edit word makes no two-edit check."""
        within = preprocess.within_edits

        def refuse_two(a, b, k):
            if k == 2:
                raise AssertionError("two-edit check for a one-edit word")
            return within(a, b, k)

        monkeypatch.setattr(preprocess, "within_edits", refuse_two)
        for word, term in (("leas", "leaks"), ("leakss", "leaks"), ("lexks", "leaks")):
            assert correct_spelling(self.make(word), self.VOCAB).normalized == term

    def test_matches_brute_force_on_shipped_vocabulary(self, resources):
        """A seeded sample of one- and two-edit variants of the shipped
        vocabulary: insertions, deletions, substitutions, adjacent
        transpositions and doubled letters."""
        vocab = resources.spell_vocab
        terms = sorted(vocab.known_terms)
        rng = random.Random(14)

        def vary(word):
            i = rng.randrange(len(word))
            op = rng.choice(["insert", "delete", "substitute", "transpose", "double"])
            if op == "insert":
                return word[:i] + rng.choice(string.ascii_lowercase) + word[i:]
            if op == "delete":
                return word[:i] + word[i + 1 :]
            if op == "substitute":
                return word[:i] + rng.choice(string.ascii_lowercase) + word[i + 1 :]
            if op == "transpose" and i + 1 < len(word):
                return word[:i] + word[i + 1] + word[i] + word[i + 2 :]
            return word[:i] + word[i] + word[i:]

        for _ in range(300):
            word = rng.choice(terms)
            for _ in range(rng.randint(1, 2)):
                word = vary(word) if word else "x"
            expected = brute_force_correction(word, vocab)
            assert correct_spelling(self.make(word), vocab).normalized == expected, word

    def test_shipped_vocabulary_holds_lexicon_base_and_negation_words(self, resources):
        """The words of the lexicon's terms, the base-word lines and the
        words of both negation phrase files, each file read here."""
        cfg = PipelineConfig()

        def phrases(path):
            lines = (line.split("#", 1)[0].strip() for line in path.read_text().splitlines())
            return [line.lower() for line in lines if line]

        words = [*resources.lexicon.entries, *phrases(cfg.triggers), *phrases(cfg.terminators)]
        expected = {w for phrase in words for w in phrase.split()} | set(phrases(cfg.basewords))
        assert resources.spell_vocab.known_terms == expected

    def test_delete_index_built_on_first_search_only(self):
        """Known words never build the index; the first search builds it and
        later searches reuse it."""
        vocab = SpellVocabulary(frozenset({"leaks", "pipe", "no"}))
        preprocess_section("No leaks. Pipe no leaks.", 0, vocab, TRIGGERS, frozenset())
        assert "_delete_index" not in vocab.__dict__
        assert correct_spelling(self.make("laeks"), vocab).normalized == "leaks"
        index = vocab.__dict__["_delete_index"]
        assert correct_spelling(self.make("pipw"), vocab).normalized == "pipe"
        assert vocab._delete_index is index

    def test_length_cutoff_keeps_words_within_budget(self):
        vocab = SpellVocabulary(frozenset({"leak"}))
        for word in ("leakxx", "leakxxx", "leak" + "x" * 1000):
            expected = brute_force_correction(word, vocab)
            assert correct_spelling(self.make(word), vocab).normalized == expected
        assert correct_spelling(self.make("leakxx"), vocab).normalized == "leak"


class TestDetectNegation:
    def test_simple_scope(self):
        scopes = detect_negation(toks("no leaks observed"), TRIGGERS)
        assert scopes == [(1, 3)]

    def test_no_trigger(self):
        assert detect_negation(toks("leaks observed"), TRIGGERS) == []

    def test_terminator_closes_scope(self):
        tokens = toks("no leaks but frequent sags")
        scopes = detect_negation(tokens, TRIGGERS)
        assert scopes == [(1, 2)]  # "sags" (index 4) is outside the scope

    def test_window_caps_scope(self):
        tokens = toks("no a b c d e f g")
        assert detect_negation(tokens, TRIGGERS) == [(1, 6)]

    def test_multiword_trigger(self):
        tokens = toks("pipe is free of cracks today")
        scopes = detect_negation(tokens, TRIGGERS)
        assert scopes[0][0] == 4  # scope starts after "free of"

    def test_overlapping_scopes_merged(self):
        tokens = toks("no leaks and no defects found")
        scopes = detect_negation(tokens, TRIGGERS)
        assert len(scopes) == 1
        s, e = scopes[0]
        assert s == 1 and e >= 5

    def test_trigger_file_is_lowercased(self, tmp_path):
        # tokens are matched by their lowercase normalized form
        (tmp_path / "triggers.txt").write_text("No\nFREE Of\n")
        assert load_phrase_file(tmp_path / "triggers.txt") == ("no", "free of")

    def test_trigger_word_keeps_its_spelling(self, tmp_path):
        # "lacking" is no base word, and one edit from the Defect "cracking"
        (tmp_path / "triggers.txt").write_text("lacking\n")
        cfg = PipelineConfig(triggers=tmp_path / "triggers.txt")
        resources = load_resources(cfg, require_lexicon=False)
        assert "lacking" not in load_phrase_file(cfg.basewords)
        [sentence] = preprocess_section(
            "Pipe lacking cracks.", 0, resources.spell_vocab, resources.triggers, frozenset()
        )
        assert [t.normalized for t in sentence.tokens] == ["pipe", "lacking", "cracks", "."]
        assert sentence.negation_scopes == [(2, 4)]

    def test_two_word_terminator_on_the_windows_last_token(self, resources):
        # "apart" is the fifth token after "no"; its match ends past the window
        tokens = toks("no a b c d apart from e")
        assert detect_negation(tokens, resources.triggers) == [(1, 5)]

    def test_reads_a_window_of_tokens_per_trigger(self, monkeypatch):
        class CountingList(list):
            reads = 0

            def __getitem__(self, key):
                CountingList.reads += 1
                return super().__getitem__(key)

        scan = PhraseIndex.scan
        monkeypatch.setattr(PhraseIndex, "scan",
                            lambda self, tokens, *args: scan(self, CountingList(tokens), *args))
        n = 2000
        scopes = detect_negation([Token("no", "no", (0, 2))] * n, TRIGGERS)
        assert scopes == [(1, n)]
        assert CountingList.reads <= n * (NEGATION_WINDOW + 1)

    @given(st.lists(st.sampled_from(["no", "leak", "but", "pipe", "not", "ok"]), max_size=12))
    def test_scopes_sorted_disjoint_in_bounds(self, words):
        tokens = [Token(w, w, (0, len(w))) for w in words]
        scopes = detect_negation(tokens, TRIGGERS)
        prev_end = -1
        for s, e in scopes:
            assert 0 <= s < e <= len(tokens)
            assert s >= prev_end
            prev_end = e


class TestLongSentenceIsCut:
    @pytest.mark.parametrize("n_words", [MAX_BATCH_TOKENS - 1, MAX_BATCH_TOKENS, 600])
    def test_pieces_fit_one_pass_and_keep_every_token(self, n_words):
        words = ("no", "crack", "at", "joint", "often", "upstream")
        body = " ".join(words[k % len(words)] for k in range(n_words)) + ". Leak here."
        args = (body, 5, NO_SPELLING, TRIGGERS, frozenset())
        found = preprocess_section(*args)
        uncut = oracle_preprocess_section(*args)
        assert len(uncut) == 2 and len(uncut[0].tokens) == n_words + 1
        assert len(found) == 1 + -(-(n_words + 1) // MAX_BATCH_TOKENS)
        assert all(len(s.tokens) <= MAX_BATCH_TOKENS for s in found)
        assert [t for s in found for t in s.tokens] == [t for s in uncut for t in s.tokens]
        assert all(s.negation_scopes == detect_negation(s.tokens, TRIGGERS) for s in found)


class TestUnitAbbreviationEndsSentence:
    """A unit abbreviation after a number ends its sentence before a
    capital, so a negation before the unit does not reach past it."""

    def test_worked_example(self, resources):
        doc = parse_document("Defects: No crack at 10 ft. Fracture at 12 ft.", "d")
        report = rate_document(doc, resources)
        assert len(doc.sentences) == 2
        assert [(e["text"], e["negated"]) for e in report.entities if e["type"] == "Defect"] == [
            ("crack", True), ("fracture", False)]
        assert report.weights.defect == 0.8

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 999), m=st.integers(0, 999), unit=st.sampled_from(["ft.", "in."]),
           data=st.data())
    def test_second_term_never_negated(self, resources, n, m, unit, data):
        triggers = resources.triggers
        trigger_words = {w for p in triggers.pre_triggers + triggers.scope_terminators
                         for w in p.split()}
        terms = sorted(t for t in resources.lexicon.entries if trigger_words.isdisjoint(t.split()))
        first, second = data.draw(st.sampled_from(terms)), data.draw(st.sampled_from(terms))
        head = f"No {first} at {n} {unit} "
        body = f"{head}{second.capitalize()} at {m} ft."
        found = preprocess_section(body, 0, resources.spell_vocab, triggers,
                                   resources.abbreviations)
        assert len(found) == 2, body
        for sentence in found:
            for k, token in enumerate(sentence.tokens):
                if len(head) <= token.raw_span[0] < len(head) + len(second):
                    assert not any(s <= k < e for s, e in sentence.negation_scopes), body


# Test oracles: a character-by-character normalizer and splitter, a
# whitespace chunker and a linear phrase matcher, which the properties
# below compare the run scanner of preprocess_section and the phrase index
# against.  The oracle preprocess_section shares no code with the scanner.


def oracle_normalize_with_map(raw):
    out, idx = [], []
    prev_space = True
    for i, ch in enumerate(raw):
        if ch.isalnum() or ch in SENTENCE_TERMINATORS:
            out.append(ch)
            idx.append(i)
            prev_space = False
        elif not prev_space:
            out.append(" ")
            idx.append(i)
            prev_space = True
    if out and out[-1] == " ":
        out.pop()
        idx.pop()
    return "".join(out), idx


def oracle_is_number(chunk):
    """Decimal digits, optionally with one '.' and more digits after it."""
    whole, dot, fraction = chunk.partition(".")
    return whole.isdecimal() and (not dot or fraction.isdecimal())


def oracle_split_sentence_spans(text, abbreviations=()):
    """Sentence spans: a chunk ending in a terminator ends one when
    whitespace and a capital follow, unless it is an abbreviation whose
    chunk before it in the sentence is not a number."""
    abbrev = {a.lower() for a in abbreviations}
    spans = []
    n = len(text)
    start = 0
    i = 0
    while i < n:
        if text[i] in SENTENCE_TERMINATORS:
            j = i
            while j > start and not text[j - 1].isspace():
                j -= 1
            before = text[start:j].split()
            after_number = bool(before) and oracle_is_number(before[-1])
            if text[j : i + 1].lower() in abbrev and i + 1 < n and not after_number:
                i += 1
                continue
            k = i + 1
            while k < n and text[k].isspace():
                k += 1
            if k == n or (k > i + 1 and text[k].isupper()):
                spans.append((start, i + 1))
                start = k
                i = k
                continue
        i += 1
    if start < n:
        spans.append((start, n))
    return spans


def oracle_chunks(sentence):
    """``(surface, start, end)`` of each whitespace-separated chunk; a
    trailing sentence terminator becomes its own chunk."""
    chunks = [(m.group(), m.start(), m.end()) for m in re.finditer(r"\S+", sentence)]
    if chunks:
        surf, s, e = chunks[-1]
        if len(surf) > 1 and surf[-1] in SENTENCE_TERMINATORS:
            chunks[-1] = (surf[:-1], s, e - 1)
            chunks.append((surf[-1], e - 1, e))
    return chunks


def oracle_match_phrase(words, i, phrases):
    """Length in tokens of the longest phrase matching at position i, or 0."""
    best = 0
    for phrase in phrases:
        parts = phrase.split()
        if len(parts) > best and words[i : i + len(parts)] == parts:
            best = len(parts)
    return best


def oracle_detect_negation(tokens, triggers):
    words = [t.normalized for t in tokens]
    n = len(words)
    scopes = []
    i = 0
    while i < n:
        tlen = oracle_match_phrase(words, i, triggers.pre_triggers)
        if not tlen:
            i += 1
            continue
        start = i + tlen
        end = min(start + NEGATION_WINDOW, n)
        for j in range(start, end):
            if oracle_match_phrase(words, j, triggers.scope_terminators):
                end = j
                break
        if end > start:
            scopes.append((start, end))
        i = start
    merged = []
    for s, e in sorted(scopes):
        if merged and s < merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def oracle_lookup(lexicon, words):
    terms = tuple(lexicon.entries)
    matches = []
    i = 0
    while i < len(words):
        length = oracle_match_phrase(words, i, terms)
        if length:
            matches.append(((i, i + length), lexicon.entries[" ".join(words[i : i + length])]))
            i += length
        else:
            i += 1
    return matches


def oracle_preprocess_section(body, body_offset, spell_vocab, triggers, abbreviations):
    norm, char_map = oracle_normalize_with_map(body)
    sentences = []
    for s, e in oracle_split_sentence_spans(norm, abbreviations):
        tokens = []
        for surf, ts, te in oracle_chunks(norm[s:e]):
            raw_start = body_offset + char_map[s + ts]
            raw_end = body_offset + char_map[s + te - 1] + 1
            tok = Token(surf, surf.lower(), (raw_start, raw_end))
            tokens.append(correct_spelling(tok, spell_vocab))
        scopes = oracle_detect_negation(tokens, triggers)
        sentences.append(Sentence(tokens, scopes))
    return sentences


# Characters where str.isalnum, str.isspace, str.isupper and the regex
# classes could disagree: underscore, non-ASCII digits and letters,
# Unicode whitespace (including the \x1c-\x1f separators), terminators.
_TRICKY = "_\u0663\u00b2\u2167\u00e9\u0130\u01c5 \t\n\x1c\x1f\u00a0\u2003\u2028\u3000.!?,#Ab1"
_UNICODE_TEXT = st.lists(
    st.one_of(
        st.sampled_from(_TRICKY), st.characters(), st.sampled_from(["ft.", "Ft.", "\u0663."])
    ),
    max_size=40,
).map("".join)
_ABBREVIATIONS = st.sampled_from([frozenset(), ABBREVS, frozenset({"ft.", "\u0663.", "_.", "a"})])

# Overlapping multiword phrases: several phrases share a first word, and a
# trigger can start a terminator or a lexicon term.
SOUP_TRIGGERS = NegationTriggerSet(
    pre_triggers=("no", "not", "no evidence of", "free of", "free", "absence of"),
    scope_terminators=("but", "apart from", "apart", "yet", "no evidence"),
)

_PHRASES = {*SOUP_TRIGGERS.pre_triggers, *SOUP_TRIGGERS.scope_terminators, "however"}
# The negation phrases, their single words, and filler.
PHRASE_PIECES = sorted(_PHRASES | {w for p in _PHRASES for w in p.split()}) + [
    "leak", "crack", "pipe", "ok",
]


def _soup(lexicon, extra=()):
    """Word lists drawn from whole phrases (lexicon terms, triggers,
    terminators) and the single words of them, so that multiword phrases
    and their prefixes both occur."""
    phrases = set(lexicon.entries) | set(SOUP_TRIGGERS.pre_triggers)
    phrases |= set(SOUP_TRIGGERS.scope_terminators)
    pieces = sorted(phrases | {w for p in phrases for w in p.split()}) + [".", "Leak", *extra]
    return st.lists(st.sampled_from(pieces), max_size=10).map(
        lambda ps: [w for p in ps for w in p.split()]
    )


class TestScannersMatchOracles:
    @settings(max_examples=200)
    @given(_UNICODE_TEXT, _ABBREVIATIONS)
    @example("Sag 10\u2003ft. Bc", ABBREVS)  # an abbreviation after Unicode whitespace
    @example("Crack.. Roots", ABBREVS)
    @example(". . . Sag", ABBREVS)
    @example("Sag at 10 ft.", ABBREVS)
    @example("Sag 10 ft. Crack", ABBREVS)  # two sentences: a unit after a number
    @example("Leak. \u01c5ebris", ABBREVS)  # a title-case letter is not upper case
    @example("Leak.\u2003Crack", ABBREVS)
    def test_normalize_and_split_on_arbitrary_unicode(self, raw, abbreviations):
        for body in (raw, oracle_normalize_with_map(raw)[0]):
            args = (body, 7, NO_SPELLING, TRIGGERS, abbreviations)
            assert preprocess_section(*args) == oracle_preprocess_section(*args)

    @settings(max_examples=100)
    @given(_UNICODE_TEXT, _ABBREVIATIONS)
    def test_preprocess_section_on_arbitrary_unicode(self, resources, raw, abbreviations):
        args = (raw, 7, resources.spell_vocab, resources.triggers, abbreviations)
        assert preprocess_section(*args) == oracle_preprocess_section(*args)

    @settings(max_examples=200)
    @given(st.data())
    def test_negation_and_lookup_on_word_soup(self, lexicon, data):
        words = data.draw(_soup(lexicon))
        tokens = [Token(w, w.lower(), (0, len(w))) for w in words]
        for triggers in (SOUP_TRIGGERS, TRIGGERS):
            assert detect_negation(tokens, triggers) == oracle_detect_negation(tokens, triggers)
        normalized = [t.normalized for t in tokens]
        assert lexicon.lookup(normalized) == oracle_lookup(lexicon, normalized)

    @given(st.lists(st.sampled_from(PHRASE_PIECES), max_size=12))
    # a two-word terminator that starts inside the window and ends past it
    @example(["no", "leak", "pipe", "crack", "ok", "apart from"])
    # a trigger inside another trigger's scope
    @example(["no", "leak", "not", "crack", "pipe", "ok", "leak", "leak"])
    def test_negation_on_phrase_soup(self, pieces):
        tokens = [Token(w, w, (0, len(w))) for piece in pieces for w in piece.split()]
        for triggers in (SOUP_TRIGGERS, TRIGGERS):
            assert detect_negation(tokens, triggers) == oracle_detect_negation(tokens, triggers)

    @settings(max_examples=100)
    @given(st.data())
    def test_preprocess_section_on_word_soup(self, resources, data):
        words = data.draw(_soup(resources.lexicon, ["!", "?", ",", "ft.", "No", "Free"]))
        body = " ".join(words)
        for triggers in (SOUP_TRIGGERS, resources.triggers):
            args = (body, 3, resources.spell_vocab, triggers, resources.abbreviations)
            assert preprocess_section(*args) == oracle_preprocess_section(*args)


def _typo_documents(lexicon):
    """Lexicon-word soup with one-edit typos, section headers and arbitrary
    Unicode between the words."""
    words = sorted({w for term in lexicon.entries for w in term.split()})
    word = st.sampled_from(words + [".", "no", "10", "ft."])
    typo_chars = st.one_of(st.sampled_from("aeiorstx"), st.characters())
    piece = st.one_of(
        word,
        word.flatmap(lambda w: _edited(w, st.just(1), typo_chars)),
        st.sampled_from(SECTION_NAMES).map(lambda n: f"\n{n}:"),
        st.text(max_size=3),
    )
    return st.lists(piece, max_size=25).map(" ".join)


class TestRateDocumentOnTypoSoup:
    @settings(max_examples=150)
    @given(st.data())
    def test_report_or_pipedefect_error(self, resources, data):
        raw = data.draw(_typo_documents(resources.lexicon))
        try:
            doc = parse_document(raw, "fuzz")
            report = rate_document(doc, resources)
        except PipeDefectError:
            return
        for entity in report.entities:
            start, end = entity["raw_span"]
            assert 0 <= start < end <= len(doc.raw)
        vocab = resources.spell_vocab
        for sentence in doc.sentences:
            for tok in sentence.tokens:
                word = tok.surface.lower()
                if tok.normalized != word:
                    assert tok.normalized in vocab.known_terms
                    assert oracle_edit_distance(word, tok.normalized) <= MAX_EDITS


class TestRateDocumentWithBilstmOnSoup:
    @settings(max_examples=150)
    @given(st.data())
    def test_report_or_pipedefect_error(self, resources, tiny_bilstm, data):
        raw = data.draw(_typo_documents(resources.lexicon))
        try:
            doc = parse_document(raw, "fuzz")
            report = rate_document(doc, resources, tagger=BILSTM_TAGGER, model=tiny_bilstm)
        except PipeDefectError:
            return
        for entity in report.entities:
            start, end = entity["raw_span"]
            assert 0 <= start < end <= len(doc.raw)
