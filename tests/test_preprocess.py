from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipedefect.corpus import SECTION_NAMES, Sentence, Token, parse_document
from pipedefect.errors import PipeDefectError
from pipedefect.pipeline import BILSTM_TAGGER, rate_document
from pipedefect.preprocess import (
    NEGATION_WINDOW,
    SENTENCE_TERMINATORS,
    NegationTriggerSet,
    SpellVocabulary,
    _normalize_with_map,
    correct_spelling,
    detect_negation,
    edit_distance,
    normalize_text,
    preprocess_section,
    split_sentence_spans,
    split_sentences,
    tokenize,
)

ABBREVS = ("ft.", "in.", "no.")

TRIGGERS = NegationTriggerSet(
    pre_triggers=("no", "not", "without", "free of"),
    scope_terminators=("but", "however"),
)


def toks(text):
    return tokenize(normalize_text(text))


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
        assert [t.surface for t in tokenize("Frequent leaks.")] == ["Frequent", "leaks", "."]

    def test_spans(self):
        spans = [t.char_span for t in tokenize("10 feet away")]
        assert spans == [(0, 2), (3, 7), (8, 12)]

    def test_empty(self):
        assert tokenize("") == []

    def test_lone_terminator(self):
        assert [t.surface for t in tokenize(".")] == ["."]

    def test_normalized_lowercase(self):
        assert [t.normalized for t in tokenize("No Leaks")] == ["no", "leaks"]

    @given(st.text(alphabet="ab1 .", max_size=60))
    def test_spans_reconstruct_sentence(self, text):
        for tok in tokenize(text):
            s, e = tok.char_span
            assert text[s:e] == tok.surface
        covered = set()
        for tok in tokenize(text):
            covered.update(range(*tok.char_span))
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
    def test_identity(self):
        assert edit_distance("leak", "leak") == 0

    def test_transposed_letters(self):
        assert edit_distance("laeks", "leaks") == 2

    def test_cap_exceeded(self):
        assert edit_distance("aaaa", "bbbb", cap=2) == 3

    def test_cap_reads_cap_plus_one_above_it(self):
        assert edit_distance("abcdef", "fedcba", cap=2) == 3
        assert edit_distance("abcdef", "fedcba", cap=0) == 1

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_symmetric(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @settings(max_examples=200)
    @given(_string_pair())
    @example(("", ""))
    @example(("", "\U0001f600"))
    @example(("a" * 70, "a" * 69 + "b"))
    def test_matches_dynamic_programming_table(self, pair):
        a, b = pair
        exact = oracle_edit_distance(a, b)
        assert edit_distance(a, b) == exact
        for cap in (0, 1, 2, 3):
            assert edit_distance(a, b, cap=cap) == min(exact, cap + 1)


def brute_force_correction(word, vocab):
    """Reference corrector: scan every known term, keep the smallest
    (distance, term) within the budget."""
    if word in vocab.known_terms or len(word) < 3 or not any(ch.isalpha() for ch in word):
        return word
    best = None
    best_dist = vocab.max_edit_distance + 1
    for term in vocab.known_terms:
        if abs(len(word) - len(term)) > vocab.max_edit_distance:
            continue  # the distance is at least the length gap
        d = oracle_edit_distance(word, term)
        if d < best_dist or (d == best_dist and (best is None or term < best)):
            best = term
            best_dist = d
    if best is None or best_dist > vocab.max_edit_distance:
        return word
    return best


# A three-letter alphabet makes repeated letters, short terms and several
# terms at the same distance from a word (ties) common.
_TERMS = st.text(alphabet="abc", min_size=1, max_size=5)


@st.composite
def _vocab_and_word(draw):
    terms = draw(st.frozensets(_TERMS, min_size=8, max_size=40))
    vocab = SpellVocabulary(terms, max_edit_distance=draw(st.sampled_from([1, 2])))
    if draw(st.booleans()):
        word = draw(st.text(alphabet="abc1", max_size=8))
    else:  # a few random edits away from a known term
        term = draw(st.sampled_from(sorted(terms)))
        word = draw(_edited(term, st.integers(1, 3), st.sampled_from("abcd")))
    return vocab, word


class TestCorrectSpelling:
    VOCAB = SpellVocabulary(frozenset({"leaks", "cracks", "holes", "pipe"}))

    def make(self, word):
        return Token(surface=word, normalized=word.lower(), char_span=(0, len(word)))

    def test_typo_corrected(self):
        assert correct_spelling(self.make("Laeks"), self.VOCAB).normalized == "leaks"

    def test_in_vocab_unchanged(self):
        tok = self.make("leaks")
        assert correct_spelling(tok, self.VOCAB) is tok

    def test_no_candidate_within_distance(self):
        # oracle: exhaustive scan shows every vocab term is > 2 edits away
        assert all(edit_distance("xyzq", t) > 2 for t in self.VOCAB.known_terms)
        assert correct_spelling(self.make("xyzq"), self.VOCAB).normalized == "xyzq"

    def test_numbers_never_corrected(self):
        assert correct_spelling(self.make("10"), self.VOCAB).normalized == "10"

    def test_short_tokens_never_corrected(self):
        assert correct_spelling(self.make("at"), self.VOCAB).normalized == "at"

    def test_surface_and_span_preserved(self):
        out = correct_spelling(self.make("Laeks"), self.VOCAB)
        assert out.surface == "Laeks"
        assert out.char_span == (0, 5)

    def test_tie_breaks_lexicographically(self):
        vocab = SpellVocabulary(frozenset({"cat", "bat"}), max_edit_distance=1)
        assert correct_spelling(self.make("aat"), vocab).normalized == "bat"

    @given(st.sampled_from(sorted(VOCAB.known_terms)))
    def test_identity_on_vocabulary(self, word):
        tok = self.make(word)
        assert correct_spelling(tok, self.VOCAB).normalized == word

    # "abcd": depth-1 keys reach only "abcdxy" (distance 2); the smaller
    # "abaa", also at distance 2, shares only the depth-2 key "ab".
    DEPTH_2_TIE = SpellVocabulary(frozenset({"abcdxy", "abaa"}), max_edit_distance=2)

    @settings(max_examples=500)
    @given(_vocab_and_word())
    @example((DEPTH_2_TIE, "abcd"))
    @example((SpellVocabulary(frozenset({"abcdxy", "abaa", "zbcd"})), "abcd"))
    def test_matches_brute_force_scan(self, case):
        vocab, word = case
        expected = brute_force_correction(word, vocab)
        assert correct_spelling(self.make(word), vocab).normalized == expected

    def test_length_cutoff_keeps_words_within_budget(self):
        vocab = SpellVocabulary(frozenset({"leak"}), max_edit_distance=2)
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

    def test_trigger_must_be_lowercase(self):
        with pytest.raises(ValueError):
            NegationTriggerSet(pre_triggers=("No",), scope_terminators=())

    @given(st.lists(st.sampled_from(["no", "leak", "but", "pipe", "not", "ok"]), max_size=12))
    def test_scopes_sorted_disjoint_in_bounds(self, words):
        tokens = [Token(w, w, (0, len(w))) for w in words]
        scopes = detect_negation(tokens, TRIGGERS)
        prev_end = -1
        for s, e in scopes:
            assert 0 <= s < e <= len(tokens)
            assert s >= prev_end
            prev_end = e


# Test oracles: a character-by-character normalizer and splitter and a
# linear phrase matcher, which the properties below compare the regex
# scanners and the phrase index against.


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


def oracle_split_sentence_spans(text, abbreviations=()):
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
            if text[j : i + 1].lower() in abbrev and i + 1 < n:
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


def oracle_preprocess_section(body, section, body_offset, spell_vocab, triggers, abbreviations):
    norm, char_map = oracle_normalize_with_map(body)
    sentences = []
    for s, e in oracle_split_sentence_spans(norm, abbreviations):
        tokens = []
        for tok in tokenize(norm[s:e]):
            raw_start = body_offset + char_map[s + tok.char_span[0]]
            raw_end = body_offset + char_map[s + tok.char_span[1] - 1] + 1
            tok = replace(tok, raw_span=(raw_start, raw_end))
            if spell_vocab is not None:
                tok = correct_spelling(tok, spell_vocab)
            tokens.append(tok)
        scopes = oracle_detect_negation(tokens, triggers)
        sentences.append(Sentence(norm[s:e], tokens, scopes, section))
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
_ABBREVIATIONS = st.sampled_from([(), ABBREVS, ("ft.", "\u0663.", "_.", "a")])

# Overlapping multiword phrases: several phrases share a first word, and a
# trigger can start a terminator or a lexicon term.
SOUP_TRIGGERS = NegationTriggerSet(
    pre_triggers=("no", "not", "no evidence of", "free of", "free", "absence of"),
    scope_terminators=("but", "apart from", "apart", "yet", "no evidence"),
)


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
    def test_normalize_and_split_on_arbitrary_unicode(self, raw, abbreviations):
        assert _normalize_with_map(raw) == oracle_normalize_with_map(raw)
        assert split_sentence_spans(raw, abbreviations) == oracle_split_sentence_spans(
            raw, abbreviations
        )
        norm = normalize_text(raw)
        assert split_sentence_spans(norm, abbreviations) == oracle_split_sentence_spans(
            norm, abbreviations
        )

    @settings(max_examples=100)
    @given(_UNICODE_TEXT, _ABBREVIATIONS)
    def test_preprocess_section_on_arbitrary_unicode(self, resources, raw, abbreviations):
        args = (raw, "Defects", 7, resources.spell_vocab, resources.triggers, abbreviations)
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

    @settings(max_examples=100)
    @given(st.data())
    def test_preprocess_section_on_word_soup(self, resources, data):
        words = data.draw(_soup(resources.lexicon, ["!", "?", ",", "ft.", "No", "Free"]))
        body = " ".join(words)
        for triggers in (SOUP_TRIGGERS, resources.triggers):
            args = (body, "Defects", 3, resources.spell_vocab, triggers, resources.abbreviations)
            assert preprocess_section(*args) == oracle_preprocess_section(*args)

    def test_whitespace_only_trigger_rejected(self):
        with pytest.raises(ValueError):
            NegationTriggerSet(pre_triggers=(" ",), scope_terminators=())


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
                    assert oracle_edit_distance(word, tok.normalized) <= vocab.max_edit_distance


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
