import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipedefect.corpus import Token
from pipedefect.preprocess import (
    NegationTriggerSet,
    SpellVocabulary,
    correct_spelling,
    detect_negation,
    edit_distance,
    normalize_text,
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


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("leak", "leak") == 0

    def test_transposed_letters(self):
        assert edit_distance("laeks", "leaks") == 2

    def test_cap_exceeded(self):
        assert edit_distance("aaaa", "bbbb", cap=2) == 3

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_symmetric(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)


def brute_force_correction(word, vocab):
    """Reference corrector: scan every known term, keep the smallest
    (distance, term) within the budget."""
    if word in vocab.known_terms or len(word) < 3 or not any(ch.isalpha() for ch in word):
        return word
    best = None
    best_dist = vocab.max_edit_distance + 1
    for term in vocab.known_terms:
        d = edit_distance(word, term, cap=vocab.max_edit_distance)
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
        chars = list(draw(st.sampled_from(sorted(terms))))
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(chars)))
            op = draw(st.sampled_from(["insert", "delete", "substitute"]))
            if op == "insert":
                chars.insert(i, draw(st.sampled_from("abcd")))
            elif chars and i < len(chars):
                if op == "delete":
                    del chars[i]
                else:
                    chars[i] = draw(st.sampled_from("abcd"))
        word = "".join(chars)
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

    @settings(max_examples=500)
    @given(_vocab_and_word())
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
