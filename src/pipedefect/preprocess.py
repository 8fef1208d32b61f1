"""Text normalization, sentence splitting, tokenization, spelling, negation.

The sentence splitter is a deterministic rule-based replacement for a full
statistical parser: it splits on ``. ! ?`` followed by whitespace and a
capital letter (or end of text), with an abbreviation exception list
that a unit abbreviation after a number ("10 ft.") does not take.
Negation marking follows the classic trigger/scope recipe: a pre-trigger
phrase opens a scope that runs to the first scope terminator, a fixed
token window, or the sentence end, whichever comes first.
"""

from __future__ import annotations

from functools import cached_property

from .corpus import Sentence, Token
from .lexicon import (KEPT_RUN_RE, NUMBER_RE, SENTENCE_TERMINATORS, PhraseIndex, check_term,
                      read_rows)
from .tagger import MAX_BATCH_TOKENS

NEGATION_WINDOW = 5


class NegationTriggerSet:
    def __init__(self, pre_triggers: tuple[str, ...], scope_terminators: tuple[str, ...]):
        self.pre_triggers, self.scope_terminators = pre_triggers, scope_terminators  # lowercase
        self.pre_index = PhraseIndex(pre_triggers)
        self.terminator_index = PhraseIndex(scope_terminators)


class SpellVocabulary:
    def __init__(self, known_terms: frozenset[str]):
        self.known_terms = known_terms

    @cached_property
    def _delete_index(self) -> dict[str, tuple[str, ...]]:
        """Symmetric-delete index (Garbe's SymSpell): every deletion of up
        to two characters of each known term -> the terms that give it.

        Built on the first search, so runs that never search never pay for
        it.  Most keys come from one term, and a tuple holds one in less
        memory than a list.
        """
        index: dict[str, tuple[str, ...]] = {}
        for term in self.known_terms:
            for key in _deletions(term, 2):
                index[key] = index.get(key, ()) + (term,)
        return index

    @cached_property
    def _longest_term(self) -> int:
        return max(map(len, self.known_terms), default=0)


def _deletions(word: str, depth: int) -> set[str]:
    """``word`` and every string made by deleting up to ``depth`` of its
    characters."""
    found = level = {word}
    for _ in range(depth):
        level = {w[:i] + w[i + 1 :] for w in level for i in range(len(w))}
        found = found | level
    return found


def load_phrase_file(path, rule: str = "term") -> tuple[str, ...]:
    """One phrase per line, '#' starts a comment, lowercased; each must
    pass lexicon.check_term's ``rule``."""
    return tuple(
        check_term(path, lineno, phrase.lower(), rule)
        for lineno, (phrase,) in read_rows(path, 1, "phrase")
    )


def within_edits(a: str, b: str, k: int) -> bool:
    """Whether the Levenshtein distance between ``a`` and ``b`` is at most
    ``k``.

    A common prefix costs nothing.  Once it is stripped, the first
    characters differ, so an alignment substitutes, deletes or inserts
    there: three branches at ``k - 1``, so at most 3**k paths.
    """
    if abs(len(a) - len(b)) > k:
        return False
    if k == 0:
        return a == b
    n = min(len(a), len(b))
    p = 0
    while p < n and a[p] == b[p]:
        p += 1
    a, b = a[p:], b[p:]
    if not a or not b:
        return True  # the distance is the length gap
    return (within_edits(a[1:], b[1:], k - 1) or within_edits(a[1:], b, k - 1)
            or within_edits(a, b[1:], k - 1))


def correct_spelling(token: Token, vocab: SpellVocabulary) -> Token:
    """Replace ``normalized`` by the closest vocabulary term within two
    edits (Levenshtein); ties break lexicographically.

    Tokens without letters (numbers, punctuation) and tokens shorter than
    three characters are left alone: correcting them is far more likely to
    corrupt measurements ("10") and stopwords ("a") than to fix typos.
    """
    word = token.normalized
    if word in vocab.known_terms:
        return token
    if len(word) < 3 or not any(map(str.isalpha, word)):
        return token
    if len(word) > vocab._longest_term + 2:
        return token  # the distance is at least the length gap
    # A Levenshtein alignment of cost k deletes at most k characters from
    # each side (a substitution is one deletion on each side), so every term
    # within k edits shares a key with the word's deletions of up to k
    # characters.  The pairs skip j < i, which would repeat a pair.
    index = vocab._delete_index
    dels = [word[:i] + word[i + 1 :] for i in range(len(word))]
    near = {term for key in (word, *dels) for term in index.get(key, ())}
    best = _smallest_within(word, near, 1)
    if best is None:
        pairs = (key[:j] + key[j + 1 :] for i, key in enumerate(dels) for j in range(i, len(key)))
        far = {term for key in pairs for term in index.get(key, ())}
        best = _smallest_within(word, near | far, 2)
    if best is None:
        return token
    return Token(token.surface, best, token.raw_span)


def _smallest_within(word: str, terms: set[str], k: int) -> str | None:
    return next((term for term in sorted(terms) if within_edits(word, term, k)), None)


def detect_negation(
    tokens: list[Token], triggers: NegationTriggerSet
) -> list[tuple[int, int]]:
    """Token-index scopes (start, end exclusive), sorted and merged: each
    pre-trigger opens one, ending at the first scope terminator that starts
    within NEGATION_WINDOW tokens, or at the window's or sentence's end."""
    words = [t.normalized for t in tokens]
    scopes: list[tuple[int, int]] = []
    for i, trigger in triggers.pre_index.scan(words):
        start = i + len(trigger)
        stop = min(start + NEGATION_WINDOW, len(words))
        end, _ = next(triggers.terminator_index.scan(words, start, stop), (stop, None))
        if end == start:
            continue
        if scopes and start < scopes[-1][1]:
            scopes[-1] = (scopes[-1][0], max(scopes[-1][1], end))
        else:
            scopes.append((start, end))
    return scopes


def preprocess_section(
    body: str,
    body_offset: int,
    spell_vocab: SpellVocabulary,
    triggers: NegationTriggerSet,
    abbreviations: frozenset[str],
) -> list[Sentence]:
    """Full per-section pipeline; token raw spans point into the document.

    One scan over the runs of kept characters (letters, digits, sentence
    terminators) in ``body``; every other character is dropped and case is
    preserved.  Each run is one token.  A sentence ends after a run ending
    in a terminator when the next run starts with a capital letter, unless
    the run, lowercased, is in ``abbreviations`` (lowercase and matched
    with their dot, e.g. "ft.") and the run before it in the sentence is
    not a number (so "at 10 ft. Crack" ends after "ft."), and at the end of
    the body.  A terminator ending the last run of a sentence becomes its
    own token.

    A sentence over tagger.MAX_BATCH_TOKENS tokens, terminator included, is
    cut into sentences of at most that many, so one Bi-LSTM pass bounds it:
    a lexicon term straddling a cut is lost, and a negation scope stops there.
    """
    groups: list[list[tuple[str, int]]] = []  # (run, start in body) per sentence
    run = ""
    for m in KEPT_RUN_RE.finditer(body):
        prev, run = run, m.group()
        if not prev or (
            prev[-1] in SENTENCE_TERMINATORS
            and run[0].isupper()
            and (prev.lower() not in abbreviations
                 or len(group) > 1 and NUMBER_RE.match(group[-2][0]))
        ):
            group: list[tuple[str, int]] = []
            groups.append(group)
        group.append((run, m.start()))
    known = spell_vocab.known_terms
    sentences: list[Sentence] = []
    for group in groups:
        last, last_start = group[-1]
        split = len(last) > 1 and last[-1] in SENTENCE_TERMINATORS
        if split:
            group[-1] = (last[:-1], last_start)
        tokens: list[Token] = []
        for surf, start in group:
            raw = body_offset + start
            tokens.append(Token(surf, surf.lower(), (raw, raw + len(surf))))
        if split:  # the terminator, right after the shortened last run
            raw += len(surf)
            tokens.append(Token(last[-1], last[-1], (raw, raw + 1)))
        tokens = [
            tok if tok.normalized in known else correct_spelling(tok, spell_vocab)
            for tok in tokens
        ]
        for k in range(0, len(tokens), MAX_BATCH_TOKENS):
            piece = tokens[k : k + MAX_BATCH_TOKENS]
            sentences.append(Sentence(piece, detect_negation(piece, triggers)))
    return sentences
