"""Text normalization, sentence splitting, tokenization, spelling, negation.

The sentence splitter is a deterministic rule-based replacement for a full
statistical parser: it splits on ``. ! ?`` followed by whitespace and a
capital letter (or end of text), with an abbreviation exception list.
Negation marking follows the classic trigger/scope recipe: a pre-trigger
phrase opens a scope that runs to the first scope terminator, a fixed
token window, or the sentence end, whichever comes first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property

from .corpus import Sentence, Token
from .lexicon import PhraseIndex, read_rows

SENTENCE_TERMINATORS = ".!?"

NEGATION_WINDOW = 5


@dataclass(frozen=True)
class NegationTriggerSet:
    pre_triggers: tuple[str, ...]
    scope_terminators: tuple[str, ...]

    def __post_init__(self):
        for phrase in self.pre_triggers + self.scope_terminators:
            if not phrase.split() or phrase != phrase.lower():
                raise ValueError(f"trigger phrase must be non-empty lowercase: {phrase!r}")

    @cached_property
    def pre_index(self) -> PhraseIndex:
        return PhraseIndex(self.pre_triggers)

    @cached_property
    def terminator_index(self) -> PhraseIndex:
        return PhraseIndex(self.scope_terminators)


@dataclass(frozen=True)
class SpellVocabulary:
    known_terms: frozenset[str]
    max_edit_distance: int = 2

    def __post_init__(self):
        if self.max_edit_distance not in (1, 2):
            raise ValueError("max_edit_distance must be 1 or 2")

    @cached_property
    def _delete_index(self) -> dict[str, str | tuple[str, ...]]:
        """Symmetric-delete index (Garbe's SymSpell): every deletion of up
        to ``max_edit_distance`` characters of each known term -> that term,
        or a tuple of terms when several produce the same deletion.

        Built on the first search, so runs that never search never pay for
        it.  Most deletions come from one term, so a bare string is stored
        for those instead of a one-element container.
        """
        index: dict[str, str | tuple[str, ...]] = {}
        for term in self.known_terms:
            for key in _deletions(term, self.max_edit_distance):
                hit = index.get(key)
                if hit is None:
                    index[key] = term
                elif isinstance(hit, str):
                    index[key] = (hit, term)
                else:
                    index[key] = hit + (term,)
        return index

    @cached_property
    def _longest_term(self) -> int:
        return max(map(len, self.known_terms), default=0)

    def candidates(self, word: str, depth: int) -> set[str]:
        """Known terms sharing a key with ``word``'s deletions of up to
        ``depth`` characters: a superset of the terms within ``depth`` of it.

        A Levenshtein alignment of cost k deletes at most k characters from
        each side (a substitution is one deletion on each side), so every
        term within ``depth <= max_edit_distance`` shares such a key.
        """
        if len(word) > self._longest_term + depth:
            return set()
        index = self._delete_index
        found: set[str] = set()
        for key in _deletions(word, depth):
            hit = index.get(key)
            if hit is None:
                continue
            if isinstance(hit, str):
                found.add(hit)
            else:
                found.update(hit)
        return found


def _deletions(word: str, depth: int) -> set[str]:
    """``word`` and every string made by deleting up to ``depth`` of its
    characters."""
    found = level = {word}
    for _ in range(depth):
        level = {w[:i] + w[i + 1 :] for w in level for i in range(len(w))}
        found = found | level
    return found


def load_phrase_file(path) -> tuple[str, ...]:
    """One phrase per line, '#' starts a comment."""
    return tuple(phrase.lower() for _, (phrase,) in read_rows(path, 1, "phrase"))


def normalize_text(raw: str) -> str:
    return _normalize_with_map(raw)[0]


# Runs of kept characters: [^\W_] is exactly str.isalnum.
_KEPT_RE = re.compile(rf"(?:[^\W_]|[{re.escape(SENTENCE_TERMINATORS)}])+")


def _normalize_with_map(raw: str) -> tuple[str, list[int]]:
    """Normalize and keep, per output char, its source index in ``raw``.

    Characters outside letters/digits/whitespace/sentence punctuation are
    replaced by a space; whitespace runs collapse to a single space;
    leading/trailing whitespace is dropped.  Case is preserved.  A space
    maps to the first dropped character after the run it follows.
    """
    out: list[str] = []
    idx: list[int] = []
    for m in _KEPT_RE.finditer(raw):
        start, end = m.span()
        if out:
            out.append(" ")
            idx.append(prev_end)
        out.append(m.group())
        idx.extend(range(start, end))
        prev_end = end
    return "".join(out), idx


def split_sentences(text: str, abbreviations: tuple[str, ...] = ()) -> list[str]:
    return [text[s:e] for s, e in split_sentence_spans(text, abbreviations)]


_TERMINATOR_RE = re.compile(f"[{re.escape(SENTENCE_TERMINATORS)}]")


def split_sentence_spans(
    text: str, abbreviations: tuple[str, ...] = ()
) -> list[tuple[int, int]]:
    """Sentence spans over normalized text.

    A terminator splits when followed by whitespace and a capital letter,
    or at end of text.  A terminator ending an abbreviation from the
    exception list (matched with its dot, e.g. "ft.") never splits except
    at end of text.
    """
    abbrev = {a.lower() for a in abbreviations}
    spans: list[tuple[int, int]] = []
    n = len(text)
    start = 0
    for m in _TERMINATOR_RE.finditer(text):
        i = m.start()
        k = i + 1
        while k < n and text[k].isspace():
            k += 1
        if k < n and (k == i + 1 or not text[k].isupper()):
            continue
        if abbrev and i + 1 < n:
            j = i
            while j > start and not text[j - 1].isspace():
                j -= 1
            if text[j : i + 1].lower() in abbrev:
                continue
        spans.append((start, i + 1))
        start = k
    if start < n:
        spans.append((start, n))
    return spans


_CHUNK_RE = re.compile(r"\S+")


def _chunks(sentence: str) -> list[tuple[str, int, int]]:
    """``(surface, start, end)`` of each whitespace-separated chunk; a
    trailing sentence terminator becomes its own chunk."""
    chunks = [(m.group(), m.start(), m.end()) for m in _CHUNK_RE.finditer(sentence)]
    if chunks:
        surf, s, e = chunks[-1]
        if len(surf) > 1 and surf[-1] in SENTENCE_TERMINATORS:
            chunks[-1] = (surf[:-1], s, e - 1)
            chunks.append((surf[-1], e - 1, e))
    return chunks


def tokenize(sentence: str) -> list[Token]:
    """Whitespace tokenization; a trailing sentence terminator becomes its
    own token."""
    return [Token(surf, surf.lower(), (s, e)) for surf, s, e in _chunks(sentence)]


def edit_distance(a: str, b: str, cap: int | None = None) -> int:
    """Levenshtein distance; with ``cap``, any distance above it reads
    ``cap + 1``.

    Bit-parallel (Myers 1999; Hyyrö 2003): bit i of the vertical delta
    vectors ``pv``/``mv`` says whether row i + 1 of the current DP column
    is one more/one less than row i, and ``peq`` holds, per character, the
    positions of ``a`` where it occurs.  Python ints have no word size, so
    one column costs a few integer operations for any length of ``a``.
    """
    if a == b:
        return 0
    if cap is not None and abs(len(a) - len(b)) > cap:
        return cap + 1
    if not a:
        return len(b)
    peq: dict[str, int] = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    high = bit >> 1
    pv, mv, dist = mask, 0, len(a)
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & high:
            dist += 1
        elif mh & high:
            dist -= 1
        ph = (ph << 1) | 1  # row 0 of the DP grows by one per column
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return dist if cap is None or dist <= cap else cap + 1


def correct_spelling(token: Token, vocab: SpellVocabulary) -> Token:
    """Replace ``normalized`` by the closest vocabulary term within the
    edit-distance budget; ties break lexicographically.

    Tokens without letters (numbers, punctuation) and tokens shorter than
    three characters are left alone: correcting them is far more likely to
    corrupt measurements ("10") and stopwords ("a") than to fix typos.
    """
    word = token.normalized
    if word in vocab.known_terms:
        return token
    if len(word) < 3 or not any(ch.isalpha() for ch in word):
        return token
    # Depth by depth: depth-d keys reach every term within distance d, ties
    # included, so the first depth whose best candidate is within it is
    # the answer, and no deeper key can find a closer or tied term.
    for depth in range(1, vocab.max_edit_distance + 1):
        candidates = vocab.candidates(word, depth)
        dist, best = min(
            ((edit_distance(word, term, cap=depth), term) for term in candidates),
            default=(depth + 1, None),
        )
        if dist <= depth:
            return replace(token, normalized=best)
    return token


def detect_negation(
    tokens: list[Token], triggers: NegationTriggerSet
) -> list[tuple[int, int]]:
    """Token-index scopes (start, end exclusive), sorted and merged."""
    words = [t.normalized for t in tokens]
    n = len(words)
    pre, terminators = triggers.pre_index, triggers.terminator_index
    scopes: list[tuple[int, int]] = []
    i = 0
    while i < n:
        trigger = pre.match(words, i)
        if trigger:
            start = i + len(trigger)
            end = min(start + NEGATION_WINDOW, n)
            for j in range(start, end):
                if terminators.match(words, j):
                    end = j
                    break
            if end > start:
                scopes.append((start, end))
            i = start
        else:
            i += 1
    merged: list[tuple[int, int]] = []
    for s, e in sorted(scopes):
        if merged and s < merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def preprocess_section(
    body: str,
    section: str,
    body_offset: int,
    spell_vocab: SpellVocabulary | None,
    triggers: NegationTriggerSet,
    abbreviations: tuple[str, ...] = (),
) -> list[Sentence]:
    """Full per-section pipeline; token raw spans point into the document."""
    norm, char_map = _normalize_with_map(body)
    sentences: list[Sentence] = []
    for s, e in split_sentence_spans(norm, abbreviations):
        text = norm[s:e]
        tokens: list[Token] = []
        for surf, ts, te in _chunks(text):
            raw_span = (body_offset + char_map[s + ts], body_offset + char_map[s + te - 1] + 1)
            tok = Token(surf, surf.lower(), (ts, te), raw_span)
            if spell_vocab is not None:
                tok = correct_spelling(tok, spell_vocab)
            tokens.append(tok)
        scopes = detect_negation(tokens, triggers)
        sentences.append(
            Sentence(text=text, tokens=tokens, negation_scopes=scopes, section=section)
        )
    return sentences
