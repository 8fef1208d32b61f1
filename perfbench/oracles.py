"""Independent checks of the pipeline's outputs.

Each oracle is written from the documented behaviour, not from the
program's code: the paper's rating table, plain Levenshtein distance over
the spelling vocabulary, and the LSTM gate equations.  They are slow and
simple on purpose.
"""

from __future__ import annotations

import math

import numpy as np

# The paper's rating table, transcribed: every (w_frequencies, w_location,
# w_defect) triple -> (rating, gap).  gap marks the triples the table does
# not define; they default to rating 1.
RATING_TABLE: dict[tuple[float, float, float], tuple[int, bool]] = {}
for _loc in (0.9, 1.0):
    for _freq in (0.1, 0.25, 0.50, 0.75, 0.99):
        RATING_TABLE[(_freq, _loc, 0.5)] = (1, False)
    for _dfx in (0.8, 1.0):
        RATING_TABLE[(0.1, _loc, _dfx)] = (1, True)
        RATING_TABLE[(0.25, _loc, _dfx)] = (2, False)
        RATING_TABLE[(0.50, _loc, _dfx)] = (3, False)
        RATING_TABLE[(0.75, _loc, _dfx)] = (4, False)
        RATING_TABLE[(0.99, _loc, _dfx)] = (5, False)

# Frequency term -> band, from the paper's frequency scale.
FREQUENCY_BANDS = {
    "none": 0.1, "very rarely": 0.1,
    "rarely": 0.25, "seldom": 0.25,
    "moderate": 0.50, "moderately": 0.50,
    "moderate to frequently": 0.75,
    "frequent": 0.99, "frequently": 0.99, "very frequently": 0.99,
    "more frequently": 0.99, "several": 0.99, "often": 0.99, "oftenly": 0.99,
}

ENTITY_TAG = {"Defect": 1, "LocationOfDefect": 2, "FrequencyOfDefects": 3, "SizeOfDefect": 0}


class OracleError(AssertionError):
    pass


def expected_weights(entities) -> tuple[float, float, float]:
    """Weight triple from (type, negated, term, root) tuples.

    Negated entities count for nothing.  w_frequencies is the highest band
    of a frequency term (its seed root when the term itself has none),
    0.1 when there is none; w_location is 0.9 for exactly one location,
    else 1.0; w_defect is 0.5 / 0.8 / 1.0 for 0 / 1 / 2+ distinct defect
    roots.
    """
    freq, locations, roots = 0.1, 0, set()
    for k, (etype, negated, term, root) in enumerate(entities):
        if negated:
            continue
        if etype == "FrequencyOfDefects":
            band = FREQUENCY_BANDS.get(term, FREQUENCY_BANDS.get(root))
            if band is None:
                raise OracleError(f"frequency term {term!r} has no band")
            freq = max(freq, band)
        elif etype == "LocationOfDefect":
            locations += 1
        elif etype == "Defect":
            roots.add(root or term or k)
    defect = 0.5 if not roots else 0.8 if len(roots) == 1 else 1.0
    return freq, 0.9 if locations == 1 else 1.0, defect


def expected_rating(entities) -> tuple[tuple[float, float, float], int]:
    triple = expected_weights(entities)
    return triple, RATING_TABLE[triple][0]


def gold_entities(raw: str, gold, lexicon) -> list[tuple]:
    """Oracle tuples for gold spans of a generated document.

    The generator negates only in its "No <defect> found." sentence, so an
    entity is negated exactly when the word before it is "no".
    """
    out = []
    for ge in gold:
        start, end = ge.span
        term = raw[start:end].lower()
        negated = raw[:start].split()[-1:] == ["No"]
        entry = lexicon.entries.get(term)
        out.append((ge.entity_type, negated, term, entry.seed_root if entry else None))
    return out


def reported_entities(report) -> list[tuple]:
    return [
        (e["type"], e["negated"], e["matched_term"], e["seed_root"]) for e in report.entities
    ]


def check_rating(report, entities) -> None:
    triple, rating = expected_rating(entities)
    w = report.weights
    got = (w.frequencies, w.location, w.defect)
    if got != triple or report.rating.value != rating:
        raise OracleError(
            f"{report.document_id}: weights {got} rating {report.rating.value}, "
            f"oracle {triple} rating {rating}"
        )


# ---------------------------------------------------------------------------
# spelling
# ---------------------------------------------------------------------------


def levenshtein(a: str, b: str) -> int:
    """Full dynamic-programming table, no early exit."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[len(a)][len(b)]


def spelling_vocabulary(lexicon, base_words) -> frozenset[str]:
    """Every word of every lexicon term plus the base word list, lowercased."""
    words = {w for term in lexicon.entries for w in term.split()}
    return frozenset(words | {w.lower() for w in base_words})


def is_search(word: str, vocab: frozenset[str]) -> bool:
    """Whether the corrector must search the vocabulary for this word."""
    return word not in vocab and len(word) >= 3 and any(ch.isalpha() for ch in word)


class SpellingOracle:
    """Expected correction of each word, memoized per distinct word."""

    def __init__(self, vocab: frozenset[str], max_distance: int = 2):
        self.vocab = vocab
        self.max_distance = max_distance
        self.memo: dict[str, str] = {}

    def expected(self, word: str) -> str:
        if not is_search(word, self.vocab):
            return word
        if word not in self.memo:
            # a term whose length differs by more than the budget is farther
            near = [t for t in self.vocab if abs(len(t) - len(word)) <= self.max_distance]
            best = min(((levenshtein(word, t), t) for t in near), default=(math.inf, word))
            self.memo[word] = best[1] if best[0] <= self.max_distance else word
        return self.memo[word]

    def check_token(self, token) -> None:
        word = token.surface.lower()
        want = self.expected(word)
        if token.normalized != want:
            raise OracleError(f"token {token.surface!r} -> {token.normalized!r}, oracle {want!r}")


# ---------------------------------------------------------------------------
# Bi-LSTM
# ---------------------------------------------------------------------------


def _direction(xs: np.ndarray, wx, wh, b) -> np.ndarray:
    """h_t for one direction: z = x Wx + h Wh + b, gates [i, f, o, g]."""
    hidden = wh.shape[0]
    h, c = np.zeros(hidden), np.zeros(hidden)
    out = []
    for x in xs:
        z = x @ wx + h @ wh + b
        i = 1.0 / (1.0 + np.exp(-z[:hidden]))
        f = 1.0 / (1.0 + np.exp(-z[hidden : 2 * hidden]))
        o = 1.0 / (1.0 + np.exp(-z[2 * hidden : 3 * hidden]))
        g = np.tanh(z[3 * hidden :])
        c = f * c + i * g
        h = o * np.tanh(c)
        out.append(h)
    return np.array(out)


def reference_logits(token_ids, dict_feats, model) -> np.ndarray:
    """Per-token tag scores of the Bi-LSTM tagger, one token at a time."""
    xs = np.concatenate([model.word_emb[token_ids], model.dict_emb[dict_feats]], axis=1)
    fwd = _direction(xs, model.fwd.wx, model.fwd.wh, model.fwd.b)
    bwd = _direction(xs[::-1], model.bwd.wx, model.bwd.wh, model.bwd.b)[::-1]
    return np.concatenate([fwd, bwd], axis=1) @ model.out_w + model.out_b


# Two tags whose reference scores differ by less than this are a tie that
# the order of floating-point sums may break either way.
TIE_MARGIN = 1e-9


def check_tags(predicted, logits: np.ndarray, where: str) -> None:
    want = np.argmax(logits, axis=1)
    for k, (got, best) in enumerate(zip(predicted, want)):
        if int(got) != int(best) and logits[k, best] - logits[k, int(got)] > TIE_MARGIN:
            raise OracleError(f"{where} token {k}: tag {int(got)}, reference {int(best)}")


def gold_tags(sentence, gold) -> list[int]:
    """Tag of the first gold span each token overlaps; sizes are untagged."""
    tags = []
    for tok in sentence.tokens:
        tag = 0
        for ge in gold:
            if tok.raw_span[0] < ge.span[1] and ge.span[0] < tok.raw_span[1]:
                tag = ENTITY_TAG[ge.entity_type]
                break
        tags.append(tag)
    return tags
