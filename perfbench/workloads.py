"""Benchmark inputs, all made from the workload seed.

Documents come from the program's synthetic generator.  Typos are added
here, by a noisy-channel model applied to the generated text, with the
gold spans moved to match.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass

from pipedefect import corpus
from pipedefect.corpus import GoldEntity
from pipedefect.generate import GeneratorConfig, generate_synthetic_corpus

EDIT_KINDS = ("insert", "delete", "substitute", "transpose")
_WORD_RE = re.compile(r"[A-Za-z]{4,}")


@dataclass(frozen=True)
class Edit:
    kind: str
    old_word: tuple[int, int]  # the word's span in the original text
    new_word: tuple[int, int]  # the edited word's span in the new text


@dataclass
class BenchDoc:
    id: str
    raw: str
    gold: list[GoldEntity]
    rating: int
    edits: tuple[Edit, ...] = ()


def generate(lexicon, n: int, seed: int) -> list[BenchDoc]:
    docs, golds = generate_synthetic_corpus(GeneratorConfig(n_documents=n, lexicon=lexicon), seed)
    return [BenchDoc(d.id, d.raw, list(g.entities), g.rating) for d, g in zip(docs, golds)]


def _edit_word(word: str, rng: random.Random) -> tuple[str, str]:
    """One random edit that keeps the first letter, so capitals that start
    a sentence (and with them the sentence split) survive."""
    kind = rng.choice(EDIT_KINDS)
    swappable = [p for p in range(1, len(word) - 1) if word[p] != word[p + 1]]
    if kind == "transpose" and not swappable:
        kind = "substitute"
    if kind == "insert":
        p = rng.randint(1, len(word))
        return kind, word[:p] + rng.choice(string.ascii_lowercase) + word[p:]
    if kind == "delete":
        p = rng.randint(1, len(word) - 1)
        return kind, word[:p] + word[p + 1 :]
    if kind == "substitute":
        p = rng.randint(1, len(word) - 1)
        letter = rng.choice([c for c in string.ascii_lowercase if c != word[p].lower()])
        return kind, word[:p] + letter + word[p + 1 :]
    p = rng.choice(swappable)
    return kind, word[:p] + word[p + 1] + word[p] + word[p + 2 :]


def apply_edits(doc: BenchDoc, words: list[tuple[int, int]], rng: random.Random) -> BenchDoc:
    """Edit the given words (spans into doc.raw, ascending) and shift gold spans.

    A gold boundary moves by the length change of every edited word that
    ends at or before it.  Edits keep a word's first letter, so a span that
    starts with an edited word keeps its start.
    """
    pieces, edits, shifts = [], [], []  # shifts: (old word end, length change)
    pos = delta = 0
    for start, end in words:
        kind, new = _edit_word(doc.raw[start:end], rng)
        pieces += [doc.raw[pos:start], new]
        edits.append(Edit(kind, (start, end), (start + delta, start + delta + len(new))))
        delta += len(new) - (end - start)
        shifts.append((end, len(new) - (end - start)))
        pos = end
    pieces.append(doc.raw[pos:])

    def moved(offset: int) -> int:
        return offset + sum(d for e, d in shifts if e <= offset)

    gold = [GoldEntity(g.entity_type, (moved(g.span[0]), moved(g.span[1]))) for g in doc.gold]
    return BenchDoc(doc.id, "".join(pieces), gold, doc.rating, tuple(edits))


def add_typos(docs: list[BenchDoc], share: float, seed: int) -> list[BenchDoc]:
    """In each document, edit floor(share * n + 1/2) of its n words of four
    or more letters, chosen at random from the section bodies; headers stay
    intact."""
    rng = random.Random(seed)
    out = []
    for doc in docs:
        parsed = corpus.parse_document(doc.raw, doc.id)
        words = [(m.start(), m.end())
                 for start, end in parsed.section_spans.values()
                 for m in _WORD_RE.finditer(doc.raw, start, end)]
        chosen = sorted(rng.sample(words, int(share * len(words) + 0.5)))
        out.append(apply_edits(doc, chosen, rng))
    return out
