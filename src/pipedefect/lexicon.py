"""Lexicon construction: seed terms, morphological variants, and
breadth-first synonym-graph expansion with per-seed blacklists.

The knowledge base is a plain file of ``term <TAB> relation <TAB> term``
edges (relation ``syn`` or ``ant``).  Antonym edges stop traversal: the
antonyms a seed meets are logged at INFO level for auditing, and never
enter the lexicon as same-category terms.

logging is imported inside expand_synonyms, its one user, not at the top:
only build-lexicon and generate expand seeds, so rating never loads it.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field

from .errors import ConfigError, LexiconFormatError

CATEGORIES = ("Defect", "Location", "Frequency")

ORIGIN_SEED = "seed"
ORIGIN_MORPH = "morph"

# Seeds whose noun form takes the -age suffix (leak -> leakage).
AGE_SUFFIX_SEEDS = frozenset({"leak", "block", "seep", "spill"})


def read_rows(path, n_fields: int, form: str):
    """``(lineno, fields)`` for each row of a UTF-8 file of tab-separated
    fields; ``#`` starts a comment and lines blank without it are skipped.

    A row without ``n_fields`` fields raises LexiconFormatError naming
    ``path:line`` and ``form``; an unreadable file raises ConfigError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise LexiconFormatError(f"{path}:{lineno}: expected '{form}'")
        yield lineno, fields


SENTENCE_TERMINATORS = ".!?"

# Runs of kept characters: [^\W_] is exactly str.isalnum.  Preprocessing
# makes each run one token, so a data-file term can match text only when
# each of its words is one run.
_KEPT_CHAR = rf"(?:[^\W_]|[{re.escape(SENTENCE_TERMINATORS)}])"
KEPT_RUN_RE = re.compile(rf"{_KEPT_CHAR}+")

# A number token: its unit makes a measurement, and a unit abbreviation
# after it can end a sentence.
NUMBER_RE = re.compile(r"^\d+(\.\d+)?$")

# check_term's rules: the pattern a term must match in full, and what it
# states.  The sentence splitter compares an abbreviation with a whole run
# ending in a terminator; the unit lookup strips a token's trailing dots.
_TERM_RULES = {
    "term": (
        re.compile(rf"{_KEPT_CHAR}+(?:\s+{_KEPT_CHAR}+)*"),
        "words that are each one run of letters, digits and '.!?'",
    ),
    "abbreviation": (
        re.compile(rf"{_KEPT_CHAR}*[{re.escape(SENTENCE_TERMINATORS)}]"),
        "one run of letters, digits and '.!?' ending in one of '.!?'",
    ),
    "unit": (
        re.compile(rf"{_KEPT_CHAR}+(?<!\.)"),
        "one run of letters, digits and '.!?' not ending in '.'",
    ),
}


def check_term(path, lineno: int, term: str, rule: str) -> str:
    """``term`` if it matches ``rule`` ("term", "abbreviation" or "unit");
    otherwise no token can match it, and LexiconFormatError names
    ``path:line``."""
    pattern, expected = _TERM_RULES[rule]
    if not pattern.fullmatch(term):
        raise LexiconFormatError(
            f"{path}:{lineno}: {term!r} can never match a token: expected {expected}"
        )
    return term


def origin_depth(origin: str) -> int:
    if origin.startswith("syn"):
        return int(origin[3:])
    return 0


@dataclass(frozen=True)
class LexiconEntry:
    term: str
    category: str
    origin: str  # "seed", "morph", or "syn<k>" with k >= 1
    seed_root: str

    def __post_init__(self):
        if not self.term or self.term != self.term.lower():
            raise ValueError(f"term must be non-empty lowercase: {self.term!r}")
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if self.origin.startswith("syn") and origin_depth(self.origin) < 1:
            raise ValueError(f"synonym depth must be >= 1: {self.origin!r}")


class SynonymGraph:
    """Undirected term graph with 'syn' and 'ant' edges."""

    def __init__(self):
        self.nodes: set[str] = set()
        self._adj: dict[str, list[tuple[str, str]]] = {}

    def add_edge(self, a: str, b: str, relation: str) -> None:
        if relation not in ("syn", "ant"):
            raise ValueError(f"relation must be syn or ant, got {relation!r}")
        if a == b:
            raise ValueError(f"self-edge on {a!r}")
        for term in (a, b):
            self.nodes.add(term)
            self._adj.setdefault(term, [])
        self._adj[a].append((b, relation))
        self._adj[b].append((a, relation))

    def neighbors(self, term: str, relation: str) -> list[str]:
        return sorted(t for t, rel in self._adj.get(term, []) if rel == relation)

    @classmethod
    def load(cls, path) -> "SynonymGraph":
        graph = cls()
        for lineno, (a, relation, b) in read_rows(path, 3, "term<TAB>syn|ant<TAB>term"):
            a, b = (check_term(path, lineno, t.lower(), "term") for t in (a, b))
            try:
                graph.add_edge(a, b, relation)
            except ValueError as exc:
                raise LexiconFormatError(f"{path}:{lineno}: {exc}") from exc
        return graph


@dataclass
class Blacklist:
    per_seed: dict[str, set[str]] = field(default_factory=dict)

    def banned(self, seed: str) -> set[str]:
        return self.per_seed.get(seed, set())

    @classmethod
    def load(cls, path) -> "Blacklist":
        per_seed: dict[str, set[str]] = {}
        for lineno, (seed, term) in read_rows(path, 2, "seed<TAB>term"):
            per_seed.setdefault(seed.lower(), set()).add(
                check_term(path, lineno, term.lower(), "term")
            )
        return cls(per_seed)


class PhraseIndex:
    """First word -> the phrases (word tuples) that start with it, longest
    first, so a match at a position costs one dict lookup plus a compare
    per phrase sharing that word.  ``scan`` is the one walk over tokens that
    the lexicon and negation detection both take."""

    def __init__(self, phrases=()):
        self._by_first: dict[str, list[tuple[str, ...]]] = {}
        for phrase in phrases:
            self.add(phrase)

    def add(self, phrase: str) -> None:
        words = tuple(phrase.split())
        bucket = self._by_first.setdefault(words[0], [])
        if words not in bucket:
            bucket.append(words)
            bucket.sort(key=len, reverse=True)

    def scan(self, tokens: list[str], start: int = 0):
        """``(position, phrase)`` of each longest match from ``start``, left
        to right and never overlapping: after a match the walk goes on at
        the token past it."""
        i, n = start, len(tokens)
        while i < n:
            for words in self._by_first.get(tokens[i], ()):
                if len(words) == 1 or tuple(tokens[i : i + len(words)]) == words:
                    yield i, words
                    i += len(words)
                    break
            else:
                i += 1


class Lexicon:
    """Term -> entry map with a longest-match index over multiword terms."""

    def __init__(self, entries: dict[str, LexiconEntry] | None = None):
        self.entries: dict[str, LexiconEntry] = {}
        self._index = PhraseIndex()
        for entry in (entries or {}).values():
            self.add(entry)

    def add(self, entry: LexiconEntry) -> None:
        self.entries[entry.term] = entry
        self._index.add(entry.term)

    def __len__(self):
        return len(self.entries)

    def __contains__(self, term: str) -> bool:
        return term in self.entries

    def vocabulary(self) -> set[str]:
        """Individual words appearing in any term (for spelling correction)."""
        words: set[str] = set()
        for term in self.entries:
            words.update(term.split())
        return words

    def lookup(self, tokens: list[str]) -> list[tuple[tuple[int, int], LexiconEntry]]:
        """Longest-match, left-to-right, non-overlapping matches."""
        return [
            ((i, i + len(words)), self.entries[" ".join(words)])
            for i, words in self._index.scan(tokens)
        ]


def expand_morphology(seed: str) -> list[str]:
    """Seed plus suffix variants: -s, -ing / -ed with e-drop, and -age for
    seeds in the rule table."""
    stem = seed[:-1] if seed.endswith("e") else seed
    variants = [seed, seed + "s", stem + "ing", stem + "ed"]
    if seed in AGE_SUFFIX_SEEDS:
        variants.append(seed + "age")
    out = []
    for v in variants:
        if v not in out:
            out.append(v)
    return out


def _bfs_synonyms(
    seed: str, graph: SynonymGraph, banned: set[str], max_depth: int
) -> tuple[dict[str, int], set[str]]:
    """Depths of terms reachable from seed via syn edges, skipping banned
    nodes entirely; also the antonyms seen at traversal boundaries."""
    depths: dict[str, int] = {seed: 0}
    antonyms: set[str] = set()
    queue = deque([(seed, 0)])
    while queue:
        term, d = queue.popleft()
        antonyms.update(graph.neighbors(term, "ant"))
        if d == max_depth:
            continue
        for nxt in graph.neighbors(term, "syn"):
            if nxt in banned or nxt in depths:
                continue
            depths[nxt] = d + 1
            queue.append((nxt, d + 1))
    del depths[seed]
    return depths, antonyms


def expand_synonyms(
    seeds: list[tuple[str, str]],
    graph: SynonymGraph,
    blacklist: Blacklist,
    max_depth: int,
) -> Lexicon:
    """Build the lexicon from (term, category) seeds.

    Each seed contributes itself, its morphological variants (single-word
    Defect seeds only: a frequency adverb or a location word has no verb
    or plural form), and its breadth-first synonym closure up to max_depth.
    On term collisions the smaller depth wins; ties go to the
    lexicographically smaller seed_root (seed beats morph beats synonym at
    equal depth).
    """
    import logging

    log = logging.getLogger(__name__)
    # (depth, origin_rank, seed_root) orders collision resolution
    candidates: list[tuple[int, int, str, LexiconEntry]] = []
    seed_only: list[str] = []
    for seed, category in seeds:
        seed = seed.lower()
        banned = blacklist.banned(seed)
        candidates.append((0, 0, seed, LexiconEntry(seed, category, ORIGIN_SEED, seed)))
        if category == "Defect" and " " not in seed:
            for variant in expand_morphology(seed)[1:]:
                if variant in banned:
                    continue
                candidates.append(
                    (0, 1, seed, LexiconEntry(variant, category, ORIGIN_MORPH, seed))
                )
        if seed not in graph.nodes:
            seed_only.append(seed)
            continue
        depths, ants = _bfs_synonyms(seed, graph, banned, max_depth)
        if ants:
            log.info("seed %r: antonyms recorded, not added: %s", seed, sorted(ants))
        for term, depth in depths.items():
            candidates.append(
                (depth, 2, seed, LexiconEntry(term, category, f"syn{depth}", seed))
            )
    if seed_only:
        log.warning(
            "%d seeds not in synonym graph; kept as seed-only: %s",
            len(seed_only), ", ".join(map(repr, seed_only)),
        )
    lexicon = Lexicon()
    for _, _, _, entry in sorted(candidates, key=lambda c: (c[3].term, c[:3])):
        if entry.term not in lexicon:  # sorted, so a term's first candidate wins
            lexicon.add(entry)
    return lexicon


def save_lexicon(lexicon: Lexicon, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for term in sorted(lexicon.entries):
            e = lexicon.entries[term]
            fh.write(f"{e.term}\t{e.category}\t{e.origin}\t{e.seed_root}\n")


def load_lexicon(path) -> Lexicon:
    lexicon = Lexicon()
    form = "term<TAB>category<TAB>origin<TAB>seed_root"
    for lineno, (term, category, origin, seed_root) in read_rows(path, 4, form):
        if term in lexicon:
            raise LexiconFormatError(f"{path}:{lineno}: duplicate term {term!r}")
        check_term(path, lineno, term, "term")
        try:
            lexicon.add(LexiconEntry(term, category, origin, seed_root))
        except ValueError as exc:
            raise LexiconFormatError(f"{path}:{lineno}: {exc}") from exc
    return lexicon


def load_seeds(path) -> list[tuple[str, str]]:
    """Seed file: ``term <TAB> category`` per line, at least one."""
    seeds = []
    form = "term<TAB>category"
    for lineno, (term, category) in read_rows(path, 2, form):
        if category not in CATEGORIES:
            raise LexiconFormatError(f"{path}:{lineno}: expected '{form}'")
        seeds.append((check_term(path, lineno, term.lower(), "term"), category))
    if not seeds:
        raise LexiconFormatError(f"{path}: no seeds: expected '{form}' lines")
    return seeds
