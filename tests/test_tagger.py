import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_network import reference_step

from pipedefect import network
from pipedefect.corpus import GoldEntity, Sentence, Token, parse_document
from pipedefect.lexicon import NUMBER_RE, Lexicon
from pipedefect.network import init_model
from pipedefect.pipeline import BILSTM_TAGGER, preprocess_document, tag_document
from pipedefect.rating import rate_frames
from pipedefect.tagger import (
    CATEGORY_TO_TAG,
    MAX_BATCH_TOKENS,
    TAG_TO_ENTITY_TYPE,
    Entity,
    PatternTable,
    Tag,
    dictionary_tag,
    entity_text,
    extract_entities,
    predict_document_tags,
    predict_tags,
    tags_from_gold_spans,
)

PATTERNS = PatternTable(
    size_units=frozenset({"inch", "inches", "in", "mm"}),
    distance_units=frozenset({"feet", "foot", "ft", "meters"}),
)
NO_PATTERNS = PatternTable(frozenset(), frozenset())


def bare_sentence(words, scopes=()):
    pos = 0
    tokens = []
    for w in words:
        tokens.append(Token(surface=w, normalized=w.lower(), raw_span=(pos, pos + len(w))))
        pos += len(w) + 1
    return Sentence(tokens=tokens, negation_scopes=list(scopes))


class TestDictionaryTag:
    def test_frequency_then_defect(self, lexicon):
        tags = dictionary_tag(bare_sentence(["Frequently", "leaks"]), lexicon)
        assert tags == [Tag.FREQUENCY, Tag.DEFECT]

    def test_unknown_tokens_all_o(self, lexicon):
        tags = dictionary_tag(bare_sentence(["qqq", "zzz"]), lexicon)
        assert tags == [Tag.O, Tag.O]

    def test_multiword_span(self, lexicon):
        tags = dictionary_tag(bare_sentence(["deposits", "settled", "here"]), lexicon)
        assert tags == [Tag.DEFECT, Tag.DEFECT, Tag.O]

    def test_idempotent(self, lexicon):
        sent = bare_sentence(["very", "frequently", "leaks", "at", "midpoint"])
        assert dictionary_tag(sent, lexicon) == dictionary_tag(sent, lexicon)

    def test_dict_features_match_tags(self, lexicon):
        # the network reads the tags as its dict feature indices
        sent = bare_sentence(["frequently", "leaks", "at", "midpoint"])
        feats = np.asarray(dictionary_tag(sent, lexicon))
        assert feats.dtype == np.int64 and feats.tolist() == [3, 1, 0, 2]


class TestPredictTags:
    def test_zero_projection_ties_break_to_o(self, lexicon):
        model = init_model(["leaks"], seed=0, word_dim=4, dict_dim=3, hidden_dim=4)
        model.out_w[:] = 0.0
        model.out_b[:] = 0.0
        sent = bare_sentence(["frequently", "leaks"])
        assert predict_tags(sent, lexicon, model) == [Tag.O, Tag.O]

    def test_output_length(self, lexicon):
        model = init_model(["a"], seed=1, word_dim=4, dict_dim=3, hidden_dim=4)
        sent = bare_sentence(["a", "b", "c", "d"])
        assert len(predict_tags(sent, lexicon, model)) == 4

    def test_empty_sentence(self, lexicon):
        model = init_model(["a"], seed=1, word_dim=4, dict_dim=3, hidden_dim=4)
        assert predict_tags(bare_sentence([]), lexicon, model) == []


WORDS = ("frequently", "leaks", "pipe", "crack", "at", "midpoint", "roots", "qqq")
# Two tags whose reference logits differ by less than this are a tie that
# the order of floating-point sums may break either way.
TIE_MARGIN = 1e-9


def lively_model():
    model = init_model(list(WORDS[:6]), seed=3, word_dim=5, dict_dim=3, hidden_dim=6)
    model.out_w *= 20.0
    return model


def reference_logits(sentence, lexicon, model):
    """Per-token logits from the one-step oracle, one sentence at a time."""
    xs = [np.concatenate([model.word_emb[model.token_index(t.normalized)], model.dict_emb[f]])
          for t, f in zip(sentence.tokens, dictionary_tag(sentence, lexicon))]
    hd = model.hidden_dim

    def run(params, order):
        h, c, out = np.zeros(hd), np.zeros(hd), {}
        for t in order:
            h, c = reference_step(xs[t], h, c, params)
            out[t] = h
        return out

    fwd = run(model.fwd, range(len(xs)))
    bwd = run(model.bwd, reversed(range(len(xs))))
    return np.array([np.concatenate([fwd[t], bwd[t]]) @ model.out_w + model.out_b
                     for t in range(len(xs))])


class TestPredictDocumentTags:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=12),
                    min_size=1, max_size=6))
    @example([["pipe", "leaks"], [], ["frequently"]])
    @example([[]])
    def test_matches_each_sentence_alone_and_the_oracle(self, lexicon, doc_words):
        model = lively_model()
        sentences = [bare_sentence(words) for words in doc_words]
        batched = predict_document_tags(sentences, lexicon, model)
        assert batched == [predict_tags(s, lexicon, model) for s in sentences]
        for sentence, tags in zip(sentences, batched):
            assert len(tags) == len(sentence.tokens)
            if not tags:
                continue
            ref = reference_logits(sentence, lexicon, model)
            chosen = ref[np.arange(len(tags)), [int(t) for t in tags]]
            assert np.all(ref.max(axis=1) - chosen <= TIE_MARGIN)

    @pytest.fixture
    def batch_shapes(self, monkeypatch):
        """(sentences, tokens) of every direction pass, one step_order call each."""
        shapes = []
        order_of = network.step_order

        def counting(lengths, reverse):
            shapes.append((len(lengths), sum(lengths)))
            return order_of(lengths, reverse)

        monkeypatch.setattr(network, "step_order", counting)
        return shapes

    def test_one_batch_per_document(self, resources, batch_shapes):
        doc = parse_document("Defects: Roots at the midpoint. Pipe leaks frequently. "
                             "Crack near the joint.", "batched")
        preprocess_document(doc, resources)
        assert len(doc.sentences) == 3
        frames = tag_document(doc, resources, tagger=BILSTM_TAGGER, model=lively_model())
        assert len(frames) == 3
        assert [rows for rows, _ in batch_shapes] == [3, 3]

    def test_long_document_runs_in_bounded_batches(self, lexicon, batch_shapes):
        model = lively_model()
        lengths = [3 + k % 10 for k in range(40)] + [MAX_BATCH_TOKENS + 9] + [5] * 20
        sentences = [bare_sentence([WORDS[(k + j) % len(WORDS)] for j in range(n)])
                     for k, n in enumerate(lengths)]
        batched = predict_document_tags(sentences, lexicon, model)
        assert len(batch_shapes) > 4
        assert sum(rows for rows, _ in batch_shapes) == 2 * len(sentences)
        assert (1, MAX_BATCH_TOKENS + 9) in batch_shapes
        assert all(tokens <= MAX_BATCH_TOKENS for rows, tokens in batch_shapes if rows > 1)
        assert batched == [predict_tags(s, lexicon, model) for s in sentences]

    def test_run_on_document_runs_in_bounded_passes(self, resources, batch_shapes):
        n = 2000
        doc = parse_document(" ".join(WORDS[k % len(WORDS)] for k in range(n)), "run-on")
        preprocess_document(doc, resources)
        frames = tag_document(doc, resources, tagger=BILSTM_TAGGER, model=lively_model())
        assert len(frames) == len(doc.sentences) > 1
        assert sum(tokens for _, tokens in batch_shapes) == 2 * n
        assert all(tokens <= MAX_BATCH_TOKENS for _, tokens in batch_shapes)

    @pytest.mark.parametrize("tagger, message", [
        (BILSTM_TAGGER, "bilstm tagger requires a trained model"),
        ("crf", "unknown tagger 'crf'"),
    ])
    def test_tagger_without_its_model_or_name_refused(self, resources, tagger, message):
        doc = preprocess_document(parse_document("Defects: Pipe leaks.", "d"), resources)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tag_document(doc, resources, tagger=tagger)


def of_type(entities, entity_type):
    return [e for e in entities if e.entity_type == entity_type]


class TestExtractEntities:
    def test_negated_defect(self, lexicon):
        sent = bare_sentence(["no", "leaks"], scopes=[(1, 2)])
        defects = of_type(extract_entities(sent, [Tag.O, Tag.DEFECT], PATTERNS, lexicon), "Defect")
        assert len(defects) == 1
        assert defects[0].negated is True
        assert defects[0].seed_root == "leak"

    def test_distance_pattern(self, lexicon):
        words = ["10", "feet", "away", "from", "pipe", "installation"]
        sent = bare_sentence(words)
        entities = extract_entities(sent, [Tag.O] * 6, PATTERNS, lexicon)
        locations = of_type(entities, "LocationOfDefect")
        assert len(locations) == 1
        assert locations[0].token_range == (0, 2)
        assert locations[0].entity_type == "LocationOfDefect"

    def test_size_pattern(self, lexicon):
        sent = bare_sentence(["crack", "of", "3", "inches"])
        sizes = of_type(extract_entities(sent, [Tag.O] * 4, PATTERNS, lexicon), "SizeOfDefect")
        assert len(sizes) == 1
        assert sizes[0].token_range == (2, 4)

    def test_unit_with_trailing_dot(self, lexicon):
        sent = bare_sentence(["10", "ft."])
        entities = extract_entities(sent, [Tag.O, Tag.O], PATTERNS, lexicon)
        assert len(of_type(entities, "LocationOfDefect")) == 1

    def test_pattern_needs_o_tags(self, lexicon):
        # a token already claimed by a keyword tag cannot join a pattern
        sent = bare_sentence(["10", "feet"])
        entities = extract_entities(sent, [Tag.O, Tag.LOCATION], PATTERNS, lexicon)
        assert all(e.token_range != (0, 2) for e in of_type(entities, "LocationOfDefect"))

    def test_all_o_empty_frame(self, lexicon):
        sent = bare_sentence(["nothing", "here"])
        assert extract_entities(sent, [Tag.O, Tag.O], PATTERNS, lexicon) == []

    def test_maximal_runs(self, lexicon):
        sent = bare_sentence(["deposits", "settled", "at", "midpoint"])
        tags = [Tag.DEFECT, Tag.DEFECT, Tag.O, Tag.LOCATION]
        entities = extract_entities(sent, tags, PATTERNS, lexicon)
        defects = of_type(entities, "Defect")
        assert [e.token_range for e in defects] == [(0, 2)]
        assert [e.token_range for e in of_type(entities, "LocationOfDefect")] == [(3, 4)]
        assert defects[0].matched_lexicon_term == "deposits settled"

    def test_entity_text(self, lexicon):
        sent = bare_sentence(["Deposits", "Settled"])
        (entity,) = extract_entities(sent, [Tag.DEFECT, Tag.DEFECT], PATTERNS, lexicon)
        assert entity_text(sent, entity) == "deposits settled"

    def test_run_splits_at_each_lexicon_hit(self, lexicon):
        sent = bare_sentence(["often", "rarely", "cracks", "leaks", "near", "joint"])
        tags = [Tag.FREQUENCY] * 2 + [Tag.DEFECT] * 4
        entities = extract_entities(sent, tags, PATTERNS, lexicon)
        assert [(e.token_range, e.matched_lexicon_term, e.seed_root) for e in entities] == [
            ((0, 1), "often", "often"),
            ((1, 2), "rarely", "rarely"),
            ((2, 3), "cracks", "crack"),
            ((3, 6), "leaks", "leak"),
        ]

    def test_uncovered_tokens_stay_with_a_hit(self, lexicon):
        # a run with one hit stays one entity, whichever side of the hit
        # its uncovered tokens lie; a run with no hit has no term
        for words, term in ((["crack", "near"], "crack"), (["near", "crack"], "crack"),
                            (["near", "joint"], None)):
            sent = bare_sentence(words)
            (entity,) = extract_entities(sent, [Tag.DEFECT, Tag.DEFECT], PATTERNS, lexicon)
            assert (entity.token_range, entity.matched_lexicon_term) == ((0, 2), term)

    def test_a_term_of_another_category_stays_in_the_run(self, lexicon):
        # "often" is a Frequency term and "upstream" a Location term: inside
        # a Defect or a Frequency run neither splits it or names a piece
        sent = bare_sentence(["cracks", "often", "upstream"])
        for tags, want in (
            ([Tag.DEFECT, Tag.DEFECT, Tag.O], [("Defect", (0, 2), "cracks")]),
            ([Tag.DEFECT, Tag.FREQUENCY, Tag.FREQUENCY],
             [("Defect", (0, 1), "cracks"), ("FrequencyOfDefects", (1, 3), "often")]),
            ([Tag.FREQUENCY] * 3, [("FrequencyOfDefects", (0, 3), "often")]),
            ([Tag.O, Tag.O, Tag.DEFECT], [("Defect", (2, 3), None)]),
        ):
            entities = extract_entities(sent, tags, PATTERNS, lexicon)
            assert [(e.entity_type, e.token_range, e.matched_lexicon_term)
                    for e in entities] == want, tags
        weights = rate_frames("d", [extract_entities(sent, [Tag.DEFECT] * 2 + [Tag.O],
                                                     PATTERNS, lexicon)]).weights
        assert weights.defect == 0.8
        report = rate_frames("d", [extract_entities(sent, [Tag.DEFECT] + [Tag.FREQUENCY] * 2,
                                                    PATTERNS, lexicon)])
        assert (report.weights.frequencies, report.weights.defect) == (0.99, 0.8)
        assert not any("skipped" in note for note in report.notes)

    @given(st.lists(st.sampled_from(list(Tag)), max_size=15))
    def test_entity_count_equals_runs(self, lexicon, tags):
        words = [f"w{k}" for k in range(len(tags))]
        sent = bare_sentence(words)
        entities = extract_entities(sent, tags, PATTERNS, lexicon)
        runs = 0
        prev = Tag.O
        for t in tags:
            if t != Tag.O and t != prev:
                runs += 1
            prev = t
        assert len(entities) == runs


def longest_match_hits(words, lexicon):
    """(start, term) of each lexicon hit in words, by brute force: at each
    position the longest joined stretch that is a term, then on past it."""
    hits = []
    i = 0
    while i < len(words):
        for k in range(len(words) - i, 0, -1):
            term = " ".join(words[i : i + k])
            if term in lexicon.entries:
                hits.append((i, term))
                i += k
                break
        else:
            i += 1
    return hits


def reference_extract_entities(sentence, tags, patterns, lexicon):
    """Two-pass reference sorted into token order: maximal same-tag runs,
    one entity per longest-match hit of the run's category, then
    number+unit pairs."""

    def intersects(span, scopes):
        return any(span[0] < e and s < span[1] for s, e in scopes)

    words = [t.normalized for t in sentence.tokens]
    scopes = sentence.negation_scopes
    entities = []
    i = 0
    n = len(tags)
    while i < n:
        if tags[i] == Tag.O:
            i += 1
            continue
        j = i
        while j < n and tags[j] == tags[i]:
            j += 1
        hits = [(i + s, term) for s, term in longest_match_hits(words[i:j], lexicon)
                if CATEGORY_TO_TAG[lexicon.entries[term].category] == tags[i]]
        hits = hits or [(i, None)]
        # a token belongs to the last hit starting at or before it, else to the first
        owners = [max([0] + [k for k, (s, _) in enumerate(hits) if s <= t]) for t in range(i, j)]
        for k, (_, term) in enumerate(hits):
            own = [t for t, o in zip(range(i, j), owners) if o == k]
            span = (own[0], own[-1] + 1)
            root = lexicon.entries[term].seed_root if term else None
            entities.append(Entity(TAG_TO_ENTITY_TYPE[tags[i]], span, intersects(span, scopes),
                                   term, root))
        i = j
    for i in range(n - 1):
        if tags[i] != Tag.O or tags[i + 1] != Tag.O:
            continue
        if not NUMBER_RE.match(words[i]):
            continue
        unit = words[i + 1].rstrip(".")
        if unit in patterns.distance_units:
            etype = "LocationOfDefect"
        elif unit in patterns.size_units:
            etype = "SizeOfDefect"
        else:
            continue
        entities.append(Entity(etype, (i, i + 2), intersects((i, i + 2), scopes)))
    return sorted(entities, key=lambda e: e.token_range)


# Numbers the pattern regex must accept or reject: \d is any Unicode
# decimal digit ("\u0663", Arabic-Indic three), but not "\u00b2".
NUMBERS = ["10", "3.5", "0.", ".5", "1.2.3", "\u0663", "\u0663.\u0665", "\u00b2", "3\u00b2", "x1"]
UNITS = sorted(PATTERNS.size_units | PATTERNS.distance_units)


@st.composite
def _tagged_sentence(draw, lexicon):
    """Words from lexicon terms and their single words, numbers and units
    with and without a trailing dot, under any tags and negation scopes.
    Number+unit pairs and runs of whole terms are drawn as one piece, so
    that one tag per piece often covers them."""
    terms = sorted(lexicon.entries)
    words = sorted(set(terms) | {w for term in terms for w in term.split()})
    number = st.sampled_from(NUMBERS)
    unit = st.sampled_from(UNITS + [u + "." for u in UNITS])
    piece = st.one_of(
        st.sampled_from(words),
        st.lists(st.sampled_from(terms), min_size=2, max_size=3).map(" ".join),
        number,
        unit,
        st.tuples(number, unit).map(" ".join),
        st.just("."),
    )
    pieces = [p.split() for p in draw(st.lists(piece, max_size=10))]
    tokens = [w for p in pieces for w in p]
    n = len(tokens)
    tag = st.sampled_from([Tag.O, Tag.O, Tag.O, *Tag])  # O most often: a pattern needs two
    if draw(st.booleans()):
        tags = draw(st.lists(tag, min_size=n, max_size=n))
    else:  # one tag per piece
        piece_tags = draw(st.lists(tag, min_size=len(pieces), max_size=len(pieces)))
        tags = [t for p, t in zip(pieces, piece_tags) for _ in p]
    starts = draw(st.lists(st.tuples(st.integers(0, n), st.integers(1, 5)), max_size=3))
    scopes = [(s, min(s + k, n)) for s, k in starts if s < n]
    return bare_sentence(tokens, scopes), tags


class TestExtractEntitiesMatchesReference:
    @settings(max_examples=300)
    @given(st.data())
    def test_same_frames(self, lexicon, data):
        sentence, tags = data.draw(_tagged_sentence(lexicon))
        lex = data.draw(st.sampled_from([Lexicon(), lexicon]))
        patterns = data.draw(st.sampled_from([NO_PATTERNS, PATTERNS]))
        assert extract_entities(sentence, tags, patterns, lex) == reference_extract_entities(
            sentence, tags, patterns, lex
        )

    def test_non_ascii_digits(self, lexicon):
        sentence = bare_sentence(["\u0663", "ft", "\u00b2", "ft", "\u0663.\u0665", "in."])
        tags = [Tag.O] * 6
        entities = extract_entities(sentence, tags, PATTERNS, lexicon)
        assert entities == reference_extract_entities(sentence, tags, PATTERNS, lexicon)
        assert [e.token_range for e in entities] == [(0, 2), (4, 6)]


class TestTagsFromGoldSpans:
    def test_spans_map_to_tags(self, resources):
        from pipedefect.corpus import parse_document
        from pipedefect.pipeline import preprocess_document

        raw = "Frequently leaks at midpoint."
        doc = preprocess_document(parse_document(raw, "d"), resources)
        gold = [
            GoldEntity("FrequencyOfDefects", (0, 10)),
            GoldEntity("Defect", (11, 16)),
            GoldEntity("LocationOfDefect", (20, 28)),
        ]
        (tags,) = tags_from_gold_spans(doc.sentences, gold)
        assert tags == [Tag.FREQUENCY, Tag.DEFECT, Tag.O, Tag.LOCATION, Tag.O]

    def test_size_spans_stay_o(self, resources):
        from pipedefect.corpus import parse_document
        from pipedefect.pipeline import preprocess_document

        raw = "Crack of 3 inches."
        doc = preprocess_document(parse_document(raw, "d"), resources)
        gold = [GoldEntity("SizeOfDefect", (9, 17))]
        (tags,) = tags_from_gold_spans(doc.sentences, gold)
        assert all(t == Tag.O for t in tags)


class TestPatternTable:
    def test_load(self, tmp_path):
        path = tmp_path / "patterns.txt"
        path.write_text("size\tinch, mm\ndistance\tfeet\n")
        table = PatternTable.load(path)
        assert table.size_units == frozenset({"inch", "mm"})
        assert table.distance_units == frozenset({"feet"})

    def test_malformed_rejected(self, tmp_path):
        from pipedefect.errors import LexiconFormatError

        path = tmp_path / "patterns.txt"
        # an unknown kind, an empty unit from a trailing or doubled comma,
        # and units no token can match: one the scanner splits, and one
        # whose dot the unit lookup strips
        rows = ("weight\tkg", "distance\tft, feet,", "size\tinch,,mm",
                "size\tinch,sq in", "distance\tft.,feet")
        for row in rows:
            path.write_text(f"# units\n{row}\n")
            with pytest.raises(LexiconFormatError, match=f"^{re.escape(str(path))}:2: "):
                PatternTable.load(path)
