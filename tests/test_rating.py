import copy
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pipedefect.config import PipelineConfig, TrainingConfig, load_resources
from pipedefect.corpus import Document, Sentence, Token, parse_document
from pipedefect.errors import ConfigError, InvalidWeight
from pipedefect.generate import GeneratorConfig, generate_synthetic_corpus
from pipedefect.lexicon import Blacklist, save_lexicon
from pipedefect.network import init_model
from pipedefect.pipeline import (
    BILSTM_TAGGER,
    DICT_TAGGER,
    preprocess_document,
    rate_document,
)
from pipedefect.rating import (
    ACTION_TEXT,
    DEFAULT_FREQUENCY_BANDS,
    FREQUENCY_WEIGHTS,
    DefectRating,
    RatingReport,
    WeightTriple,
    assign_rating,
    rate_frames,
)
from pipedefect.tagger import Entity, PatternTable, Tag


def defect(term, root=None, negated=False):
    return Entity("Defect", (0, 1), negated, term, root or term)


def location(term="midpoint", negated=False):
    return Entity("LocationOfDefect", (0, 1), negated, term, term)


def frequency(term, negated=False):
    return Entity("FrequencyOfDefects", (0, 1), negated, term, term)


def weights(frames):
    return rate_frames("doc", frames).weights


class TestWeightLocation:
    def test_one_location(self):
        assert weights([[location()]]).location == 0.9

    def test_no_location(self):
        assert weights([[]]).location == 1.0

    def test_three_locations(self):
        frames = [[location(), location()], [location()]]
        assert weights(frames).location == 1.0

    def test_negated_location_ignored(self):
        frames = [[location(), location(negated=True)]]
        assert weights(frames).location == 0.9


class TestWeightFrequency:
    def test_very_frequently(self):
        assert weights([[frequency("very frequently")]]).frequencies == 0.99

    def test_rarely(self):
        assert weights([[frequency("rarely")]]).frequencies == 0.25

    def test_maximum_band_wins(self):
        frames = [[frequency("rarely"), frequency("frequently")]]
        assert weights(frames).frequencies == 0.99

    def test_no_terms_lowest_band(self):
        assert weights([[]]).frequencies == 0.1

    def test_negated_term_ignored(self):
        frames = [[frequency("frequently", negated=True)]]
        assert weights(frames).frequencies == 0.1

    def test_unknown_term_skipped_and_noted(self):
        # load_resources checks every Frequency lexicon term for a band, so
        # a band-less term here is a tagger's mis-tag, not a configuration fault
        bogus = Entity("FrequencyOfDefects", (0, 1), False, "sometimes", None)
        assert weights([[bogus]]).frequencies == 0.1
        assert weights([[bogus, frequency("rarely")]]).frequencies == 0.25
        report = rate_frames("doc", [[bogus, defect("crack")]])
        assert report.weights.frequencies == 0.1
        note = "frequency span at sentence 0 tokens 0-1 ('sometimes') has no frequency band; skipped"
        assert note in report.notes

    def test_seed_root_fallback(self):
        # a synonym ("seldom") resolves through its seed root when the
        # matched term itself is absent from the band table
        ent = Entity("FrequencyOfDefects", (0, 1), False, "not-in-table", "rarely")
        assert weights([[ent]]).frequencies == 0.25


class TestWeightDefect:
    def test_one_unit(self):
        assert weights([[defect("leakage", root="leak")]]).defect == 0.8

    def test_negated_only(self):
        assert weights([[defect("leaks", root="leak", negated=True)]]).defect == 0.5

    def test_two_units(self):
        frames = [[defect("leaks", root="leak"), defect("cracks", root="crack")]]
        assert weights(frames).defect == 1.0

    def test_morphology_counts_once(self):
        frames = [[defect("leak", root="leak"), defect("leaking", root="leak")]]
        assert weights(frames).defect == 0.8

    def test_empty(self):
        assert weights([]).defect == 0.5


class TestAssignRating:
    def test_worked_example(self):
        assert assign_rating(WeightTriple(0.99, 0.9, 0.8)).value == 5

    def test_nothing_found(self):
        r = assign_rating(WeightTriple(0.1, 1.0, 0.5))
        assert r.value == 1 and not r.gap_row

    def test_mid_band(self):
        assert assign_rating(WeightTriple(0.5, 1.0, 1.0)).value == 3

    def test_gap_row_flagged(self):
        r = assign_rating(WeightTriple(0.1, 1.0, 0.8))
        assert r.value == 1 and r.gap_row

    def test_action_text(self):
        assert assign_rating(WeightTriple(0.99, 1.0, 1.0)).action_text == ACTION_TEXT[5]

    def test_invalid_weight_rejected(self):
        with pytest.raises(InvalidWeight):
            WeightTriple(0.3, 1.0, 0.8)
        with pytest.raises(InvalidWeight):
            WeightTriple(0.99, 0.5, 0.8)
        with pytest.raises(InvalidWeight):
            WeightTriple(0.99, 1.0, 0.9)

    @given(
        loc=st.sampled_from((0.9, 1.0)),
        defect_w=st.sampled_from((0.8, 1.0)),
    )
    def test_monotone_in_frequency(self, loc, defect_w):
        ratings = [
            assign_rating(WeightTriple(f, loc, defect_w)).value for f in FREQUENCY_WEIGHTS
        ]
        assert ratings == sorted(ratings)

    @given(
        freq=st.sampled_from(FREQUENCY_WEIGHTS),
        defect_w=st.sampled_from((0.5, 0.8, 1.0)),
    )
    def test_location_never_changes_rating(self, freq, defect_w):
        a = assign_rating(WeightTriple(freq, 0.9, defect_w))
        b = assign_rating(WeightTriple(freq, 1.0, defect_w))
        assert (a.value, a.gap_row) == (b.value, b.gap_row)


# Banded and band-less terms; a band-less matched term drawn with a banded
# seed root takes the seed-root fallback.
_TERMS = ("rarely", "often", "leak", "crack", "sometimes", "not-in-table", None)
_entities = st.builds(
    Entity,
    entity_type=st.sampled_from(("Defect", "SizeOfDefect", "LocationOfDefect",
                                 "FrequencyOfDefects")),
    token_range=st.tuples(st.integers(0, 5), st.integers(6, 9)),
    negated=st.booleans(),
    matched_lexicon_term=st.sampled_from(_TERMS),
    seed_root=st.sampled_from(_TERMS),
)


def _active(frames, entity_type):
    return [e for entities in frames for e in entities
            if e.entity_type == entity_type and not e.negated]


def _band(entity):
    return (DEFAULT_FREQUENCY_BANDS.get(entity.matched_lexicon_term)
            or DEFAULT_FREQUENCY_BANDS.get(entity.seed_root))


def _reference_triple(frames):
    """The rules of rate_frames' docstring, one loop per weight."""
    frequency = max([0.1] + [_band(e) for e in _active(frames, "FrequencyOfDefects") if _band(e)])
    n_locations = len(_active(frames, "LocationOfDefect"))
    roots = {e.seed_root or e.matched_lexicon_term or id(e) for e in _active(frames, "Defect")}
    return WeightTriple(
        frequency,
        0.9 if n_locations == 1 else 1.0,
        {0: 0.5, 1: 0.8}.get(len(roots), 1.0),
    )


def _reference_notes(frames, triple):
    notes = ["negated entities excluded from all weights"]
    if triple.defect != 0.5 and triple.frequencies == 0.1:
        notes.append("weight triple outside the rating table; defaulted to rating 1")
    for sent_idx, entities in enumerate(frames):
        for e in _active([entities], "FrequencyOfDefects"):
            if _band(e):
                continue
            term = e.matched_lexicon_term or e.seed_root
            why = f"({term!r}) has no frequency band" if term else "has no lexicon entry"
            notes.append(f"frequency span at sentence {sent_idx} tokens"
                         f" {e.token_range[0]}-{e.token_range[1]} {why}; skipped")
    return notes


class TestRateFrames:
    def test_full_document(self):
        frames = [
            [frequency("very frequently"), defect("leakage", root="leak"), location()],
        ]
        report = rate_frames("doc", frames)
        assert report.weights == WeightTriple(0.99, 0.9, 0.8)
        assert report.rating.value == 5

    def test_empty_document(self):
        report = rate_frames("doc", [])
        assert report.weights == WeightTriple(0.1, 1.0, 0.5)
        assert report.rating.value == 1

    def test_negation_note_always_present(self):
        report = rate_frames("doc", [])
        assert any("negated" in note for note in report.notes)

    def test_gap_row_note(self):
        report = rate_frames("doc", [[defect("leaks", root="leak")]])
        assert report.rating.gap_row
        assert any("rating table" in note for note in report.notes)

    @settings(max_examples=300)
    @given(frames=st.lists(st.lists(_entities), max_size=4))
    @example(frames=[[
        Entity("SizeOfDefect", (0, 2), False, None, None),
        Entity("FrequencyOfDefects", (2, 3), True, "often", "often"),
        Entity("FrequencyOfDefects", (3, 4), False, "sometimes", None),
        Entity("FrequencyOfDefects", (4, 5), False, "not-in-table", "rarely"),
        Entity("Defect", (5, 6), False, None, None),
        Entity("Defect", (6, 7), False, None, None),
    ]])
    def test_agrees_with_one_loop_per_weight(self, frames):
        report = rate_frames("doc", frames)
        expected = _reference_triple(frames)
        assert report.weights == expected
        assert report.rating == assign_rating(expected)
        assert report.notes == _reference_notes(frames, expected)


class TestNetTaggedFrequency:
    def test_span_without_lexicon_entry_is_skipped_and_noted(self, resources):
        model = init_model(["pipe", "ok"], seed=0, word_dim=5, dict_dim=3, hidden_dim=4)
        model.out_b[Tag.FREQUENCY] = 100.0  # every token tagged FREQUENCY
        doc = parse_document("Defects: pipe ok.", "net")
        report = rate_document(doc, resources, tagger=BILSTM_TAGGER, model=model)
        (entity,) = report.entities
        assert entity["type"] == "FrequencyOfDefects"
        assert entity["matched_term"] is None and entity["seed_root"] is None
        assert report.weights.frequencies == 0.1
        assert any("no lexicon entry" in note for note in report.notes)

    def test_lexicon_term_of_another_type_is_skipped_and_noted(self, resources):
        # the model tags the whole sentence as frequency; "leaks" is a
        # Defect lexicon term, so it does not name the frequency span
        model = init_model(["pipe", "leaks", "joint"], seed=0, word_dim=5, dict_dim=3, hidden_dim=4)
        model.out_b[Tag.FREQUENCY] = 100.0
        doc = parse_document("Pipe leaks at the joint.", "net")
        report = rate_document(doc, resources, tagger=BILSTM_TAGGER, model=model)
        (entity,) = report.entities
        assert (entity["type"], entity["matched_term"]) == ("FrequencyOfDefects", None)
        assert report.weights.frequencies == 0.1
        note = "frequency span at sentence 0 tokens 0-6 has no lexicon entry; skipped"
        assert note in report.notes


def _terms(resources, category):
    return sorted(t for t, e in resources.lexicon.entries.items()
                  if e.category == category and not t.startswith("no "))


def _listed(resources, first, second, filler):
    """Rate "<First>, <second> <filler>." after checking that no lexicon
    term reaches across the comma, which the scan drops."""
    words = f"{first} {second}".split()
    cut = len(first.split())
    assume(not any(" ".join(words[i:j]) in resources.lexicon.entries
                   for i in range(cut) for j in range(cut + 1, len(words) + 1)))
    raw = f"{first[0].upper()}{first[1:]}, {second} {filler}."
    return rate_document(parse_document(raw, "listed"), resources)


class TestListedEntities:
    """Two lexicon terms listed with a comma form one same-tag run, and
    each still counts as its own entity."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_two_defect_roots(self, resources, data):
        first, second = data.draw(st.lists(st.sampled_from(_terms(resources, "Defect")),
                                           min_size=2, max_size=2))
        entries = resources.lexicon.entries
        assume(entries[first].seed_root != entries[second].seed_root)
        report = _listed(resources, first, second, "observed")
        assert [e["matched_term"] for e in report.entities] == [first, second]
        assert report.weights.defect == 1.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_two_locations(self, resources, data):
        first, second = data.draw(st.lists(st.sampled_from(_terms(resources, "Location")),
                                           min_size=2, max_size=2))
        report = _listed(resources, first, second, "observed")
        assert [e["type"] for e in report.entities] == ["LocationOfDefect"] * 2
        assert report.weights.location == 1.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_two_frequencies_give_the_higher_band(self, resources, data):
        first, second = data.draw(st.lists(st.sampled_from(_terms(resources, "Frequency")),
                                           min_size=2, max_size=2))
        entries = resources.lexicon.entries
        bands = [DEFAULT_FREQUENCY_BANDS.get(t) or DEFAULT_FREQUENCY_BANDS[entries[t].seed_root]
                 for t in (first, second)]
        for a, b in ((first, second), (second, first)):
            report = _listed(resources, a, b, "crack")
            assert report.weights.frequencies == max(bands)
            assert report.rating == assign_rating(report.weights)

    def test_worked_examples(self, resources):
        for raw, rating, triple in (
            ("Rarely, often crack.", 5, (0.99, 1.0, 0.8)),
            ("Multiple cracks, leaks often.", 5, (0.99, 1.0, 1.0)),
            ("Crack at upstream, downstream.", 1, (0.1, 1.0, 0.8)),
        ):
            report = rate_document(parse_document(raw, "d"), resources)
            w = report.weights
            assert (report.rating.value, (w.frequencies, w.location, w.defect)) == (rating, triple)


_PIECES = sorted({"at", "observed", "and", "10 ft", "3 inches", ",", ".", "No"})


@settings(max_examples=80, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("tagger", [DICT_TAGGER, BILSTM_TAGGER])
def test_report_lists_entities_in_token_order(resources, tiny_bilstm, tagger, data):
    pieces = st.sampled_from(sorted(resources.lexicon.entries) + _PIECES)
    raw = "Defects: " + " ".join(data.draw(st.lists(pieces, max_size=20)))
    model = tiny_bilstm if tagger == BILSTM_TAGGER else None
    report = rate_document(parse_document(raw, "d"), resources, tagger=tagger, model=model)
    places = [(e["sentence"], e["token_start"]) for e in report.entities]
    assert places == sorted(places), raw


class TestBandsCheckedAtLoad:
    def test_unbanded_frequency_terms_rejected_once(self, resources, tmp_path):
        path = tmp_path / "lexicon.tsv"
        save_lexicon(resources.lexicon, path)
        load_resources(PipelineConfig(lexicon=path))  # the shipped lexicon is fully banded
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("sporadically\tFrequency\tseed\tsporadically\n")
            fh.write("rarely ever\tFrequency\tsyn1\trarely\n")  # banded through its root
            fh.write("now and then\tFrequency\tsyn1\tsporadically\n")
        with pytest.raises(ConfigError) as err:
            load_resources(PipelineConfig(lexicon=path))
        assert str(err.value).endswith(": now and then, sporadically")


class TestNegatedMentionNeverRaisesRating:
    """NegEx invariant, c09 generalised: a sentence negating any lexicon
    term, appended to any generated document, never raises its rating."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_dictionary_tagger(self, resources, seed, data):
        term = data.draw(st.sampled_from(sorted(resources.lexicon.entries)))
        (doc,), _ = generate_synthetic_corpus(
            GeneratorConfig(n_documents=1, lexicon=resources.lexicon), seed=seed
        )
        base = rate_document(parse_document(doc.raw, doc.id), resources)
        raw = f"{doc.raw} No {term} found."
        extended = rate_document(parse_document(raw, doc.id), resources)
        assert extended.rating.value <= base.rating.value, raw


def _token():
    return Token("Crack", "crack", (12, 17))


def _sentence():
    return Sentence([Token("No", "no", (9, 11)), _token()], [(1, 2)])


def _document():
    doc = Document("d1", "Defects: No Crack", {"Defects": (8, 17)})
    doc.sentences = [_sentence()]
    return doc


def _entity():
    return Entity("Defect", (1, 2), True, "crack", "crack")


def _weights():
    return WeightTriple(0.99, 0.9, 0.8)


def _rating():
    return DefectRating(1, ACTION_TEXT[1], gap_row=True)


_TOKEN_REPR = "Token(surface='Crack', normalized='crack', raw_span=(12, 17))"
_SENTENCE_REPR = (
    "Sentence(tokens=[Token(surface='No', normalized='no', raw_span=(9, 11)),"
    f" {_TOKEN_REPR}], negation_scopes=[(1, 2)])"
)
_ENTITY_REPR = (
    "Entity(entity_type='Defect', token_range=(1, 2), negated=True,"
    " matched_lexicon_term='crack', seed_root='crack')"
)
_WEIGHTS_REPR = "WeightTriple(frequencies=0.99, location=0.9, defect=0.8)"
_RATING_REPR = "DefectRating(value=1, action_text='Reassess in ten years', gap_row=True)"


def _config():
    data = (Path(f"{k}.x") for k in range(8))
    return PipelineConfig(*data, max_depth=3, training=TrainingConfig(epochs=2))


_CONFIG_REPR = (
    "PipelineConfig("
    + "".join(f"{name}={Path(f'{k}.x')!r}, " for k, name in enumerate(
        ["seeds", "synonym_graph", "blacklists", "triggers", "terminators", "abbreviations",
         "basewords", "patterns"]))
    + f"lexicon={Path('lexicon.tsv')!r}, model={Path('tagger.model')!r},"
    f" loss_log={Path('tagger.loss.txt')!r}, corpus_dir={Path('corpus')!r},"
    f" gold_file={Path('gold.tsv')!r}, output_dir={Path('out')!r}, max_depth=3,"
    " split_ratio=0.8, seed=12345, training=TrainingConfig(word_dim=200, dict_dim=100,"
    " hidden_dim=300, learning_rate=0.005, epochs=2, batch_size=100))"
)

# One sample of each record the rating path builds per document, and its
# repr: the benchmark fingerprints reports by repr.  The same contract
# holds for the records that load_config and load_resources build, which
# tests compare by value.
RECORDS = {
    "Token": (_token, _TOKEN_REPR),
    "Sentence": (_sentence, _SENTENCE_REPR),
    "Document": (
        _document,
        "Document(id='d1', raw='Defects: No Crack', section_spans={'Defects': (8, 17)},"
        f" sentences=[{_SENTENCE_REPR}])",
    ),
    "Entity": (_entity, _ENTITY_REPR),
    "WeightTriple": (_weights, _WEIGHTS_REPR),
    "DefectRating": (_rating, _RATING_REPR),
    "RatingReport": (
        lambda: RatingReport("d1", _weights(), _rating(), notes=["negated entities excluded"]),
        f"RatingReport(document_id='d1', weights={_WEIGHTS_REPR}, rating={_RATING_REPR},"
        " entities=[], notes=['negated entities excluded'])",
    ),
    "Blacklist": (lambda: Blacklist({"crack": {"crevice"}}),
                  "Blacklist(per_seed={'crack': {'crevice'}})"),
    "PatternTable": (
        lambda: PatternTable(frozenset({"in"}), frozenset({"ft"})),
        "PatternTable(size_units=frozenset({'in'}), distance_units=frozenset({'ft'}))",
    ),
    "PipelineConfig": (_config, _CONFIG_REPR),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecordContract:
    """The records are plain slotted classes, not dataclasses: importing
    dataclasses and generating their methods took about half of a rating
    process's start-up.  Not frozen, since a frozen record sets each field
    through object.__setattr__ and costs several times as much to build;
    fields, value equality and the dataclass repr are kept."""

    def test_slotted(self, name):
        build, _ = RECORDS[name]
        assert not hasattr(build(), "__dict__")

    def test_not_frozen_so_unhashable(self, name):
        build, _ = RECORDS[name]
        with pytest.raises(TypeError, match="unhashable"):
            hash(build())

    def test_value_equality(self, name):
        build, _ = RECORDS[name]
        record = build()
        assert record == build()
        assert record == copy.deepcopy(record)

    def test_repr(self, name):
        build, expected = RECORDS[name]
        assert repr(build()) == expected


@pytest.mark.parametrize("tagger", [DICT_TAGGER, BILSTM_TAGGER])
def test_rating_leaves_preprocessed_document_unchanged(resources, tiny_bilstm, tagger):
    """The records are mutable, so nothing on the rating path may change
    them: rating a preprocessed document twice gives equal reports and
    leaves its sentences as they were."""
    docs, _ = generate_synthetic_corpus(
        GeneratorConfig(n_documents=50, lexicon=resources.lexicon), seed=15
    )
    model = tiny_bilstm if tagger == BILSTM_TAGGER else None
    for doc in docs:
        preprocess_document(doc, resources)
        before = copy.deepcopy(doc.sentences)
        first = rate_document(doc, resources, tagger=tagger, model=model)
        second = rate_document(doc, resources, tagger=tagger, model=model)
        assert first == second, doc.id
        assert doc.sentences == before, doc.id
