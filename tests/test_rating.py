import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipedefect.config import PipelineConfig, load_resources
from pipedefect.corpus import parse_document
from pipedefect.errors import ConfigError, InvalidWeight
from pipedefect.generate import GeneratorConfig, generate_synthetic_corpus
from pipedefect.lexicon import save_lexicon
from pipedefect.network import init_model
from pipedefect.pipeline import BILSTM_TAGGER, rate_document
from pipedefect.rating import (
    ACTION_TEXT,
    DEFAULT_FREQUENCY_BANDS,
    FREQUENCY_WEIGHTS,
    WeightTriple,
    assign_rating,
    rate_frames,
    weight_defect,
    weight_frequency,
    weight_location,
)
from pipedefect.tagger import Entity, EntityFrame, Tag


def frame_with(*entities):
    frame = EntityFrame()
    for e in entities:
        frame.append(e)
    return frame


def defect(term, root=None, negated=False):
    return Entity("Defect", (0, 1), negated, term, root or term)


def location(term="midpoint", negated=False):
    return Entity("LocationOfDefect", (0, 1), negated, term, term)


def frequency(term, negated=False):
    return Entity("FrequencyOfDefects", (0, 1), negated, term, term)


class TestWeightLocation:
    def test_one_location(self):
        assert weight_location([frame_with(location())]) == 0.9

    def test_no_location(self):
        assert weight_location([EntityFrame()]) == 1.0

    def test_three_locations(self):
        frames = [frame_with(location(), location()), frame_with(location())]
        assert weight_location(frames) == 1.0

    def test_negated_location_ignored(self):
        frames = [frame_with(location(), location(negated=True))]
        assert weight_location(frames) == 0.9


class TestWeightFrequency:
    def test_very_frequently(self):
        assert weight_frequency([frame_with(frequency("very frequently"))]) == 0.99

    def test_rarely(self):
        assert weight_frequency([frame_with(frequency("rarely"))]) == 0.25

    def test_maximum_band_wins(self):
        frames = [frame_with(frequency("rarely"), frequency("frequently"))]
        assert weight_frequency(frames) == 0.99

    def test_no_terms_lowest_band(self):
        assert weight_frequency([EntityFrame()]) == 0.1

    def test_negated_term_ignored(self):
        frames = [frame_with(frequency("frequently", negated=True))]
        assert weight_frequency(frames) == 0.1

    def test_unknown_term_skipped_and_noted(self):
        # load_resources checks every Frequency lexicon term for a band, so
        # a band-less term here is a tagger's mis-tag, not a configuration fault
        bogus = Entity("FrequencyOfDefects", (0, 1), False, "sometimes", None)
        assert weight_frequency([frame_with(bogus)]) == 0.1
        assert weight_frequency([frame_with(bogus, frequency("rarely"))]) == 0.25
        report = rate_frames("doc", [frame_with(bogus, defect("crack"))])
        assert report.weights.frequencies == 0.1
        note = "frequency span at sentence 0 tokens 0-1 ('sometimes') has no frequency band; skipped"
        assert note in report.notes

    def test_seed_root_fallback(self):
        # a synonym ("seldom") resolves through its seed root when the
        # matched term itself is absent from the band table
        ent = Entity("FrequencyOfDefects", (0, 1), False, "not-in-table", "rarely")
        assert weight_frequency([frame_with(ent)]) == 0.25


class TestWeightDefect:
    def test_one_unit(self):
        assert weight_defect([frame_with(defect("leakage", root="leak"))]) == 0.8

    def test_negated_only(self):
        assert weight_defect([frame_with(defect("leaks", root="leak", negated=True))]) == 0.5

    def test_two_units(self):
        frames = [frame_with(defect("leaks", root="leak"), defect("cracks", root="crack"))]
        assert weight_defect(frames) == 1.0

    def test_morphology_counts_once(self):
        frames = [frame_with(defect("leak", root="leak"), defect("leaking", root="leak"))]
        assert weight_defect(frames) == 0.8

    def test_empty(self):
        assert weight_defect([]) == 0.5


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


class TestRateFrames:
    def test_full_document(self):
        frames = [
            frame_with(frequency("very frequently"), defect("leakage", root="leak"), location()),
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
        report = rate_frames("doc", [frame_with(defect("leaks", root="leak"))])
        assert report.rating.gap_row
        assert any("rating table" in note for note in report.notes)

    def test_band_table_is_configuration(self):
        bands = dict(DEFAULT_FREQUENCY_BANDS, intermittently=0.5)
        frames = [frame_with(frequency("intermittently"), defect("crack"))]
        report = rate_frames("doc", frames, bands=bands)
        assert report.rating.value == 3


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

    def test_lexicon_term_of_another_type_is_skipped_and_noted(self, resources, tiny_bilstm):
        # the tiny model tags "leaks", a Defect lexicon term, as frequency
        doc = parse_document("Pipe leaks at the joint.", "net")
        report = rate_document(doc, resources, tagger=BILSTM_TAGGER, model=tiny_bilstm)
        (entity,) = report.entities
        assert (entity["type"], entity["matched_term"]) == ("FrequencyOfDefects", "leaks")
        assert report.weights.frequencies == 0.1
        note = "frequency span at sentence 0 tokens 0-6 ('leaks') has no frequency band; skipped"
        assert note in report.notes


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
