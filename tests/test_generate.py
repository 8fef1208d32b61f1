import hashlib

import pytest

from pipedefect.corpus import format_gold, parse_document
from pipedefect.errors import LexiconRequired
from pipedefect.generate import GeneratorConfig, generate_synthetic_corpus
from pipedefect.lexicon import Lexicon, LexiconEntry
from pipedefect.pipeline import preprocess_document, rate_document

# sha256 of 300 documents on seed 1 with the default lexicon: each raw
# text, then the gold file, joined by NUL
CORPUS_SHA256 = "74f39714ad3703522f2f67a6cfcf8409a2f9b5ad59801ba094ef1b4bb5c4f292"


def gen(lexicon, n, seed=0, **kwargs):
    return generate_synthetic_corpus(
        GeneratorConfig(n_documents=n, lexicon=lexicon, **kwargs), seed=seed
    )


class TestGenerate:
    def test_counts(self, lexicon):
        docs, golds = gen(lexicon, 25)
        assert len(docs) == len(golds) == 25
        assert [d.id for d in docs] == [g.document_id for g in golds]

    def test_empty_corpus(self, lexicon):
        docs, golds = gen(lexicon, 0)
        assert docs == [] and golds == []

    def test_deterministic(self, lexicon):
        docs_a, golds_a = gen(lexicon, 30, seed=9)
        docs_b, golds_b = gen(lexicon, 30, seed=9)
        assert [d.raw for d in docs_a] == [d.raw for d in docs_b]
        assert golds_a == golds_b

    def test_seeds_differ(self, lexicon):
        docs_a, _ = gen(lexicon, 30, seed=1)
        docs_b, _ = gen(lexicon, 30, seed=2)
        assert [d.raw for d in docs_a] != [d.raw for d in docs_b]

    def test_empty_lexicon_rejected(self):
        with pytest.raises(LexiconRequired):
            gen(Lexicon(), 5)

    def test_lexicon_without_location_seed_rejected(self):
        lex = Lexicon()
        lex.add(LexiconEntry("leak", "Defect", "seed", "leak"))
        lex.add(LexiconEntry("rarely", "Frequency", "seed", "rarely"))
        with pytest.raises(LexiconRequired, match="defect, location and frequency seeds"):
            gen(lex, 5)

    def test_gold_spans_point_at_their_terms(self, lexicon):
        docs, golds = gen(lexicon, 50, seed=3)
        raws = {d.id: d.raw for d in docs}
        for gold in golds:
            for entity in gold.entities:
                s, e = entity.span
                text = raws[gold.document_id][s:e].lower()
                assert text in lexicon, f"span {entity.span} -> {text!r} not a lexicon term"

    def test_ratings_cover_all_bands(self, lexicon):
        _, golds = gen(lexicon, 300, seed=4)
        assert {g.rating for g in golds} == {1, 2, 3, 4, 5}

    def test_corpus_bytes_are_pinned(self, lexicon):
        # a change to the generator's text or draw order changes this
        # digest; a deliberate one updates it and says why
        docs, golds = gen(lexicon, 300, seed=1)
        text = "\0".join(d.raw for d in docs) + "\0" + format_gold(golds)
        assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256

    def test_documents_parse_and_start_with_defects_section(self, lexicon):
        docs, _ = gen(lexicon, 20, seed=5)
        for doc in docs:
            reparsed = parse_document(doc.raw, doc.id)
            assert "Defects" in reparsed.section_spans


class TestGeneratorEngineConsistency:
    def test_dictionary_pipeline_reproduces_gold_ratings(self, resources):
        docs, golds = gen(resources.lexicon, 100, seed=6)
        gold_by_id = {g.document_id: g for g in golds}
        for doc in docs:
            preprocess_document(doc, resources)
            report = rate_document(doc, resources)
            assert report.rating.value == gold_by_id[doc.id].rating, doc.raw

    def test_dictionary_pipeline_recovers_gold_entities(self, resources):
        docs, golds = gen(resources.lexicon, 50, seed=7)
        gold_by_id = {g.document_id: g for g in golds}
        for doc in docs:
            preprocess_document(doc, resources)
            report = rate_document(doc, resources)
            predicted = {(e["type"], tuple(e["raw_span"])) for e in report.entities}
            expected = {(e.entity_type, e.span) for e in gold_by_id[doc.id].entities}
            assert predicted == expected, doc.raw
