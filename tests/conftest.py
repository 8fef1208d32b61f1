import logging

import pytest

from pipedefect.config import PipelineConfig, load_resources
from pipedefect.corpus import split_corpus
from pipedefect.generate import GeneratorConfig, generate_synthetic_corpus
from pipedefect.network import init_model
from pipedefect.pipeline import preprocess_document
from pipedefect.preprocess import preprocess_section

logging.getLogger("pipedefect.lexicon").setLevel(logging.ERROR)


@pytest.fixture(scope="session")
def resources():
    return load_resources(PipelineConfig(), require_lexicon=False)


@pytest.fixture(scope="session")
def lexicon(resources):
    return resources.lexicon


@pytest.fixture(scope="module")
def tiny_bilstm(lexicon):
    """A small seeded model over the lexicon's words, its output weights
    scaled up so that it tags every category."""
    words = sorted({w for term in lexicon.entries for w in term.split()})
    model = init_model(words, seed=4, word_dim=4, dict_dim=3, hidden_dim=5)
    model.out_w *= 20.0
    return model


@pytest.fixture(scope="session")
def make_sentence(resources):
    """Single-sentence preprocessing helper (spell correction off by default)."""

    def _make(text, spell=False):
        sents = preprocess_section(
            text,
            section="Unsectioned",
            body_offset=0,
            spell_vocab=resources.spell_vocab if spell else None,
            triggers=resources.triggers,
            abbreviations=resources.abbreviations,
        )
        assert len(sents) == 1, f"expected one sentence from {text!r}"
        return sents[0]

    return _make


@pytest.fixture(scope="session")
def corpus500(resources):
    """500 preprocessed synthetic documents with gold records and a split."""
    gen = GeneratorConfig(n_documents=500, lexicon=resources.lexicon)
    docs, golds = generate_synthetic_corpus(gen, seed=42)
    docs_by_id = {}
    for doc in docs:
        preprocess_document(doc, resources)
        docs_by_id[doc.id] = doc
    gold_by_id = {g.document_id: g for g in golds}
    split = split_corpus(sorted(docs_by_id), 0.8, seed=3)
    return docs_by_id, gold_by_id, split
