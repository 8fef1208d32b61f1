"""End-to-end document pipeline: preprocess -> tag -> extract -> rate."""

from __future__ import annotations

from .corpus import Document, Sentence
from .lexicon import Lexicon, Record
from .preprocess import (
    NegationTriggerSet,
    SpellVocabulary,
    preprocess_section,
)
from .rating import RatingReport, rate_frames
from .tagger import (
    Entity,
    PatternTable,
    dictionary_tag,
    entity_span,
    entity_text,
    extract_entities,
    predict_document_tags,
)

DICT_TAGGER = "dict"
BILSTM_TAGGER = "bilstm"


class PipelineResources(Record):
    __slots__ = ("lexicon", "triggers", "abbreviations", "spell_vocab", "patterns")

    def __init__(self, lexicon: Lexicon, triggers: NegationTriggerSet,
                 abbreviations: frozenset[str], spell_vocab: SpellVocabulary,
                 patterns: PatternTable):
        self.lexicon, self.triggers, self.spell_vocab = lexicon, triggers, spell_vocab
        self.abbreviations, self.patterns = abbreviations, patterns  # abbreviations lowercase


def preprocess_document(doc: Document, resources: PipelineResources) -> Document:
    """Fill doc.sentences from all section bodies (in document order)."""
    sentences: list[Sentence] = []
    for start, end in doc.section_spans.values():
        sentences.extend(
            preprocess_section(
                doc.raw[start:end],
                body_offset=start,
                spell_vocab=resources.spell_vocab,
                triggers=resources.triggers,
                abbreviations=resources.abbreviations,
            )
        )
    doc.sentences = sentences
    return doc


def tag_document(
    doc: Document,
    resources: PipelineResources,
    tagger: str = DICT_TAGGER,
    model: TaggerModel | None = None,
) -> list[list[Entity]]:
    """Each sentence's entities, in token order, for a preprocessed document.
    The Bi-LSTM tags all of the document's sentences in one packed stream of
    their tokens, in passes of at most tagger.MAX_BATCH_TOKENS tokens."""
    if tagger == BILSTM_TAGGER:
        if model is None:
            raise ValueError("bilstm tagger requires a trained model")
        doc_tags = predict_document_tags(doc.sentences, resources.lexicon, model)
    elif tagger == DICT_TAGGER:
        doc_tags = (dictionary_tag(sentence, resources.lexicon) for sentence in doc.sentences)
    else:
        raise ValueError(f"unknown tagger {tagger!r}")
    return [
        extract_entities(sentence, tags, resources.patterns, resources.lexicon)
        for sentence, tags in zip(doc.sentences, doc_tags)
    ]


def rate_document(
    doc: Document,
    resources: PipelineResources,
    tagger: str = DICT_TAGGER,
    model: TaggerModel | None = None,
) -> RatingReport:
    if not doc.sentences:
        preprocess_document(doc, resources)
    frames = tag_document(doc, resources, tagger=tagger, model=model)
    report = rate_frames(doc.id, frames)
    for sent_idx, (sentence, entities) in enumerate(zip(doc.sentences, frames)):
        for entity in entities:
            report.entities.append(
                {
                    "type": entity.entity_type,
                    "sentence": sent_idx,
                    "token_start": entity.token_range[0],
                    "token_end": entity.token_range[1],
                    "raw_span": list(entity_span(sentence, entity)),
                    "text": entity_text(sentence, entity),
                    "negated": entity.negated,
                    "matched_term": entity.matched_lexicon_term,
                    "seed_root": entity.seed_root,
                }
            )
    return report
