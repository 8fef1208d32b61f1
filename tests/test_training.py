import tracemalloc

import numpy as np
import pytest

from pipedefect.errors import AlignmentError, NumericalError
from pipedefect.generate import GeneratorConfig, generate_synthetic_corpus
from pipedefect.network import init_model, load_model, save_model, sentence_logits
from pipedefect.pipeline import preprocess_document
from pipedefect.tagger import (
    MAX_BATCH_TOKENS,
    Tag,
    dictionary_tag,
    predict_document_tags,
    tags_from_gold_spans,
)
from pipedefect.training import (
    EncodedSentence,
    TrainingConfig,
    batch_loss_and_grads,
    build_vocab,
    encode_corpus,
    pad_batch,
    train,
)

SMALL = TrainingConfig(word_dim=8, dict_dim=4, hidden_dim=6, epochs=10, batch_size=4)


def small_init(corpus):
    return init_model(build_vocab(corpus), seed=0, word_dim=8, dict_dim=4, hidden_dim=6)


@pytest.fixture(scope="module")
def tiny_corpus(make_sentence, lexicon):
    texts = [
        "Frequently leaks observed at midpoint.",
        "Rarely cracks noted.",
        "Routine inspection completed.",
        "Moderate corrosion found at junction.",
        "Several holes observed.",
    ]
    corpus = []
    for text in texts:
        sent = make_sentence(text)
        corpus.append((sent, dictionary_tag(sent, lexicon)))
    return corpus


class TestVocabAndEncoding:
    def test_vocab_sorted_with_unk_first(self, tiny_corpus):
        vocab = build_vocab(tiny_corpus)
        assert vocab[0] == "<unk>"
        assert vocab[1:] == sorted(vocab[1:])

    def test_misaligned_tags_rejected(self, tiny_corpus, lexicon):
        sent, tags = tiny_corpus[0]
        model = small_init(tiny_corpus)
        with pytest.raises(AlignmentError):
            encode_corpus([(sent, tags[:-1])], lexicon, model)

    def test_pad_batch_mask(self, tiny_corpus, lexicon):
        model = small_init(tiny_corpus)
        encoded = encode_corpus(tiny_corpus[:3], lexicon, model)
        ids, feats, tags, mask = pad_batch(encoded)
        assert ids.shape == mask.shape == tags.shape == feats.shape
        for k, enc in enumerate(encoded):
            n = len(enc.token_ids)
            assert mask[k, :n].sum() == n
            assert mask[k, n:].sum() == 0


class TestLossAndGradients:
    def test_batched_loss_matches_per_sentence_oracle(self, tiny_corpus, lexicon):
        result = train(tiny_corpus, lexicon, SMALL, seed=2)
        model = result.model
        encoded = encode_corpus(tiny_corpus, lexicon, model)
        ids, feats, tags, mask = pad_batch(encoded)
        loss, _ = batch_loss_and_grads(model, ids, feats, tags, mask, compute_grads=False)
        # oracle: per-sentence softmax cross-entropy via the inference path
        total = 0.0
        count = 0
        for enc in encoded:
            logits = sentence_logits(enc.token_ids, enc.dict_feats, model)
            shifted = logits - logits.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            for t, gold in enumerate(enc.tag_ids):
                total -= logp[t, gold]
                count += 1
        assert abs(loss - total / count) <= 1e-10

    def test_padding_does_not_change_loss(self, tiny_corpus, lexicon):
        model = small_init(tiny_corpus)
        encoded = encode_corpus(tiny_corpus[:2], lexicon, model)
        # same sentences, padded to different lengths, same mean loss
        ids, feats, tags, mask = pad_batch(encoded)
        loss_a, _ = batch_loss_and_grads(model, ids, feats, tags, mask, compute_grads=False)
        wide = np.zeros((2, ids.shape[1] + 5), dtype=np.int64)
        wide_ids, wide_feats, wide_tags = wide.copy(), wide.copy(), wide.copy()
        wide_mask = np.zeros((2, ids.shape[1] + 5))
        wide_ids[:, : ids.shape[1]] = ids
        wide_feats[:, : ids.shape[1]] = feats
        wide_tags[:, : ids.shape[1]] = tags
        wide_mask[:, : ids.shape[1]] = mask
        loss_b, _ = batch_loss_and_grads(model, wide_ids, wide_feats, wide_tags, wide_mask,
                                         compute_grads=False)
        assert abs(loss_a - loss_b) <= 1e-12

    def test_unsorted_batch_matches_central_differences_everywhere(self):
        # Every real position has a word of its own, so each word_emb row's
        # gradient is the gradient at one position.  A sentence's last token
        # is where it leaves the forward prefix and enters the backward one.
        lengths = [4, 7, 1, 5, 2]
        model = init_model([f"w{k:02d}" for k in range(sum(lengths))], seed=3,
                           word_dim=3, dict_dim=2, hidden_dim=3)
        rng = np.random.Generator(np.random.PCG64(11))
        first_ids = np.cumsum([1] + lengths[:-1])
        batch = [EncodedSentence(token_ids=list(range(start, start + n)),
                                 dict_feats=[int(f) for f in rng.integers(0, 4, n)],
                                 tag_ids=[int(t) for t in rng.integers(0, 4, n)])
                 for start, n in zip(first_ids, lengths)]
        ids, feats, tags, mask = pad_batch(batch)
        _, grads = batch_loss_and_grads(model, ids, feats, tags, mask)
        step = 1e-6
        for k, (param, grad) in enumerate(zip(model.parameters(), grads)):
            flat = param.reshape(-1)
            numeric = np.empty(flat.size)
            for j in range(flat.size):
                original = flat[j]
                flat[j] = original + step
                up, _ = batch_loss_and_grads(model, ids, feats, tags, mask, compute_grads=False)
                flat[j] = original - step
                down, _ = batch_loss_and_grads(model, ids, feats, tags, mask, compute_grads=False)
                flat[j] = original
                numeric[j] = (up - down) / (2 * step)
            assert np.allclose(grad.reshape(-1), numeric, rtol=1e-6, atol=1e-9), k
        assert np.all(np.abs(grads[0][first_ids + np.array(lengths) - 1]) > 1e-6)

    def test_a_training_step_allocates_under_120_kb_a_token(self):
        """At its peak a step holds both directions' step-ordered
        projections, states and cells, which backprop reads, beside the
        gradients: about 108 KB a token at the default dimensions on this
        256-token batch (41 KB without gradients).  One more copy of a
        direction's state adds 14.4 KB a token."""
        cfg = TrainingConfig()
        model = init_model([f"w{k}" for k in range(40)], seed=0, word_dim=cfg.word_dim,
                           dict_dim=cfg.dict_dim, hidden_dim=cfg.hidden_dim)
        lengths = [40, 3, 25, 60, 12, 1, 50, 65]
        assert sum(lengths) == MAX_BATCH_TOKENS
        rng = np.random.default_rng(7)
        batch = [EncodedSentence(token_ids=[int(i) for i in rng.integers(0, len(model.vocab), n)],
                                 dict_feats=[int(f) for f in rng.integers(0, 4, n)],
                                 tag_ids=[int(t) for t in rng.integers(0, 4, n)])
                 for n in lengths]
        ids, feats, tags, mask = pad_batch(batch)
        tracemalloc.start()
        try:
            batch_loss_and_grads(model, ids, feats, tags, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / MAX_BATCH_TOKENS < 120_000


class TestTrain:
    def test_single_sentence_loss_strictly_decreases(self, tiny_corpus, lexicon):
        result = train(tiny_corpus[:1], lexicon, SMALL, seed=5)
        losses = result.epoch_losses
        assert len(losses) == 10
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_deterministic(self, tiny_corpus, lexicon):
        a = train(tiny_corpus, lexicon, SMALL, seed=6)
        b = train(tiny_corpus, lexicon, SMALL, seed=6)
        assert a.epoch_losses == b.epoch_losses
        for pa, pb in zip(a.model.parameters(), b.model.parameters()):
            assert np.array_equal(pa, pb)

    def test_trained_and_reloaded_models_tag_alike(self, resources, tmp_path):
        docs, golds = generate_synthetic_corpus(
            GeneratorConfig(n_documents=12, lexicon=resources.lexicon), seed=8)
        corpus = []
        for doc, gold in zip(docs, golds):
            preprocess_document(doc, resources)
            corpus.extend(zip(doc.sentences, tags_from_gold_spans(doc.sentences, gold.entities)))
        config = TrainingConfig(word_dim=8, dict_dim=4, hidden_dim=6, learning_rate=0.05,
                                epochs=5, batch_size=10)
        trained = train(corpus, resources.lexicon, config, seed=4).model
        save_model(trained, tmp_path / "m.model")
        reloaded = load_model(tmp_path / "m.model")
        tagged = [predict_document_tags(doc.sentences, resources.lexicon, trained) for doc in docs]
        assert any(Tag.O != t for doc_tags in tagged for tags in doc_tags for t in tags)
        assert tagged == [predict_document_tags(doc.sentences, resources.lexicon, reloaded)
                          for doc in docs]

    def test_empty_corpus_rejected(self, lexicon):
        with pytest.raises(AlignmentError):
            train([], lexicon, SMALL, seed=1)

    def test_non_finite_model_rejected(self, tiny_corpus, lexicon):
        config = TrainingConfig(word_dim=8, dict_dim=4, hidden_dim=6, epochs=1,
                                learning_rate=float("inf"))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            train(tiny_corpus, lexicon, config, seed=5)

    def test_overfits_tiny_corpus(self, tiny_corpus, lexicon):
        config = TrainingConfig(word_dim=8, dict_dim=4, hidden_dim=6, epochs=80, batch_size=4)
        result = train(tiny_corpus, lexicon, config, seed=7)
        model = result.model
        correct = total = 0
        for sent, tags in tiny_corpus:
            ids = [model.token_index(t.normalized) for t in sent.tokens]
            logits = sentence_logits(ids, dictionary_tag(sent, lexicon), model)
            pred = [Tag(int(i)) for i in np.argmax(logits, axis=1)]
            correct += sum(p == g for p, g in zip(pred, tags))
            total += len(tags)
        assert correct / total == 1.0
