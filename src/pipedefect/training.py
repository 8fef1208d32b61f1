"""Training the Bi-LSTM tagger: batched BPTT, Adam.

pad_batch pads a batch's int arrays to its longest sentence, and
batch_loss_and_grads packs their real tokens into one stream once: the
forward pass is network._hidden on that stream, the same loop, kernel and
layout that inference runs, and the loss and backprop see real tokens
only.  Backprop walks the kernel's steps in reverse over slices of the
step-ordered arrays that _hidden keeps for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TrainingConfig
from .corpus import Sentence
from .errors import AlignmentError
from .lexicon import Lexicon
from .network import N_TAGS, UNK, LstmParams, TaggerModel, _hidden, init_model
from .tagger import Tag, dictionary_tag

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class EncodedSentence:
    token_ids: list[int]
    dict_feats: list[Tag]  # dictionary_tag's, the dict feature indices
    tag_ids: list[int]


@dataclass
class TrainingResult:
    model: TaggerModel
    epoch_losses: list[float] = field(default_factory=list)


def build_vocab(corpus: list[tuple[Sentence, list[Tag]]]) -> list[str]:
    words = sorted({tok.normalized for sent, _ in corpus for tok in sent.tokens})
    return [UNK] + words


def encode_corpus(
    corpus: list[tuple[Sentence, list[Tag]]], lexicon: Lexicon, model: TaggerModel
) -> list[EncodedSentence]:
    encoded = []
    for sent, tags in corpus:
        if len(tags) != len(sent.tokens):
            surfaces = " ".join(t.surface for t in sent.tokens)
            raise AlignmentError(f"{len(tags)} tags for {len(sent.tokens)} tokens in {surfaces!r}")
        encoded.append(
            EncodedSentence(
                token_ids=[model.token_index(t.normalized) for t in sent.tokens],
                dict_feats=dictionary_tag(sent, lexicon),
                tag_ids=[int(t) for t in tags],
            )
        )
    return encoded


def pad_batch(batch: list[EncodedSentence]):
    """Pad to the longest sentence: int arrays ids, feats, tags and a mask,
    1 on real tokens."""
    padded = np.zeros((4, len(batch), max(len(s.token_ids) for s in batch)), dtype=np.int64)
    for k, s in enumerate(batch):
        n = len(s.token_ids)
        padded[:3, k, :n] = s.token_ids, s.dict_feats, s.tag_ids
        padded[3, k, :n] = 1
    return tuple(padded)


def _backprop_direction(dH, params: LstmParams, order, counts, Z, H, C):
    """Gradient of lstm_direction, walking its steps backwards over slices
    of its step-ordered activations Z, states H and cells C: returns (dZ,
    dWh), dZ the gradient of its input projections in the stream's order.
    Only the rows that carried a state into a step pass a gradient back
    through wh and the forget gate, so a direction's first step makes no
    recurrent product."""
    hd = params.hidden_dim
    dZ = np.zeros_like(Z)
    dWh = np.zeros_like(params.wh)
    tanh_C = np.tanh(C)
    dH = dH[order]  # a copy: each step adds the carried gradient in place
    dh_next = dc_next = np.zeros((0, hd))
    counts = counts.tolist()
    starts = np.cumsum([0] + counts).tolist()
    for t in reversed(range(len(counts))):
        rows = slice(starts[t], starts[t + 1])
        # the step before's first rows, k of them carrying a state into this step
        prev, k = (starts[t - 1], min(counts[t - 1], counts[t])) if t else (0, 0)
        i, f, o, g = (Z[rows, q * hd : (q + 1) * hd] for q in range(4))
        dh, dz, tanh_c = dH[rows], dZ[rows], tanh_C[rows]
        h_prev, c_prev = H[prev : prev + k], C[prev : prev + k]
        dh[: len(dh_next)] += dh_next
        dc = dh * o * (1.0 - tanh_c**2)
        dc[: len(dc_next)] += dc_next
        dz[:, :hd] = dc * g * i * (1.0 - i)
        dz[:k, hd : 2 * hd] = dc[:k] * c_prev * f[:k] * (1.0 - f[:k])
        dz[:, 2 * hd : 3 * hd] = dh * tanh_c * o * (1.0 - o)
        dz[:, 3 * hd :] = dc * i * (1.0 - g**2)
        if k:
            dWh += h_prev.T @ dz[:k]
            dh_next, dc_next = dz[:k] @ params.wh.T, dc[:k] * f[:k]
    return dZ[np.argsort(order)], dWh


def batch_loss_and_grads(model: TaggerModel, ids, feats, tags, mask, compute_grads=True):
    """Mean per-token cross-entropy over real tokens.

    ids, feats, tags, mask: (B, T) int arrays as pad_batch makes them, the
    mask nonzero on real tokens, which fill the start of each row.  The
    real tokens are packed into one stream before the network runs.
    """
    hd = model.hidden_dim
    real = mask > 0
    ids, feats, tags = ids[real], feats[real], tags[real]
    lengths = np.count_nonzero(real, axis=1)
    X = np.concatenate([model.word_emb[ids], model.dict_emb[feats]], axis=1)  # real tokens' inputs
    states = []  # per direction: order, counts and the kernel's Z, H, C in step order
    H = _hidden(lambda k, params, order: X[order] @ params.wx + params.b, lengths, model, states)
    logits = H @ model.out_w + model.out_b
    logits = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    gold = np.eye(N_TAGS)[tags]
    loss = -np.log(np.clip((probs * gold).sum(axis=1), 1e-300, None)).mean()
    if not compute_grads:
        return loss, None
    dlogits = (probs - gold) / len(tags)
    dH = dlogits @ model.out_w.T
    dZf, dfwh = _backprop_direction(dH[:, :hd], model.fwd, *states[0])
    dZb, dbwh = _backprop_direction(dH[:, hd:], model.bwd, *states[1])
    dX = dZf @ model.fwd.wx.T + dZb @ model.bwd.wx.T
    word_dim = model.word_emb.shape[1]
    d_word = np.zeros_like(model.word_emb)
    d_dict = np.zeros_like(model.dict_emb)
    np.add.at(d_word, ids, dX[:, :word_dim])
    np.add.at(d_dict, feats, dX[:, word_dim:])
    grads = [
        d_word, d_dict,
        X.T @ dZf, dfwh, dZf.sum(axis=0),
        X.T @ dZb, dbwh, dZb.sum(axis=0),
        H.T @ dlogits, dlogits.sum(axis=0),
    ]
    return loss, grads


class Adam:
    def __init__(self, params: list[np.ndarray], lr):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        for k, (p, g) in enumerate(zip(self.params, grads)):
            self.m[k] = ADAM_BETA1 * self.m[k] + (1 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1 - ADAM_BETA2) * g * g
            m_hat = self.m[k] / (1 - ADAM_BETA1**self.t)
            v_hat = self.v[k] / (1 - ADAM_BETA2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train(
    corpus: list[tuple[Sentence, list[Tag]]],
    lexicon: Lexicon,
    config: TrainingConfig,
    seed: int,
) -> TrainingResult:
    """Deterministic training run; records the mean loss per epoch."""
    if not corpus:
        raise AlignmentError("training corpus is empty")
    vocab = build_vocab(corpus)
    model = init_model(
        vocab,
        seed=seed,
        word_dim=config.word_dim,
        dict_dim=config.dict_dim,
        hidden_dim=config.hidden_dim,
    )
    encoded = encode_corpus(corpus, lexicon, model)
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    order = np.arange(len(encoded))
    losses = []
    for _ in range(config.epochs):
        rng.shuffle(order)
        total = 0.0
        weight = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [encoded[k] for k in order[start : start + config.batch_size]]
            ids, feats, tags, mask = pad_batch(batch)
            loss, grads = batch_loss_and_grads(model, ids, feats, tags, mask)
            optimizer.step(grads)
            n_real = mask.sum()
            total += loss * n_real
            weight += n_real
        losses.append(total / weight)
    model.check_finite()
    return TrainingResult(model=model, epoch_losses=losses)
