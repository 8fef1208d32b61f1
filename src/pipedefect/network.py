"""Bi-LSTM sequence labeling network, implemented directly on numpy.

One batched direction pass (lstm_direction) holds the only copy of the gate
equations; training runs it on padded batches of sentences and inference
(batch_logits) on the padded sentences of one document.  It takes each
row's input projections and steps only the rows still inside their
sentence.  Each step reads the recurrent weights wh in four row quarters,
views of wh and not copies, in an order that reverses every step: at the
default 300 hidden units wh is 2.88 MB, more than a 2 MB L2 cache, and a
step then starts on the quarters the step before left there.  Gate order
inside the packed weight matrices is [input, forget, output, candidate].
"""

from __future__ import annotations

import math
import os
import re
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptySequence, ModelFormatError, NumericalError

UNK = "<unk>"

# Default dimensions of the tagging network.
WORD_DIM = 200
DICT_DIM = 100
HIDDEN_DIM = 300
N_TAGS = 4
N_DICT_FEATURES = 4  # none / defect / location / frequency


@dataclass
class LstmParams:
    wx: np.ndarray  # (input_dim, 4 * hidden)
    wh: np.ndarray  # (hidden, 4 * hidden)
    b: np.ndarray  # (4 * hidden,)

    @property
    def hidden_dim(self) -> int:
        return self.wh.shape[0]


@dataclass
class TaggerModel:
    vocab: list[str]  # vocab[0] == UNK
    word_emb: np.ndarray  # (|V|, word_dim)
    dict_emb: np.ndarray  # (N_DICT_FEATURES, dict_dim)
    fwd: LstmParams
    bwd: LstmParams
    out_w: np.ndarray  # (2 * hidden, N_TAGS)
    out_b: np.ndarray  # (N_TAGS,)
    rng_seed: int

    @property
    def input_dim(self) -> int:
        return self.word_emb.shape[1] + self.dict_emb.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.fwd.hidden_dim

    def __post_init__(self):
        self._token_ids = {t: i for i, t in enumerate(self.vocab)}

    def token_index(self, normalized: str) -> int:
        return self._token_ids.get(normalized, 0)

    @cached_property
    def input_projections(self) -> tuple[np.ndarray, np.ndarray]:
        """Both directions' input projections, split by input part: per
        vocabulary word word_emb @ wx[:word_dim], (2, |V|, 4 * hidden), and
        per dictionary feature dict_emb @ wx[word_dim:] + b, (2,
        N_DICT_FEATURES, 4 * hidden), forward direction first.  A token's
        projection x @ wx + b is the sum of its word's row and its
        feature's row.

        Built on the first inference and kept: |V| * 8 * hidden * 8 bytes,
        19.2 KB a word at the default dimensions.  The arrays it is made
        from become read-only, so an in-place update of them raises
        ValueError instead of leaving the table stale (assigning new arrays
        to the model does not rebuild it).
        """
        word_dim = self.word_emb.shape[1]
        directions = (self.fwd, self.bwd)
        words = np.empty((2, len(self.word_emb), 4 * self.hidden_dim))
        for k, p in enumerate(directions):
            np.matmul(self.word_emb, p.wx[:word_dim], out=words[k])  # no temporary copy
        feats = np.stack([self.dict_emb @ p.wx[word_dim:] + p.b for p in directions])
        for a in (self.word_emb, self.dict_emb, *(x for p in directions for x in (p.wx, p.b))):
            a.flags.writeable = False
        return words, feats

    def parameters(self) -> list[np.ndarray]:
        return [
            self.word_emb,
            self.dict_emb,
            self.fwd.wx,
            self.fwd.wh,
            self.fwd.b,
            self.bwd.wx,
            self.bwd.wh,
            self.bwd.b,
            self.out_w,
            self.out_b,
        ]

    def check_finite(self) -> None:
        for p in self.parameters():
            if not np.all(np.isfinite(p)):
                raise NumericalError("model contains non-finite parameters")


def init_model(
    vocab: list[str],
    seed: int,
    word_dim: int = WORD_DIM,
    dict_dim: int = DICT_DIM,
    hidden_dim: int = HIDDEN_DIM,
) -> TaggerModel:
    """Uniform [-0.1, 0.1] initialization from a seeded generator; biases
    start at zero."""
    if not vocab or vocab[0] != UNK:
        vocab = [UNK] + [t for t in vocab if t != UNK]
    rng = np.random.Generator(np.random.PCG64(seed))
    input_dim = word_dim + dict_dim

    def uni(*shape):
        return rng.uniform(-0.1, 0.1, size=shape)

    def gates(in_dim):
        return LstmParams(
            wx=uni(in_dim, 4 * hidden_dim),
            wh=uni(hidden_dim, 4 * hidden_dim),
            b=np.zeros(4 * hidden_dim),
        )

    return TaggerModel(
        vocab=list(vocab),
        word_emb=uni(len(vocab), word_dim),
        dict_emb=uni(N_DICT_FEATURES, dict_dim),
        fwd=gates(input_dim),
        bwd=gates(input_dim),
        out_w=uni(2 * hidden_dim, N_TAGS),
        out_b=np.zeros(N_TAGS),
        rng_seed=seed,
    )


def embed(ids, feats, model: TaggerModel) -> np.ndarray:
    """Input rows [word_emb[id], dict_emb[feature]]: ids, feats of any
    shape S -> (*S, input_dim)."""
    return np.concatenate([model.word_emb[ids], model.dict_emb[feats]], axis=-1)


def first_rows(state, n: int) -> np.ndarray:
    """The first n rows of a state, zero past its end: rows that have not
    started yet enter with a zero state."""
    if n <= len(state):
        return state[:n]
    return np.concatenate([state, np.zeros((n - len(state), state.shape[1]))])


def lstm_direction(Z, mask, params: LstmParams, reverse: bool):
    """Recurrence over a padded batch, in one time direction.

    Z: (B, T, 4 * hidden) input projections x @ wx + b of each position;
    mask: (B, T), 1.0 on real tokens, which fill the start of each row.
    Rows are ordered longest first (stably) once, so at time t the rows
    still inside their sentence are a prefix of that order, and the step
    updates that prefix alone.  The recurrent product h @ wh is summed
    over four row quarters of wh, whose order reverses after every step:
    wh (2.88 MB at the default 300 hidden units) does not fit a 2 MB L2
    cache, but each step then starts on the quarters the step before read
    last, which are still there.  The quarters are views of wh, not
    copies, and the smaller products also keep OpenBLAS off the packing
    GEMM path it takes for 3 or more rows.  Z is read, never written.  A
    padded position holds the row's last state going forward and zero
    going backward, where a row that has not started keeps its zero state.

    Returns the hidden states (B, T, hidden), in the caller's row order,
    and the cache for backprop: the row order and, per step, the time,
    the gate activations, the new cell and its tanh, and the previous
    state, each for the prefix it stepped.
    """
    B, T, _ = Z.shape
    hd = params.hidden_dim
    lengths = np.count_nonzero(mask, axis=1)
    rows = np.argsort(-lengths, kind="stable")
    active = np.count_nonzero(lengths[:, None] > np.arange(T), axis=0)
    quarters = [slice(hd * q // 4, hd * (q + 1) // 4) for q in range(4)]
    H = np.zeros((B, T, hd))
    h = c = np.zeros((0, hd))
    steps = []
    for t in range(T - 1, -1, -1) if reverse else range(T):
        n = active[t]
        if n == 0:
            continue
        h_prev, c_prev = first_rows(h, n), first_rows(c, n)
        z = Z[rows[:n], t]
        for q in quarters:
            z += h_prev[:, q] @ params.wh[q]
        quarters.reverse()
        ifo, g = z[:, : 3 * hd], z[:, 3 * hd :]
        np.reciprocal(1.0 + np.exp(-ifo), out=ifo)
        np.tanh(g, out=g)
        i, f, o = ifo[:, :hd], ifo[:, hd : 2 * hd], ifo[:, 2 * hd :]
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        H[:n, t] = h
        steps.append((t, i, f, o, g, c, tanh_c, h_prev, c_prev))
    # one gather puts the rows back in the caller's order and, going
    # forward, repeats each row's last state over its padding (a row with
    # no tokens reads an unwritten, zero position)
    pos = np.arange(T) if reverse else np.minimum(np.arange(T), lengths[:, None] - 1)
    return H[np.argsort(rows)[:, None], pos], (rows, steps)


def _hidden(project, mask, model: TaggerModel) -> np.ndarray:
    """Forward and backward hidden states side by side, (B, T, 2 * hidden).
    project(k, params) gives direction k's input projections (B, T, 4 *
    hidden), the forward direction's first; each direction's projections
    and cache are dropped as soon as its states are taken."""
    return np.concatenate(
        [
            lstm_direction(project(0, model.fwd), mask, model.fwd, reverse=False)[0],
            lstm_direction(project(1, model.bwd), mask, model.bwd, reverse=True)[0],
        ],
        axis=2,
    )


def bilstm_forward(xs, model: TaggerModel) -> np.ndarray:
    """Per-position concatenation of forward and backward hidden states.

    xs: (T, input_dim). Returns (T, 2 * hidden).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise EmptySequence("bilstm_forward requires a non-empty (T, D) sequence")
    return _hidden(lambda k, p: xs[None] @ p.wx + p.b, np.ones((1, xs.shape[0])), model)[0]


def batch_logits(ids, feats, mask, model: TaggerModel) -> np.ndarray:
    """Tag logits (B, T, N_TAGS) of a padded batch of sentences.

    ids, feats: (B, T) int arrays, 0 on padding; mask: (B, T), 1.0 on real
    tokens, which fill the start of each row.  The input projections are
    gathered from the model's per-vocabulary table.  Logits at padded
    positions are meaningless.
    """
    B, T = ids.shape
    if T == 0:
        raise EmptySequence("batch_logits requires at least one token")
    words, dict_rows = model.input_projections

    def project(k, _):
        Z = words[k][ids]
        Z += dict_rows[k][feats]
        return Z

    H = _hidden(project, mask, model)
    return (H.reshape(B * T, -1) @ model.out_w + model.out_b).reshape(B, T, N_TAGS)


def sentence_logits(token_indices, dict_features, model: TaggerModel) -> np.ndarray:
    """Tag logits (T, N_TAGS) of one sentence."""
    ids = np.asarray(token_indices, dtype=np.int64)[None]
    feats = np.asarray(dict_features, dtype=np.int64)[None]
    return batch_logits(ids, feats, np.ones(ids.shape), model)[0]


# ---------------------------------------------------------------------------
# model file container: text header + packed little-endian float64 payload
# ---------------------------------------------------------------------------

_MAGIC = b"PIPEDEFECT-TAGGER v1\n"
_MATRIX_NAMES = (
    "word_emb", "dict_emb",
    "fwd.wx", "fwd.wh", "fwd.b",
    "bwd.wx", "bwd.wh", "bwd.b",
    "out_w", "out_b",
)


def save_model(model: TaggerModel, path) -> None:
    arrays = model.parameters()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(f"seed {model.rng_seed}\n".encode())
        fh.write(f"vocab {len(model.vocab)}\n".encode())
        for tok in model.vocab:
            fh.write(tok.encode() + b"\n")
        for name, arr in zip(_MATRIX_NAMES, arrays):
            fh.write(f"matrix {name} {' '.join(str(s) for s in arr.shape)}\n".encode())
        fh.write(b"data\n")
        for arr in arrays:
            data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
            fh.write(struct.pack("<Q", len(data)))
            fh.write(data)


def _header(fh, path, pattern: str = "(.*)") -> str:
    """The one group of `pattern`, which the whole next header line must match."""
    line = fh.readline()
    try:
        match = re.fullmatch(pattern + "\n", line.decode(), re.ASCII)
    except UnicodeDecodeError:
        match = None
    if match is None:
        raise ModelFormatError(f"{path}: bad or truncated header line {line!r}")
    return match[1]


def _check_shapes(path, vocab: list[str], shapes: list[tuple[int, ...]]) -> None:
    """The header's matrix shapes must fit the vocabulary and each other."""
    if not vocab or vocab[0] != UNK:
        raise ModelFormatError(f"{path}: vocabulary must start with {UNK}")
    named = dict(zip(_MATRIX_NAMES, shapes))
    word_dim, dict_dim, hd = named["word_emb"][-1], named["dict_emb"][-1], named["fwd.wh"][0]
    gates = {"wx": (word_dim + dict_dim, 4 * hd), "wh": (hd, 4 * hd), "b": (4 * hd,)}
    expected = {
        "word_emb": (len(vocab), word_dim),
        "dict_emb": (N_DICT_FEATURES, dict_dim),
        **{f"{d}.{k}": shape for d in ("fwd", "bwd") for k, shape in gates.items()},
        "out_w": (2 * hd, N_TAGS),
        "out_b": (N_TAGS,),
    }
    for name, shape in named.items():
        if shape != expected[name]:
            raise ModelFormatError(f"{path}: {name} has shape {shape}, expected {expected[name]}")


def load_model(path) -> TaggerModel:
    """Read and check a model file: one that does not parse raises
    ModelFormatError, one holding a non-finite parameter NumericalError."""
    with open(path, "rb") as fh:
        if fh.readline() != _MAGIC:
            raise ModelFormatError(f"{path}: not a tagger model file")
        seed = int(_header(fh, path, r"seed (\d+)"))
        n_vocab = int(_header(fh, path, r"vocab (\d+)"))
        vocab = [_header(fh, path) for _ in range(n_vocab)]
        shapes = [
            tuple(int(d) for d in
                  _header(fh, path, rf"matrix {re.escape(name)} (\d+(?: \d+)*)").split())
            for name in _MATRIX_NAMES
        ]
        _header(fh, path, "(data)")
        _check_shapes(path, vocab, shapes)
        # sizes are checked against the file before any array is allocated,
        # so a corrupt shape cannot ask for a huge one
        sizes = [8 * math.prod(shape) for shape in shapes]
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        need = sum(8 + n for n in sizes)  # each matrix has an 8-byte length prefix
        if payload != need:
            raise ModelFormatError(f"{path}: payload is {payload} bytes, its header needs {need}")
        arrays = []
        for name, shape, nbytes in zip(_MATRIX_NAMES, shapes, sizes):
            if fh.read(8) != struct.pack("<Q", nbytes):
                raise ModelFormatError(f"{path}: {name} length prefix disagrees with its shape {shape}")
            arrays.append(np.empty(shape, dtype="<f8"))
            fh.readinto(arrays[-1])
    (word_emb, dict_emb, fwx, fwh, fb, bwx, bwh, bb, out_w, out_b) = arrays
    model = TaggerModel(
        vocab=vocab,
        word_emb=word_emb,
        dict_emb=dict_emb,
        fwd=LstmParams(fwx, fwh, fb),
        bwd=LstmParams(bwx, bwh, bb),
        out_w=out_w,
        out_b=out_b,
        rng_seed=seed,
    )
    model.check_finite()
    return model
