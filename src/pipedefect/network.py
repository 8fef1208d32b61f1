"""Bi-LSTM sequence labeling network, implemented directly on numpy.

One batched direction pass (lstm_direction) holds the only copy of the gate
equations, and one loop (_hidden) runs it in both directions: training
calls that loop on a batch of sentences, inference (batch_logits) on the
sentences of one document.  Both give it one packed stream of the
sentences' real tokens, nothing padded, in step order (step_order), and a
direction's state is three step-ordered arrays: the input projections,
which the activations overwrite in place, and the hidden states and cells.
Training keeps them for backprop; inference keeps nothing: a 256-token pass
peaks at about 19.7 KB a token at the default dimensions.  Gate order
inside the packed weight matrices is [input, forget, output, candidate].

numpy is imported inside each function that uses it, not at the top, so
importing this module loads no numpy.  Rating with the dictionary tagger
does not import it at all: tagger and cli import it where the network runs
or a model is read or written.
"""

from __future__ import annotations

import math
import os
import re
import struct
from functools import cached_property

from .errors import EmptySequence, ModelFormatError, NumericalError

UNK = "<unk>"

N_TAGS = 4
N_DICT_FEATURES = 4  # none / defect / location / frequency

# lstm_direction reads wh in N_BLOCKS reversing row blocks while a step
# carries at most BLOCK_ROWS rows, and in one product above that: with one
# BLAS thread, 6 blocks beat 4 and 8 on the held-out bilstm documents, and
# beat one product up to 16 rows but not at 20 or more.
N_BLOCKS = 6
BLOCK_ROWS = 16


class LstmParams:
    __slots__ = ("wx", "wh", "b")  # (input_dim, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,)

    def __init__(self, wx: np.ndarray, wh: np.ndarray, b: np.ndarray):
        self.wx, self.wh, self.b = wx, wh, b

    @property
    def hidden_dim(self) -> int:
        return self.wh.shape[0]


class TaggerModel:
    def __init__(self, vocab: list[str], arrays: list[np.ndarray], rng_seed: int):
        """The model holding the parameter arrays given in file order (_layout)."""
        self.vocab = vocab  # vocab[0] == UNK
        self.word_emb = arrays[0]  # (|V|, word_dim)
        self.dict_emb = arrays[1]  # (N_DICT_FEATURES, dict_dim)
        self.fwd, self.bwd = LstmParams(*arrays[2:5]), LstmParams(*arrays[5:8])
        self.out_w, self.out_b = arrays[8:]  # (2 * hidden, N_TAGS) and (N_TAGS,)
        self.rng_seed = rng_seed
        self._token_ids = {t: i for i, t in enumerate(vocab)}

    @property
    def input_dim(self) -> int:
        return self.word_emb.shape[1] + self.dict_emb.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.fwd.hidden_dim

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
        import numpy as np

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
        import numpy as np

        for p in self.parameters():
            if not np.all(np.isfinite(p)):
                raise NumericalError("model contains non-finite parameters")


def init_model(
    vocab: list[str], seed: int, word_dim: int, dict_dim: int, hidden_dim: int
) -> TaggerModel:
    """Uniform [-0.1, 0.1] initialization of the matrices from a seeded
    generator, drawn in file order; biases start at zero.  A vocabulary
    that names a word twice raises ValueError, as load_model would refuse
    the model."""
    import numpy as np

    if not vocab or vocab[0] != UNK:
        vocab = [UNK] + [t for t in vocab if t != UNK]
    repeated = _repeated_word(vocab)
    if repeated is not None:
        raise ValueError(f"vocabulary repeats the word {repeated!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    arrays = [
        rng.uniform(-0.1, 0.1, size=shape) if len(shape) == 2 else np.zeros(shape)
        for shape in _layout(len(vocab), word_dim, dict_dim, hidden_dim).values()
    ]
    return TaggerModel(list(vocab), arrays, rng_seed=seed)


def _repeated_word(vocab: list[str]) -> str | None:
    """The first word of vocab that a word before it already named, if any:
    a repeated word would leave a dead word_emb row."""
    seen: set[str] = set()
    for word in vocab:
        if word in seen:
            return word
        seen.add(word)
    return None


def _layout(n_vocab: int, word_dim: int, dict_dim: int, hidden: int) -> dict:
    """The shape of each parameter array, by name, in file order."""
    gates = {"wx": (word_dim + dict_dim, 4 * hidden), "wh": (hidden, 4 * hidden),
             "b": (4 * hidden,)}
    return {
        "word_emb": (n_vocab, word_dim),
        "dict_emb": (N_DICT_FEATURES, dict_dim),
        **{f"{d}.{k}": shape for d in ("fwd", "bwd") for k, shape in gates.items()},
        "out_w": (2 * hidden, N_TAGS),
        "out_b": (N_TAGS,),
    }


def step_order(lengths, reverse: bool):
    """(order, counts) of a packed stream of sentences, lengths tokens each
    (a sentence may have none), in one time direction.  Sentences are ordered
    longest first (stably), so the ones running at each of the max(lengths)
    steps are a prefix: counts[t] of them at step t, whose tokens' stream
    rows come next in order.  Forward the counts never rise, backward they
    never fall."""
    import numpy as np

    lengths = np.asarray(lengths, dtype=np.int64)
    rows = np.argsort(-lengths, kind="stable")
    times = np.arange(lengths.max(initial=0))[:: -1 if reverse else 1]
    inside = lengths[rows] > times[:, None]  # (steps, sentences), sentences sorted
    at, rank = np.nonzero(inside)
    return (np.cumsum(lengths) - lengths)[rows[rank]] + times[at], np.count_nonzero(inside, axis=1)


def lstm_direction(Z, counts, params: LstmParams):
    """Recurrence over a packed stream of sentences in step order.

    Z: (N, 4 * hidden) input projections x @ wx + b, in the order of
    step_order, whose counts give the rows of each step.  The gate
    arithmetic overwrites Z in place with the activations [i, f, o, g].
    Returns the hidden states and cells (H, C), (N, hidden) each, in step
    order too; a step reads its carried rows as the step before's first.

    The recurrent product h @ wh is added only into the rows that carry a
    state from the step before: none at a direction's first step and,
    going backward, none into a shorter sentence at the step where it
    starts with a zero state.  Up to BLOCK_ROWS carried rows, the product
    is summed over N_BLOCKS row blocks of wh, whose order reverses after
    every such step: wh (2.88 MB at the default 300 hidden units) does not
    fit a 2 MB L2 cache, but each step then starts on the blocks the step
    before read last, which are still there.  The blocks are views of wh,
    not copies.  Above BLOCK_ROWS rows the partial products cost more than
    they save, and the step takes one h @ wh.
    """
    import numpy as np

    hd = params.hidden_dim
    H, C = np.empty((len(Z), hd)), np.empty((len(Z), hd))
    blocks = [slice(hd * q // N_BLOCKS, hd * (q + 1) // N_BLOCKS) for q in range(N_BLOCKS)]
    prev = start = k = 0
    for n in counts.tolist():
        k = min(k, n)  # rows carrying a state; any others enter at zero
        z, c, h = Z[start : start + n], C[start : start + n], H[start : start + n]
        h_prev, c_prev = H[prev : prev + k], C[prev : prev + k]
        if k > BLOCK_ROWS:
            z[:k] += h_prev @ params.wh
        elif k:
            for q in blocks:
                z[:k] += h_prev[:, q] @ params.wh[q]
            blocks.reverse()
        ifo, g = z[:, : 3 * hd], z[:, 3 * hd :]
        np.negative(ifo, out=ifo)
        np.exp(ifo, out=ifo)
        ifo += 1.0
        np.reciprocal(ifo, out=ifo)
        np.tanh(g, out=g)
        np.multiply(ifo[:, :hd], g, out=c)
        c[:k] += ifo[:k, hd : 2 * hd] * c_prev
        np.tanh(c, out=h)
        h *= ifo[:, 2 * hd :]
        prev, start, k = start, start + n, n
    return H, C


def _hidden(project, lengths, model: TaggerModel, kept: list | None = None) -> np.ndarray:
    """Forward and backward hidden states side by side, (N, 2 * hidden), in
    the stream's order.  project(k, params, order) gives direction k's input
    projections (N, 4 * hidden) in that direction's step order, the forward
    direction's first.  Training passes a list as kept, and each direction's
    (order, counts, Z, H, C) is appended to it for backprop: the step order
    and the kernel's activations, states and cells.  Without one nothing is
    kept, and each direction's arrays are dropped before the next runs."""
    import numpy as np

    hd = model.hidden_dim
    out = np.empty((int(np.sum(lengths)), 2 * hd))
    for k, params in enumerate((model.fwd, model.bwd)):
        order, counts = step_order(lengths, reverse=k == 1)
        Z = project(k, params, order)
        H, C = lstm_direction(Z, counts, params)
        out[order, k * hd : (k + 1) * hd] = H
        if kept is not None:
            kept.append((order, counts, Z, H, C))
        del Z, H, C
    return out


def bilstm_forward(xs, model: TaggerModel) -> np.ndarray:
    """Per-position concatenation of forward and backward hidden states.

    xs: (T, input_dim). Returns (T, 2 * hidden).
    """
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise EmptySequence("bilstm_forward requires a non-empty (T, D) sequence")
    return _hidden(lambda k, p, order: xs[order] @ p.wx + p.b, [len(xs)], model)


def batch_logits(ids, feats, lengths, model: TaggerModel) -> np.ndarray:
    """Tag logits (N, N_TAGS) of a packed stream of sentences.

    ids, feats: (N,) ints, each sentence's tokens one after another;
    lengths: tokens per sentence.  Each direction's input projections are
    gathered from the model's per-vocabulary table straight into its step
    order, and each feature's row is added in place where it applies.
    """
    import numpy as np

    words, dict_rows = model.input_projections
    ids, feats = np.asarray(ids, dtype=np.intp), np.asarray(feats, dtype=np.intp)

    def project(k, _, order):
        Z = words[k][ids[order]]
        stepped = feats[order][:, None]
        for f, row in enumerate(dict_rows[k]):
            np.add(Z, row, out=Z, where=stepped == f)
        return Z

    return _hidden(project, lengths, model) @ model.out_w + model.out_b


def sentence_logits(token_indices, dict_features, model: TaggerModel) -> np.ndarray:
    """Tag logits (T, N_TAGS) of one sentence: batch_logits of a stream
    holding it alone."""
    if not len(token_indices):
        raise EmptySequence("sentence_logits requires at least one token")
    return batch_logits(token_indices, dict_features, [len(token_indices)], model)


# ---------------------------------------------------------------------------
# model file container: text header + packed little-endian float64 payload
# ---------------------------------------------------------------------------

_MAGIC = b"PIPEDEFECT-TAGGER v1\n"
_MATRIX_NAMES = tuple(_layout(0, 0, 0, 0))


def save_model(model: TaggerModel, path) -> None:
    import numpy as np

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


def _check_shapes(path, vocab: list[str], shapes: list[tuple[int, ...]]) -> dict:
    """The layout of the header's matrix shapes, which must fit the
    vocabulary and each other.  The dimensions are read from word_emb,
    dict_emb and fwd.wh, so an error names those too.  The vocabulary must
    start with UNK and name each word once."""
    if not vocab or vocab[0] != UNK:
        raise ModelFormatError(f"{path}: vocabulary must start with {UNK}")
    repeated = _repeated_word(vocab)
    if repeated is not None:
        raise ModelFormatError(f"{path}: vocabulary repeats the word {repeated!r}")
    named = dict(zip(_MATRIX_NAMES, shapes))
    layout = _layout(len(vocab), named["word_emb"][-1], named["dict_emb"][-1], named["fwd.wh"][0])
    for name, shape in named.items():
        if shape != layout[name]:
            basis = ", ".join(f"{b} {named[b]}" for b in ("word_emb", "dict_emb", "fwd.wh"))
            raise ModelFormatError(f"{path}: {name} has shape {shape}, expected {layout[name]}"
                                   f" to fit {basis}")
    return layout


def load_model(path) -> TaggerModel:
    """Read and check a model file: one that does not parse raises
    ModelFormatError, one holding a non-finite parameter NumericalError."""
    import numpy as np

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
        layout = _check_shapes(path, vocab, shapes)
        # sizes are checked against the file before any array is allocated,
        # so a corrupt shape cannot ask for a huge one
        sizes = [8 * math.prod(shape) for shape in layout.values()]
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        need = sum(8 + n for n in sizes)  # each matrix has an 8-byte length prefix
        if payload != need:
            raise ModelFormatError(f"{path}: payload is {payload} bytes, its header needs {need}")
        arrays = []
        for (name, shape), nbytes in zip(layout.items(), sizes):
            if fh.read(8) != struct.pack("<Q", nbytes):
                raise ModelFormatError(f"{path}: {name} length prefix disagrees with its shape {shape}")
            arrays.append(np.empty(shape, dtype="<f8"))
            fh.readinto(arrays[-1])
    model = TaggerModel(vocab, arrays, rng_seed=seed)
    model.check_finite()
    return model
