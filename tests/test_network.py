import math
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipedefect.config import TrainingConfig
from pipedefect.errors import EmptySequence, ModelFormatError, NumericalError
from pipedefect.network import (
    N_DICT_FEATURES,
    UNK,
    LstmParams,
    batch_logits,
    bilstm_forward,
    init_model,
    load_model,
    lstm_direction,
    save_model,
    sentence_logits,
    step_order,
)
from pipedefect.tagger import MAX_BATCH_TOKENS


def small_model(seed=0, word_dim=6, dict_dim=4, hidden_dim=5, vocab=("leak", "pipe")):
    return init_model(list(vocab), seed=seed, word_dim=word_dim, dict_dim=dict_dim,
                      hidden_dim=hidden_dim)


def reference_step(x, h_prev, c_prev, params: LstmParams):
    """One LSTM step over 1-d vectors, written out gate by gate: the oracle
    for lstm_direction."""
    hd = params.hidden_dim
    z = x @ params.wx + h_prev @ params.wh + params.b
    i = 1.0 / (1.0 + np.exp(-z[:hd]))
    f = 1.0 / (1.0 + np.exp(-z[hd : 2 * hd]))
    o = 1.0 / (1.0 + np.exp(-z[2 * hd : 3 * hd]))
    g = np.tanh(z[3 * hd :])
    c = f * c_prev + i * g
    return o * np.tanh(c), c


def in_stream_order(Z, lengths, params: LstmParams, reverse: bool):
    """lstm_direction over a stream-ordered Z, which it leaves as it was:
    hidden states and cells in the stream's order."""
    order, counts = step_order(lengths, reverse)
    H, C = np.empty((2, len(Z), params.hidden_dim))
    H[order], C[order] = lstm_direction(Z[order], counts, params)
    return H, C


def run_one(xs, params: LstmParams):
    """lstm_direction over one sequence: hidden states and cells."""
    xs = np.asarray(xs, dtype=float)
    return in_stream_order(xs @ params.wx + params.b, [len(xs)], params, reverse=False)


def zero_params(input_dim, hidden_dim):
    return LstmParams(
        wx=np.zeros((input_dim, 4 * hidden_dim)),
        wh=np.zeros((hidden_dim, 4 * hidden_dim)),
        b=np.zeros(4 * hidden_dim),
    )


class TestInit:
    def test_unk_prepended(self):
        m = small_model()
        assert m.vocab[0] == UNK

    def test_deterministic(self):
        a, b = small_model(seed=7), small_model(seed=7)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_seeds_differ(self):
        a, b = small_model(seed=1), small_model(seed=2)
        assert not np.array_equal(a.word_emb, b.word_emb)

    def test_weights_in_range_biases_zero(self):
        m = small_model()
        assert np.all(np.abs(m.word_emb) <= 0.1)
        assert np.all(np.abs(m.fwd.wx) <= 0.1)
        assert np.array_equal(m.fwd.b, np.zeros_like(m.fwd.b))
        assert np.array_equal(m.out_b, np.zeros_like(m.out_b))

    def test_dimensions(self):
        m = small_model()
        assert m.word_emb.shape == (3, 6)
        assert m.dict_emb.shape == (4, 4)
        assert m.fwd.wx.shape == (10, 20)
        assert m.fwd.wh.shape == (5, 20)
        assert m.out_w.shape == (10, 4)


class TestEmbed:
    """Input rows are [word_emb[token], dict_emb[feature]]; sentence_logits
    runs them through bilstm_forward and the output projection."""

    def test_concatenation(self):
        m = small_model()
        ids, feats = [1, 2, 0], [2, 0, 3]
        rows = np.array([np.concatenate([m.word_emb[i], m.dict_emb[f]])
                         for i, f in zip(ids, feats)])
        expected = bilstm_forward(rows, m) @ m.out_w + m.out_b
        assert np.allclose(sentence_logits(ids, feats, m), expected, rtol=0, atol=1e-12)

    def test_unk_token_maps_to_row_zero(self):
        m = small_model()
        assert m.token_index("never-seen") == 0
        assert m.token_index("leak") == 1

    def test_deterministic(self):
        m = small_model()
        assert np.array_equal(sentence_logits([1], [0], m), sentence_logits([1], [0], m))

    def test_known_token_nonzero_norm(self):
        m = small_model()
        assert np.linalg.norm(np.concatenate([m.word_emb[1], m.dict_emb[0]])) > 0


class TestLstmStep:
    """Single steps of lstm_direction against hand and reference arithmetic."""

    def test_zero_weights_zero_state(self):
        p = zero_params(3, 2)
        h, c = run_one(np.zeros((1, 3)), p)
        assert np.array_equal(h, np.zeros((1, 2)))
        assert np.array_equal(c, np.zeros((1, 2)))

    def test_hidden_bounded(self):
        rng = np.random.Generator(np.random.PCG64(3))
        p = LstmParams(wx=rng.normal(size=(4, 8)), wh=rng.normal(size=(2, 8)),
                       b=rng.normal(size=8))
        h, _ = run_one(rng.normal(size=(6, 4)), p)
        assert np.all(np.abs(h) < 1.0)

    def test_scalar_hand_oracle(self):
        # 1-dimensional LSTM evaluated by hand with scalar arithmetic
        wx = np.array([[0.5, -0.3, 0.2, 0.7]])
        wh = np.array([[0.1, 0.4, -0.2, 0.3]])
        b = np.array([0.05, -0.1, 0.2, 0.0])
        params = LstmParams(wx, wh, b)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        def hand(x, h_prev, c_prev):
            i = sig(0.5 * x + 0.1 * h_prev + 0.05)
            f = sig(-0.3 * x + 0.4 * h_prev - 0.1)
            o = sig(0.2 * x + -0.2 * h_prev + 0.2)
            g = math.tanh(0.7 * x + 0.3 * h_prev + 0.0)
            c_exp = f * c_prev + i * g
            return o * math.tanh(c_exp), c_exp

        h_exp, c_exp = hand(0.8, 0.3, -0.4)
        h, c = reference_step(np.array([0.8]), np.array([0.3]), np.array([-0.4]), params)
        assert abs(h[0] - h_exp) <= 1e-12
        assert abs(c[0] - c_exp) <= 1e-12

        # the kernel from a zero state, then from the state its first step left
        h1, c1 = hand(-1.2, 0.0, 0.0)
        h2, c2 = hand(0.8, h1, c1)
        hs, cs = run_one([[-1.2], [0.8]], params)
        assert np.allclose(hs[:, 0], [h1, h2], rtol=0, atol=1e-12)
        assert np.allclose(cs[:, 0], [c1, c2], rtol=0, atol=1e-12)

    def test_nan_parameters_rejected(self, tmp_path):
        m = small_model()
        m.fwd.wx[0, 0] = np.nan
        path = tmp_path / "nan.model"
        save_model(m, path)
        with pytest.raises(NumericalError):
            load_model(path)


class TestBilstmForward:
    def test_length_one(self):
        m = small_model()
        out = bilstm_forward(np.ones((1, m.input_dim)), m)
        h_f, _ = reference_step(np.ones(m.input_dim), np.zeros(5), np.zeros(5), m.fwd)
        h_b, _ = reference_step(np.ones(m.input_dim), np.zeros(5), np.zeros(5), m.bwd)
        assert np.allclose(out[0], np.concatenate([h_f, h_b]), atol=1e-12)

    def test_length_preserved(self):
        m = small_model()
        xs = np.random.default_rng(0).normal(size=(7, m.input_dim))
        assert bilstm_forward(xs, m).shape == (7, 2 * m.hidden_dim)

    def test_reversal_symmetry(self):
        # with identical forward/backward parameters, reversing the input
        # swaps the two output halves positionwise
        m = small_model(seed=11)
        m.bwd = LstmParams(m.fwd.wx.copy(), m.fwd.wh.copy(), m.fwd.b.copy())
        xs = np.random.default_rng(1).normal(size=(5, m.input_dim))
        fwd_half = bilstm_forward(xs, m)[:, : m.hidden_dim]
        bwd_half_rev = bilstm_forward(xs[::-1], m)[::-1, m.hidden_dim :]
        assert np.allclose(fwd_half, bwd_half_rev, atol=1e-12)

    def test_unrolled_oracle(self):
        m = small_model(seed=4)
        xs = np.random.default_rng(2).normal(size=(3, m.input_dim))
        out = bilstm_forward(xs, m)
        hd = m.hidden_dim
        h = np.zeros(hd)
        c = np.zeros(hd)
        fwd = []
        for t in range(3):
            h, c = reference_step(xs[t], h, c, m.fwd)
            fwd.append(h)
        h = np.zeros(hd)
        c = np.zeros(hd)
        bwd = [None] * 3
        for t in (2, 1, 0):
            h, c = reference_step(xs[t], h, c, m.bwd)
            bwd[t] = h
        for t in range(3):
            assert np.allclose(out[t], np.concatenate([fwd[t], bwd[t]]), atol=1e-12)

    def test_empty_rejected(self):
        m = small_model()
        with pytest.raises(EmptySequence):
            bilstm_forward(np.zeros((0, m.input_dim)), m)


def starts(lengths):
    """Where each sentence of a packed stream begins."""
    return np.cumsum(lengths) - lengths


class TestStepOrder:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 9), max_size=8), st.booleans())
    @example([], False)
    @example([0, 0], True)
    @example([3, 5, 3, 1, 5], False)  # ties keep their stream order
    @example([3, 5, 3, 1, 5], True)
    def test_each_step_takes_the_longest_sentences_at_its_time(self, lengths, reverse):
        order, counts = step_order(lengths, reverse)
        assert order.dtype.kind == counts.dtype.kind == "i"  # even when empty
        assert sorted(order.tolist()) == list(range(sum(lengths)))
        assert len(counts) == max(lengths, default=0)
        rises = np.diff(counts)
        assert np.all(rises >= 0) if reverse else np.all(rises <= 0)
        longest_first = sorted(range(len(lengths)), key=lambda s: -lengths[s])  # stable
        j = 0
        for t, n in enumerate(counts.tolist()):
            time = len(counts) - 1 - t if reverse else t
            assert n == sum(length > time for length in lengths)
            assert order[j : j + n].tolist() == [starts(lengths)[s] + time
                                                 for s in longest_first[:n]]
            j += n


class TestLstmDirection:
    def test_packed_stream_matches_each_sequence_alone(self):
        m = small_model(seed=5)
        rng = np.random.default_rng(3)
        lengths = [4, 2, 1]
        X = rng.normal(size=(sum(lengths), m.input_dim))
        for params, reverse in ((m.fwd, False), (m.bwd, True)):
            Z = X @ params.wx + params.b
            H, _ = in_stream_order(Z, lengths, params, reverse)
            for s, n in zip(starts(lengths), lengths):
                alone, _ = in_stream_order(Z[s : s + n], [n], params, reverse)
                assert np.allclose(H[s : s + n], alone, rtol=0, atol=1e-12)


class TestZeroStateSkip:
    """A row entering a step with a zero state takes no product with wh, so
    with wh all NaN every state that follows no earlier step stays finite,
    and equals the state a zero wh gives."""

    @staticmethod
    def with_wh(params: LstmParams, value: float) -> LstmParams:
        return LstmParams(params.wx, np.full_like(params.wh, value), params.b)

    def test_length_one_rows_never_read_wh(self):
        m = small_model(seed=14)
        Z = np.random.default_rng(5).normal(size=(4, 4 * m.hidden_dim))
        for params, reverse in ((m.fwd, False), (m.bwd, True)):
            H, _ = in_stream_order(Z, [1, 1, 1, 1], self.with_wh(params, np.nan), reverse)
            assert np.all(np.isfinite(H))

    def test_each_rows_first_step_never_reads_wh(self):
        m = small_model(seed=15)
        lengths = [3, 1, 5, 2, 5, 4]
        Z = np.random.default_rng(6).normal(size=(sum(lengths), 4 * m.hidden_dim))
        for params, reverse in ((m.fwd, False), (m.bwd, True)):
            H, _ = in_stream_order(Z, lengths, self.with_wh(params, np.nan), reverse)
            zero_wh, _ = in_stream_order(Z, lengths, self.with_wh(params, 0.0), reverse)
            for k, (s, n) in enumerate(zip(starts(lengths), lengths)):
                first = s + n - 1 if reverse else s
                assert np.all(np.isfinite(H[first])), (reverse, k)
                assert np.array_equal(H[first], zero_wh[first])


class TestShrinkingPrefix:
    """lstm_direction steps only the rows still inside their sentence, over
    streams in any length order, with ties, empty and length-1 sentences,
    and sums the recurrent product over row blocks of wh in alternating
    order: hidden sizes below network.N_BLOCKS leave some blocks empty, and
    sizes not divisible by it make them unequal.  A sentence's logits do
    not depend on its neighbours in the stream."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(0, 12), min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
    )
    @example([1, 5, 1, 5, 12, 2], 0, 5)
    @example([1], 1, 5)
    @example([3, 7, 2], 2, 1)  # an odd number of steps ends on the forward order
    @example([2, 6, 6, 1], 3, 2)  # an even number ends on the reversed order
    @example([4, 1, 9], 4, 3)
    @example([8, 3], 5, 8)
    @example([0, 3, 0, 1, 5, 1], 6, 4)  # empty sentences first, between and unsorted
    @example([1, 0], 7, 3)
    @example([0], 8, 2)
    def test_matches_the_step_oracle_per_sequence(self, lengths, seed, hidden_dim):
        m = small_model(seed=8, vocab=("leak", "pipe", "joint", "root"), hidden_dim=hidden_dim)
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, len(m.vocab), size=sum(lengths))
        feats = rng.integers(0, 4, size=sum(lengths))
        X = np.concatenate([m.word_emb[ids], m.dict_emb[feats]], axis=1)
        for params, reverse in ((m.fwd, False), (m.bwd, True)):
            H, _ = in_stream_order(X @ params.wx + params.b, lengths, params, reverse)
            assert H.shape == (sum(lengths), m.hidden_dim)
            for s, n in zip(starts(lengths), lengths):
                h = c = np.zeros(m.hidden_dim)
                for t in reversed(range(s, s + n)) if reverse else range(s, s + n):
                    h, c = reference_step(X[t], h, c, params)
                    assert np.allclose(H[t], h, rtol=0, atol=1e-12)
        logits = batch_logits(ids, feats, lengths, m)
        assert logits.shape == (sum(lengths), 4)
        for s, n in zip(starts(lengths), lengths):
            if n:
                alone = sentence_logits(ids[s : s + n], feats[s : s + n], m)
                assert np.allclose(logits[s : s + n], alone, rtol=0, atol=1e-12)


class TestInputProjections:
    def test_word_row_plus_feature_row_is_the_projection(self):
        m = small_model(seed=12)
        words, dict_rows = m.input_projections
        for k, params in enumerate((m.fwd, m.bwd)):
            for i in range(len(m.vocab)):
                for f in range(4):
                    x = np.concatenate([m.word_emb[i], m.dict_emb[f]])
                    assert np.allclose(words[k, i] + dict_rows[k, f], x @ params.wx + params.b,
                                       rtol=0, atol=1e-12)

    def test_built_on_first_inference_not_at_load(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(small_model(seed=9), path)
        m = load_model(path)
        assert "input_projections" not in vars(m)
        sentence_logits([1, 2], [0, 1], m)
        assert "input_projections" in vars(m)

    def test_weights_behind_the_table_become_read_only(self):
        m = small_model(seed=13)
        m.fwd.wx[0, 0] += 0.01  # writable before the first inference
        before = sentence_logits([1, 2, 0], [0, 1, 3], m)
        for array in (m.word_emb, m.dict_emb, m.fwd.wx, m.fwd.b, m.bwd.wx, m.bwd.b):
            with pytest.raises(ValueError):
                array[0] += 1.0
        assert np.array_equal(sentence_logits([1, 2, 0], [0, 1, 3], m), before)
        m.out_w[0, 0] += 1.0
        m.out_b[0] += 1.0
        assert not np.array_equal(sentence_logits([1, 2, 0], [0, 1, 3], m), before)


class TestSentenceLogits:
    def test_shape(self):
        m = small_model()
        logits = sentence_logits([0, 1, 2], [0, 1, 0], m)
        assert logits.shape == (3, 4)

    def test_zero_projection_uniform_logits(self):
        m = small_model()
        m.out_w[:] = 0.0
        m.out_b[:] = 0.0
        logits = sentence_logits([1, 2], [0, 0], m)
        assert np.array_equal(logits, np.zeros((2, 4)))


class TestBatchLogits:
    def test_packed_stream_matches_each_sentence_alone(self):
        m = small_model(seed=6, vocab=("leak", "pipe", "joint", "root"))
        rng = np.random.default_rng(4)
        lengths = [5, 1, 7, 3]
        ids = rng.integers(0, len(m.vocab), size=sum(lengths))
        feats = rng.integers(0, 4, size=sum(lengths))
        logits = batch_logits(ids, feats, lengths, m)
        assert logits.shape == (sum(lengths), 4)
        for s, n in zip(starts(lengths), lengths):
            alone = sentence_logits(ids[s : s + n], feats[s : s + n], m)
            assert np.allclose(logits[s : s + n], alone, rtol=0, atol=1e-12)

    def test_empty_rejected(self):
        m = small_model()
        with pytest.raises(EmptySequence):
            sentence_logits([], [], m)

    def test_a_full_pass_allocates_under_25_kb_a_token(self):
        """At its peak a pass holds the (N, 2 * hidden) output and one
        direction's projections, states and cells, all step-ordered: 19.7 KB
        a token at the default dimensions.  A stream-order copy of the
        projections and a per-step backprop cache took it to 34."""
        cfg = TrainingConfig()
        m = init_model([f"w{k}" for k in range(40)], seed=0, word_dim=cfg.word_dim,
                       dict_dim=cfg.dict_dim, hidden_dim=cfg.hidden_dim)
        lengths = [40, 3, 0, 25, 60, 12, 1, 50, 65]
        assert sum(lengths) == MAX_BATCH_TOKENS
        rng = np.random.default_rng(7)
        ids = rng.integers(0, len(m.vocab), size=MAX_BATCH_TOKENS)
        feats = rng.integers(0, N_DICT_FEATURES, size=MAX_BATCH_TOKENS)
        batch_logits(ids, feats, lengths, m)  # builds the projection table first
        tracemalloc.start()
        try:
            batch_logits(ids, feats, lengths, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / MAX_BATCH_TOKENS < 25_000


class TestModelFile:
    def test_roundtrip_exact(self, tmp_path):
        m = small_model(seed=9)
        path = tmp_path / "m.model"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.vocab == m.vocab
        assert loaded.rng_seed == m.rng_seed
        for a, b in zip(m.parameters(), loaded.parameters()):
            assert np.array_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(word_dim=st.integers(1, 4), dict_dim=st.integers(1, 4), hidden_dim=st.integers(1, 4),
           n_words=st.integers(0, 3), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_roundtrip_and_every_header_dimension_checked(
        self, word_dim, dict_dim, hidden_dim, n_words, seed, data
    ):
        m = small_model(seed, word_dim, dict_dim, hidden_dim, [f"w{i}" for i in range(n_words)])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.model"
            save_model(m, path)
            loaded = load_model(path)
            assert (loaded.vocab, loaded.rng_seed) == (m.vocab, m.rng_seed)
            for a, b in zip(m.parameters(), loaded.parameters()):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            saved = path.read_bytes()
            lines = [ln for ln in saved.split(b"\n") if ln.startswith(b"matrix ")]
            assert len(lines) == 10
            for line in lines:
                name, *dims = line.decode().split()[1:]
                for k, dim in enumerate(dims):
                    shape = [int(d) for d in dims]
                    shape[k] = data.draw(st.integers(0, 9).filter(lambda v: v != int(dim)))
                    new = f"matrix {name} {' '.join(map(str, shape))}".encode()
                    path.write_bytes(saved.replace(line + b"\n", new + b"\n", 1))
                    # named with its header shape, as the mismatch or as a
                    # matrix whose dimensions the others must fit
                    wrong = rf"{re.escape(name)} (has shape )?{re.escape(str(tuple(shape)))}"
                    with pytest.raises(ModelFormatError, match=wrong):
                        load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_bytes(b"not a model\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(small_model(seed=9), path)
        data = path.read_bytes()
        header_end = data.index(b"data\n") + len(b"data\n")
        cuts = [0, 10, 25, 30, 40, header_end - 3, header_end, header_end + 4,
                header_end + 8, header_end + 100, len(data) - 1]
        for cut in cuts:
            path.write_bytes(data[:cut])
            with pytest.raises(ModelFormatError):
                load_model(path)

    def test_header_that_does_not_parse_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(small_model(seed=9), path)
        data = path.read_bytes()
        for old, new in ((b"vocab 3\n", b"vocab three\n"),
                         (b"matrix fwd.wh 5 20\n", b"matrix fwd.wh 5 x\n"),
                         (b"matrix out_b 4\n", b"matrix out_w 4\n")):
            path.write_bytes(data.replace(old, new, 1))
            with pytest.raises(ModelFormatError):
                load_model(path)

    def test_payload_length_must_match_header_shape(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(small_model(seed=9), path)
        data = path.read_bytes()
        # word_emb is (3, 6): 144 bytes; claim 136 and 152
        prefix = data.index(b"data\n") + len(b"data\n")
        assert data[prefix : prefix + 8] == struct.pack("<Q", 144)
        for nbytes in (136, 152):
            path.write_bytes(data[:prefix] + struct.pack("<Q", nbytes) + data[prefix + 8 :])
            with pytest.raises(ModelFormatError):
                load_model(path)

    def test_transposed_matrix_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(small_model(seed=9), path)
        data = path.read_bytes()
        # out_w is (10, 4); the swapped header keeps the payload size
        path.write_bytes(data.replace(b"matrix out_w 10 4\n", b"matrix out_w 4 10\n", 1))
        with pytest.raises(ModelFormatError, match="out_w"):
            load_model(path)

    def test_vocabulary_must_fit_word_emb(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(small_model(seed=9), path)
        data = path.read_bytes()
        assert b"vocab 3\n<unk>\nleak\npipe\n" in data
        for old, new, named in (
            (b"vocab 3\n<unk>\nleak\npipe\n", b"vocab 4\n<unk>\nleak\npipe\nvalve\n", "word_emb"),
            (b"vocab 3\n<unk>\nleak\npipe\n", b"vocab 3\nleak\n<unk>\npipe\n", UNK),
        ):
            path.write_bytes(data.replace(old, new, 1))
            with pytest.raises(ModelFormatError, match=named):
                load_model(path)

    def test_repeated_vocabulary_word_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(small_model(seed=9), path)
        data = path.read_bytes()
        # the word count and shapes still fit; only the repeat is wrong
        for vocab, word in ((b"<unk>\nleak\nleak\n", "'leak'"), (b"<unk>\n<unk>\npipe\n", "'<unk>'")):
            path.write_bytes(data.replace(b"<unk>\nleak\npipe\n", vocab, 1))
            with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: .*{word}"):
                load_model(path)

    @pytest.mark.parametrize("vocab, word", [(["leak", "leak"], "leak"),
                                             (["pipe", "<unk>", "leak", "pipe"], "pipe"),
                                             (["<unk>", "leak", "<unk>"], "<unk>")])
    def test_init_model_refuses_a_repeated_word(self, vocab, word):
        # load_model refuses such a model, so init_model does not build one
        with pytest.raises(ValueError, match=f"^vocabulary repeats the word '{re.escape(word)}'$"):
            init_model(vocab, seed=0, word_dim=2, dict_dim=2, hidden_dim=2)

    def test_every_truncation_and_sampled_byte_change_loads_or_is_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(small_model(seed=10, word_dim=2, dict_dim=2, hidden_dim=2, vocab=("leak",)),
                   path)
        data = path.read_bytes()
        rng = np.random.Generator(np.random.PCG64(12))
        changed = []
        for pos, delta in zip(rng.integers(0, len(data), 600), rng.integers(1, 256, 600)):
            buf = bytearray(data)
            buf[pos] = (buf[pos] + delta) % 256
            changed.append(bytes(buf))
        for variant in [data[:cut] for cut in range(len(data))] + changed:
            path.write_bytes(variant)
            try:
                model = load_model(path)
            except (ModelFormatError, NumericalError):
                continue
            assert all(np.all(np.isfinite(p)) for p in model.parameters())

    def test_check_finite(self):
        m = small_model()
        m.out_w[0, 0] = np.inf
        with pytest.raises(NumericalError):
            m.check_finite()
