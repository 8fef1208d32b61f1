"""Tests of the benchmark's oracles, typo injector, tracer, host scaling and
memory probe.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import logging
import random
import resource
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from pipedefect import corpus, lexicon, network, pipeline, preprocess, tagger  # noqa: E402
from pipedefect.config import PipelineConfig, build_default_lexicon, load_resources  # noqa: E402
from pipedefect.corpus import GoldEntity  # noqa: E402

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BOX_TEXT = (
    "Very Frequently, there is a leakage in pipe at 10 feet away "
    "from pipe installation"
)


@pytest.fixture(scope="module")
def resources():
    logging.getLogger("pipedefect.lexicon").setLevel(logging.ERROR)
    return load_resources(PipelineConfig(), require_lexicon=False)


# --- rating oracle ----------------------------------------------------------


def test_rating_table_covers_every_triple_once():
    assert len(oracles.RATING_TABLE) == 30
    assert sum(gap for _, gap in oracles.RATING_TABLE.values()) == 4
    assert oracles.RATING_TABLE[(0.99, 1.0, 1.0)] == (5, False)
    assert oracles.RATING_TABLE[(0.75, 0.9, 0.8)] == (4, False)
    assert oracles.RATING_TABLE[(0.1, 0.9, 0.8)] == (1, True)
    assert oracles.RATING_TABLE[(0.99, 0.9, 0.5)] == (1, False)


def test_worked_example_rates_5(resources):
    by_hand = [
        ("FrequencyOfDefects", False, "very frequently", "very frequently"),
        ("Defect", False, "leakage", "leak"),
        ("LocationOfDefect", False, None, None),
    ]
    assert oracles.expected_rating(by_hand) == ((0.99, 0.9, 0.8), 5)
    report = pipeline.rate_document(corpus.parse_document(BOX_TEXT, "box"), resources)
    oracles.check_rating(report, oracles.reported_entities(report))
    assert report.rating.value == 5


def test_weights_skip_negated_and_count_roots():
    entities = [
        ("Defect", False, "leaks", "leak"),
        ("Defect", False, "leaking", "leak"),
        ("Defect", True, "crack", "crack"),
        ("FrequencyOfDefects", True, "frequently", "frequently"),
        ("FrequencyOfDefects", False, "rarely", "rarely"),
        ("LocationOfDefect", False, "joint", "joint"),
        ("LocationOfDefect", False, "manhole", "manhole"),
    ]
    assert oracles.expected_weights(entities) == (0.25, 1.0, 0.8)
    assert oracles.expected_weights([]) == (0.1, 1.0, 0.5)
    with pytest.raises(oracles.OracleError):
        oracles.expected_weights([("FrequencyOfDefects", False, "pipe", None)])


def test_gold_negation_is_the_word_no(resources):
    raw = "Defects: Frequently cracks observed. No leaks found."
    gold = [GoldEntity("FrequencyOfDefects", (9, 19)), GoldEntity("Defect", (20, 26)),
            GoldEntity("Defect", (40, 45))]
    got = oracles.gold_entities(raw, gold, resources.lexicon)
    assert [(e[0], e[1], e[2]) for e in got] == [
        ("FrequencyOfDefects", False, "frequently"),
        ("Defect", False, "cracks"),
        ("Defect", True, "leaks"),
    ]
    assert oracles.expected_rating(got)[1] == 5


# --- spelling oracle --------------------------------------------------------


def test_levenshtein_fixed_pairs():
    for a, b, d in [("kitten", "sitting", 3), ("", "abc", 3), ("flaw", "lawn", 2),
                    ("leak", "leak", 0), ("leak", "lake", 2), ("crack", "carck", 2)]:
        assert oracles.levenshtein(a, b) == d
        assert oracles.levenshtein(b, a) == d


def test_spelling_oracle_properties():
    oracle = oracles.SpellingOracle(frozenset({"leak", "leek", "lake", "crack", "at"}))
    assert oracle.expected("leak") == "leak"  # known
    assert oracle.expected("lk") == "lk"  # too short
    assert oracle.expected("1234") == "1234"  # no letter
    assert oracle.expected("lek") == "leak"  # tie at distance 1 -> smallest term
    assert oracle.expected("crakc") == "crack"  # transposition costs 2
    assert oracle.expected("zzzzzz") == "zzzzzz"  # nothing within 2


def test_spelling_oracle_agrees_with_the_corrector():
    rng = random.Random(7)
    vocab = frozenset("".join(rng.choice("abcde") for _ in range(rng.randint(2, 7)))
                      for _ in range(60))
    oracle = oracles.SpellingOracle(vocab)
    spell = preprocess.SpellVocabulary(known_terms=vocab)
    for _ in range(300):
        word = "".join(rng.choice("abcde1") for _ in range(rng.randint(1, 8)))
        token = corpus.Token(word, word, (0, len(word)))
        oracle.check_token(preprocess.correct_spelling(token, spell))


# --- Bi-LSTM reference ------------------------------------------------------


def test_reference_forward_matches_the_network():
    model = network.init_model(["a", "b", "c"], seed=3, word_dim=6, dict_dim=4, hidden_dim=5)
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(20):
        n = int(rng.integers(1, 9))
        ids = [int(i) for i in rng.integers(0, 4, n)]
        feats = [int(i) for i in rng.integers(0, 4, n)]
        want = network.sentence_logits(ids, feats, model)
        assert np.allclose(oracles.reference_logits(ids, feats, model), want, atol=1e-12)


def test_reference_forward_of_zero_model_is_the_bias():
    model = network.init_model(["a"], seed=0, word_dim=3, dict_dim=2, hidden_dim=4)
    for p in model.parameters():
        p[:] = 0.0
    model.out_b[:] = [0.0, 1.0, 2.0, 0.5]
    logits = oracles.reference_logits([0, 1, 0], [0, 3, 2], model)
    assert np.array_equal(logits, np.tile(model.out_b, (3, 1)))
    oracles.check_tags([2, 2, 2], logits, "zero model")
    with pytest.raises(oracles.OracleError):
        oracles.check_tags([2, 1, 2], logits, "zero model")


def test_gold_tags_follow_span_overlap(resources):
    raw = "Defects: Frequently cracks observed at 10 feet."
    doc = pipeline.preprocess_document(corpus.parse_document(raw, "d"), resources)
    gold = [GoldEntity("FrequencyOfDefects", (9, 19)), GoldEntity("Defect", (20, 26)),
            GoldEntity("SizeOfDefect", (39, 46))]
    assert oracles.gold_tags(doc.sentences[0], gold) == [3, 1, 0, 0, 0, 0, 0]
    assert oracles.gold_tags(doc.sentences[0], gold) == [
        int(t) for t in tagger.tags_from_gold_spans(doc.sentences, gold)[0]
    ]


# --- typo injector ----------------------------------------------------------


def test_typos_keep_gold_spans_on_their_words(resources):
    clean = workloads.generate(resources.lexicon, 200, seed=5)
    typoed = workloads.add_typos(clean, 0.15, seed=5)
    edited = 0
    for before, after in zip(clean, typoed):
        words = len([w for body in corpus.parse_document(before.raw, "x").sections.values()
                     for w in workloads._WORD_RE.findall(body)])
        assert len(after.edits) == int(0.15 * words + 0.5)
        assert after.raw.split(":")[0] == before.raw.split(":")[0]
        for edit in after.edits:
            old = before.raw[slice(*edit.old_word)]
            new = after.raw[slice(*edit.new_word)]
            assert new != old and new[0] == old[0]
            assert edit.kind in workloads.EDIT_KINDS
            for g_old, g_new in zip(before.gold, after.gold):
                if g_old.span[0] <= edit.old_word[0] and edit.old_word[1] <= g_old.span[1]:
                    assert g_new.span[0] <= edit.new_word[0] and edit.new_word[1] <= g_new.span[1]
                    edited += 1
        for g_old, g_new in zip(before.gold, after.gold):
            assert g_old.entity_type == g_new.entity_type
            touched = [e for e in after.edits
                       if g_old.span[0] <= e.old_word[0] and e.old_word[1] <= g_old.span[1]]
            if not touched:
                assert after.raw[slice(*g_new.span)] == before.raw[slice(*g_old.span)]
    assert edited > 0


def test_each_edit_kind_is_one_edit():
    rng = random.Random(1)
    for _ in range(500):
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(4, 10)))
        kind, new = workloads._edit_word(word, rng)
        assert oracles.levenshtein(word, new) == (2 if kind == "transpose" else 1)


# --- tracer -----------------------------------------------------------------


def test_tracer_restores_functions_and_splits_self_time(resources):
    original = pipeline.rate_document
    tracer = Tracer()
    tracer.install()
    try:
        pipeline.rate_document(corpus.parse_document(BOX_TEXT, "box"), resources)
    finally:
        tracer.uninstall()
    assert pipeline.rate_document is original
    totals = tracer.totals
    assert totals.calls["pipeline.rate_document"] == 1
    assert totals.calls["preprocess.preprocess_section"] == 1
    children = sum(totals.ns[n] for n in ("preprocess.preprocess_section",
                                           "tagger.dictionary_tag", "tagger.extract_entities",
                                           "rating.rate_frames"))
    rd = "pipeline.rate_document"
    assert totals.self_ns[rd] == totals.ns[rd] - children


# --- host scaling -----------------------------------------------------------


def test_reference_unit_computes_fixed_distances():
    assert sum(hostspeed._distance(a, b) for a, b in hostspeed._PAIRS) == sum(
        oracles.levenshtein(a, b) for a, b in hostspeed._PAIRS
    )
    assert hostspeed.unit_seconds() > 0


def test_timed_pass_scales_by_the_units_around_each_document(monkeypatch):
    """Documents between two units are scaled by NOMINAL_S / their mean;
    an unscaled workload keeps wall times and times no unit."""
    units = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(hostspeed, "unit_seconds", lambda: next(units))
    monkeypatch.setattr(run, "UNIT_EVERY_S", 0.0)  # a unit after every document
    monkeypatch.setattr(run, "rate", lambda wl, bd: (None, "report"))
    monkeypatch.setattr(run, "CLOCK", iter(range(0, 100, 1)).__next__)

    class Same:
        def again(self, k, report):
            assert report == "report"

    docs = ["a", "b"]
    latencies, seen = [[], []], []
    wl = run.Workload("typo_dict", docs, resources=None)
    total, wall = run.timed_pass(wl, Same(), latencies, seen)
    # each document takes one tick; the units around them are 2, 4 and 1
    nominal = hostspeed.NOMINAL_S
    assert latencies == [[nominal / 3.0], [nominal / 2.5]]
    assert seen == [4.0, 1.0]
    assert (total, wall) == (pytest.approx(nominal / 3.0 + nominal / 2.5), 2.0)

    wl.host_scaled = False
    latencies, seen = [[], []], []
    assert run.timed_pass(wl, Same(), latencies, seen) == (2.0, 2.0)
    assert latencies == [[1.0], [1.0]] and seen == []


# --- memory probe -----------------------------------------------------------


def test_memory_probe_reports_its_own_peak(resources, tmp_path):
    """The probe's peak leaves out memory its parent held when it started."""
    lexicon.save_lexicon(build_default_lexicon(PipelineConfig()), tmp_path / "lexicon.tsv")
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "box.txt").write_text(BOX_TEXT, encoding="utf-8")
    ballast = bytearray(b"\x01") * (64 << 20)  # 64 MB, every page written
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe.py")), str(SRC),
         str(tmp_path / "lexicon.tsv"), "-", str(docs)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    parent_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    del ballast
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["rated"], result["failed"]) == (1, 0)
    assert result["peak_rss_mb"] < parent_mb - 32
