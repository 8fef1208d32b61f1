"""Fixed-seed benchmark of the pipedefect rating pipeline.

    python3 perfbench/run.py --workload clean_dict --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; pipedefect is imported from
src/.  Each workload rates its documents one at a time, in a closed loop,
through corpus.parse_document -> pipeline.rate_document (the path of
`pipedefect rate`), repeating whole passes over the documents until
--seconds have passed.  Every output is checked against the oracles in
oracles.py.  The last line of stdout is one JSON object: correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).  --workload all runs the three workloads in turn
in this process and prefixes each metric with its workload's name.
README.md describes the workloads and metrics.
"""

import os

# One BLAS thread: the figures are steadier on a small shared host, and the
# benchmark measures one single-threaded process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
if not (SRC / "pipedefect" / "__init__.py").is_file():
    sys.exit(f"error: pipedefect sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from pipedefect import config, corpus, lexicon, network, pipeline, tagger, training  # noqa: E402
from pipedefect.errors import PipeDefectError  # noqa: E402
from pipedefect.preprocess import load_phrase_file  # noqa: E402

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("clean_dict", "typo_dict", "bilstm")
CLEAN_DOCS = 1000
TYPO_DOCS = 1000
# Share of the words of four or more letters that get one typo.  A stress
# setting, not a measured rate of field reports: high enough that the
# spelling search dominates each document.
TYPO_SHARE = 0.15
TRAIN_DOCS = 300
HELD_OUT_DOCS = 250
EPOCHS = 3
SETUP_PROBES = 15  # fresh set-up processes per run, spread over the passes
UNIT_EVERY_S = 0.02  # wall time between reference units on host-scaled workloads
TAIL_BEYOND = 10  # documents slower than doc_tail_ms
MIN_ROUNDS = 3
# Floors of the acceptance test for the recurrent tagger.
MIN_TOKEN_ACCURACY = 0.90
MIN_RATING_ACCURACY = 0.85

CLOCK = time.perf_counter


@dataclass
class Workload:
    name: str
    docs: list  # workloads.BenchDoc
    resources: object
    tagger: str = pipeline.DICT_TAGGER
    # Document times scaled by the reference unit (hostspeed.py); bilstm's
    # numpy-bound times do not follow the unit, so they stay wall times.
    host_scaled: bool = True
    model: object = None
    model_path: str | None = None
    info: dict = field(default_factory=dict)
    training: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def build_lexicon(workdir: Path) -> Path:
    """What `pipedefect build-lexicon` writes, in the run's work directory."""
    path = workdir / "lexicon.tsv"
    lexicon.save_lexicon(config.build_default_lexicon(config.PipelineConfig()), path)
    return path


def prepare(name: str, seed: int, resources, workdir: Path, tracer) -> Workload:
    """The workload's documents; for bilstm also the trained, saved and
    reloaded model.  With a tracer, one more training epoch runs traced, for
    the per-layer training figures; the model comes from the untraced run."""
    lex = resources.lexicon
    if name == "clean_dict":
        return Workload(name, workloads.generate(lex, CLEAN_DOCS, seed), resources)
    if name == "typo_dict":
        clean = workloads.generate(lex, TYPO_DOCS, seed)
        docs = workloads.add_typos(clean, TYPO_SHARE, seed)
        wl = Workload(name, docs, resources)
        wl.info["edited_words"] = sum(len(d.edits) for d in docs)
        return wl
    docs = workloads.generate(lex, TRAIN_DOCS + HELD_OUT_DOCS, seed)
    train_docs, held_out = docs[:TRAIN_DOCS], docs[TRAIN_DOCS:]
    sentences = []
    for bd in train_docs:
        doc = pipeline.preprocess_document(corpus.parse_document(bd.raw, bd.id), resources)
        sentences += zip(doc.sentences, tagger.tags_from_gold_spans(doc.sentences, bd.gold))
    start = CLOCK()
    result = training.train(sentences, lex, training.TrainingConfig(epochs=EPOCHS), seed=seed)
    seconds = CLOCK() - start
    traced_epoch_s = 0.0
    if tracer:
        tracer.install()
        start = CLOCK()
        training.train(sentences, lex, training.TrainingConfig(epochs=1), seed=seed)
        traced_epoch_s = CLOCK() - start
        tracer.uninstall()
    model_path = workdir / "tagger.model"
    network.save_model(result.model, model_path)
    wl = Workload(name, held_out, resources, pipeline.BILSTM_TAGGER, False,
                  network.load_model(model_path), str(model_path))
    wl.training = {"seconds": seconds, "traced_epoch_s": traced_epoch_s,
                   "losses": result.epoch_losses, "sentences": len(sentences),
                   "tokens": sum(len(sentence.tokens) for sentence, _ in sentences)}
    losses = result.epoch_losses
    if not all(math.isfinite(x) for x in losses) or not losses[-1] < losses[0]:
        raise oracles.OracleError(f"training losses {losses} must be finite and falling")
    return wl


# ---------------------------------------------------------------------------
# set-up time and memory, in fresh processes
# ---------------------------------------------------------------------------


def probe_command(lexicon_path: Path, model_path: str | None, docs_dir: Path | None = None):
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), str(lexicon_path), model_path or "-"]
    return cmd + [str(docs_dir)] if docs_dir else cmd


def probe(cmd) -> dict:
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def peak_rss(wl: Workload, lexicon_path: Path, workdir: Path) -> float:
    """Peak RSS of a fresh process that sets up and rates every document of
    the workload once, from files, as `pipedefect rate` does."""
    docs_dir = workdir / f"{wl.name}-docs"
    docs_dir.mkdir()
    for bd in wl.docs:
        (docs_dir / f"{bd.id}.txt").write_text(bd.raw, encoding="utf-8")
    done = probe(probe_command(lexicon_path, wl.model_path, docs_dir))
    if done["rated"] + done["failed"] != len(wl.docs):
        raise oracles.OracleError(f"memory probe rated {done['rated']} of {len(wl.docs)} documents")
    return done["peak_rss_mb"]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def fingerprint(report) -> bytes | None:
    if report is None:
        return None
    text = repr((report.weights, report.rating, report.entities))
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


class Checker:
    """Oracle checks of a workload's first pass; later passes must repeat it,
    compared by a fingerprint of each report."""

    def __init__(self, wl: Workload, vocab: frozenset[str]):
        self.wl = wl
        self.expected: list[bytes | None] = []
        self.spelling = oracles.SpellingOracle(vocab)
        self.word_index = {word: k for k, word in enumerate(wl.model.vocab)} if wl.model else {}
        self.tokens = self.tokens_right = self.ratings_right = 0
        self.gold_found = self.gold_total = 0

    def first(self, bd, doc, report) -> None:
        self.expected.append(fingerprint(report))
        if report is None:
            return
        lex = self.wl.resources.lexicon
        found = {(e["type"], tuple(e["raw_span"])) for e in report.entities}
        if self.wl.name == "clean_dict":
            oracles.check_rating(report, oracles.gold_entities(bd.raw, bd.gold, lex))
            if report.rating.value != bd.rating:
                raise oracles.OracleError(f"{bd.id}: rating {report.rating.value}, gold {bd.rating}")
            gold = {(g.entity_type, g.span) for g in bd.gold}
            if found != gold:
                raise oracles.OracleError(f"{bd.id}: entities {sorted(found)}, gold {sorted(gold)}")
            return
        oracles.check_rating(report, oracles.reported_entities(report))
        self.gold_found += sum((g.entity_type, g.span) in found for g in bd.gold)
        self.gold_total += len(bd.gold)
        if self.wl.name == "typo_dict":
            for sentence in doc.sentences:
                for token in sentence.tokens:
                    self.spelling.check_token(token)
            return
        model = self.wl.model
        for k, sentence in enumerate(doc.sentences):
            predicted = tagger.predict_tags(sentence, lex, model)
            ids = [self.word_index.get(t.normalized, 0) for t in sentence.tokens]
            feats = [int(t) for t in tagger.dictionary_tag(sentence, lex)]
            oracles.check_tags(predicted, oracles.reference_logits(ids, feats, model),
                               f"{bd.id} sentence {k}")
            gold = oracles.gold_tags(sentence, bd.gold)
            self.tokens += len(gold)
            self.tokens_right += sum(int(p) == g for p, g in zip(predicted, gold))
        self.ratings_right += report.rating.value == bd.rating

    def again(self, k: int, report) -> None:
        if fingerprint(report) != self.expected[k]:
            raise oracles.OracleError(f"{self.wl.docs[k].id}: output differs from its first pass")

    def finish(self) -> None:
        if self.wl.name != "bilstm":
            return
        token_acc = self.tokens_right / self.tokens
        rating_acc = self.ratings_right / len(self.wl.docs)
        self.wl.info.update(token_accuracy=token_acc, rating_accuracy=rating_acc)
        if token_acc < MIN_TOKEN_ACCURACY or rating_acc < MIN_RATING_ACCURACY:
            raise oracles.OracleError(
                f"held-out token accuracy {token_acc:.4f}, rating accuracy {rating_acc:.4f}"
            )


# ---------------------------------------------------------------------------
# timed passes
# ---------------------------------------------------------------------------


def rate(wl: Workload, bd):
    """One operation: parse and rate one document, as `pipedefect rate` does."""
    try:
        doc = corpus.parse_document(bd.raw, bd.id)
        return doc, pipeline.rate_document(doc, wl.resources, tagger=wl.tagger, model=wl.model)
    except PipeDefectError:
        return None, None


def timed_pass(wl: Workload, checker: Checker, latencies: list[list[float]],
               units: list[float]) -> tuple[float, float]:
    """One pass over the documents; appends each document's time to its
    list in latencies.  On a host-scaled workload the reference unit is
    timed every UNIT_EVERY_S of wall time, between documents and outside
    their timings, and each document's wall time is scaled by
    hostspeed.NOMINAL_S / (mean of the units just before and just after
    it).  Appends the unit times to units; returns the pass's total
    (scaled) time and its total wall time."""
    total = wall = 0.0
    pending: list[tuple[int, float]] = []  # documents since the last unit
    before = hostspeed.unit_seconds() if wl.host_scaled else 0.0
    due = CLOCK() + UNIT_EVERY_S
    last = len(wl.docs) - 1
    for k, bd in enumerate(wl.docs):
        start = CLOCK()
        _, report = rate(wl, bd)
        end = CLOCK()
        checker.again(k, report)
        wall += end - start
        pending.append((k, end - start))
        if wl.host_scaled and end < due and k < last:
            continue
        scale = 1.0
        if wl.host_scaled:
            after = hostspeed.unit_seconds()
            units.append(after)
            scale = hostspeed.NOMINAL_S * 2 / (before + after)
            before, due = after, CLOCK() + UNIT_EVERY_S
        for j, elapsed in pending:
            latencies[j].append(elapsed * scale)
            total += elapsed * scale
        pending.clear()
    return total, wall


def spelling_hook(vocab):
    def hook(totals, args, result, elapsed_ns):
        word = args[0].normalized
        if not oracles.is_search(word, vocab):
            return
        totals.count("searches")
        totals.count("search_ns", elapsed_ns)
        totals.count("repeat_searches", word in totals.seen)
        totals.count("corrected", result.normalized != word)
        totals.seen.add(word)

    return hook


def count_hook(key, measure):
    def hook(totals, args, result, elapsed_ns):
        totals.count(key, measure(args, result))

    return hook


def make_tracer(vocab) -> Tracer:
    return Tracer({
        "preprocess.correct_spelling": spelling_hook(vocab),
        "network.sentence_logits": count_hook("tokens", lambda a, r: len(a[0])),
    })


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _ratio(num, den, scale=1.0) -> float:
    return num / den * scale if den else 0.0


def end_to_end(latencies, setup: dict, peak_rss_mb: float) -> dict:
    """Each document's latency is its median over the passes."""
    per_doc = sorted(statistics.median(x) for x in latencies)
    n = len(per_doc)
    return {
        "setup_s": (setup["setup_s"], "s"),
        "docs_per_s": (n / sum(per_doc), "docs/s"),
        "doc_p50_ms": (statistics.median(per_doc) * 1e3, "ms"),
        "doc_tail_ms": (per_doc[n - TAIL_BEYOND - 1] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(wl: Workload, rounds: list, plain_s: list, traced_s: list, setup: dict,
              training_totals) -> dict:
    """rounds: the Totals of each traced pass.  Counts are those of the
    first traced pass; times are medians over the traced passes.  Training
    figures per batch come from the traced epoch, the others from the
    untraced training."""
    n_docs = len(wl.docs)
    first = rounds[0]

    def med(f):
        return statistics.median(f(t) for t in rounds)

    def us_per_call(name, self_time=False):
        return med(lambda t: _ratio((t.self_ns if self_time else t.ns).get(name, 0),
                                    t.calls.get(name, 0), 1e-3))

    def us_per_doc(name, self_time=False):
        return med(lambda t: (t.self_ns if self_time else t.ns).get(name, 0) / n_docs / 1e3)

    tr = training_totals
    train_s = wl.training.get("seconds", 0.0)
    train_tokens = wl.training.get("tokens", 0) * EPOCHS
    batches = tr.calls.get("training.batch_loss_and_grads", 0)
    return {
        "config.load_resources_ms": (setup["load_resources_ms"], "ms"),
        "network.load_model_ms": (setup["load_model_ms"], "ms"),
        "preprocess.correct_spelling.calls": (first.calls.get("preprocess.correct_spelling", 0), "count"),
        "preprocess.correct_spelling.searches": (first.counts.get("searches", 0), "count"),
        "preprocess.correct_spelling.ms_per_search":
            (med(lambda t: _ratio(t.counts.get("search_ns", 0), t.counts.get("searches", 0), 1e-6)), "ms"),
        "preprocess.correct_spelling.corrected": (first.counts.get("corrected", 0), "count"),
        "preprocess.correct_spelling.repeat_searches": (first.counts.get("repeat_searches", 0), "count"),
        "preprocess.preprocess_section.self_us_per_doc":
            (us_per_doc("preprocess.preprocess_section", self_time=True), "us"),
        "preprocess.detect_negation.us_per_sentence": (us_per_call("preprocess.detect_negation"), "us"),
        "corpus.parse_document.us_per_doc": (us_per_doc("corpus.parse_document"), "us"),
        "tagger.dictionary_tag.us_per_sentence": (us_per_call("tagger.dictionary_tag"), "us"),
        "lexicon.lookup.calls": (first.calls.get("lexicon.lookup", 0), "count"),
        "tagger.extract_entities.us_per_sentence": (us_per_call("tagger.extract_entities"), "us"),
        "rating.rate_frames.us_per_doc": (us_per_doc("rating.rate_frames"), "us"),
        "pipeline.rate_document.self_us_per_doc":
            (us_per_doc("pipeline.rate_document", self_time=True), "us"),
        "tagger.predict_tags.self_ms_per_sentence":
            (us_per_call("tagger.predict_tags", self_time=True) / 1e3, "ms"),
        "network.sentence_logits.calls": (first.calls.get("network.sentence_logits", 0), "count"),
        "network.sentence_logits.us_per_token":
            (med(lambda t: _ratio(t.ns.get("network.sentence_logits", 0), t.counts.get("tokens", 0), 1e-3)), "us"),
        "network.check_finite.calls": (first.calls.get("network.check_finite", 0), "count"),
        "network.check_finite.ms_total": (med(lambda t: t.ns.get("network.check_finite", 0) / 1e6), "ms"),
        "training.batches": (batches, "count"),
        "training.batch_loss_and_grads.ms_per_batch":
            (_ratio(tr.ns.get("training.batch_loss_and_grads", 0), batches, 1e-6), "ms"),
        "training.pad_batch.ms_per_batch": (_ratio(tr.ns.get("training.pad_batch", 0), batches, 1e-6), "ms"),
        "training.adam_step.ms_per_batch": (_ratio(tr.ns.get("training.adam_step", 0), batches, 1e-6), "ms"),
        "training.tokens_per_s": (_ratio(train_tokens, train_s), "tokens/s"),
        "training.s_per_epoch": (train_s / EPOCHS if train_s else 0.0, "s"),
        "trace.overhead_pct":
            ((statistics.median(traced_s) / statistics.median(plain_s) - 1) * 100, "%"),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 lexicon_path: Path) -> dict:
    cfg = config.PipelineConfig(lexicon=lexicon_path)
    resources = config.load_resources(cfg)
    vocab = oracles.spelling_vocabulary(resources.lexicon, load_phrase_file(cfg.basewords))
    tracer = make_tracer(vocab) if trace else None
    wl = prepare(name, seed, resources, workdir, tracer)
    training_totals = tracer.reset_totals() if trace else None

    checker = Checker(wl, vocab)
    attempted = failed = 0
    for bd in wl.docs:  # warm-up pass: builds lazy state and checks every output
        doc, report = rate(wl, bd)
        checker.first(bd, doc, report)
        attempted += 1
        failed += report is None
    checker.finish()

    # The set-up probes are spread evenly over the timed passes, so that
    # set-up and rating sample the host over the same stretch of time.
    setup_cmd = probe_command(lexicon_path, wl.model_path)
    probe(setup_cmd)  # not counted: fills the bytecode and file caches
    setups: list[dict] = []
    latencies: list[list[float]] = [[] for _ in wl.docs]
    plain_s, traced_s, rounds = [], [], []
    wall_s: list[float] = []
    units: list[float] = []
    measured = 0.0
    gc.collect()
    while True:
        if len(setups) < SETUP_PROBES and len(setups) * seconds <= measured * SETUP_PROBES:
            setups.append(probe(setup_cmd))
            continue
        if len(plain_s) >= MIN_ROUNDS and measured >= seconds:
            break
        start = CLOCK()
        if trace and len(traced_s) < len(plain_s):
            tracer.install()
            traced_s.append(timed_pass(wl, checker, [[] for _ in wl.docs], [])[0])
            tracer.uninstall()
            rounds.append(tracer.reset_totals())
        else:
            total, wall = timed_pass(wl, checker, latencies, units)
            plain_s.append(total)
            wall_s.append(wall)
        measured += CLOCK() - start
        attempted += len(wl.docs)
        failed += sum(r is None for r in checker.expected)
    setup = {key: statistics.median(r[key] for r in setups) for key in setups[0]}

    if trace:
        metrics = per_layer(wl, rounds, plain_s, traced_s, setup, training_totals)
    else:
        metrics = end_to_end(latencies, setup, peak_rss(wl, lexicon_path, workdir))
    info = {"workload": name, "seed": seed, "documents": len(wl.docs),
            "passes": len(plain_s) + len(traced_s), **wl.info,
            "wall_docs_per_s": round(len(wl.docs) / statistics.median(wall_s), 3)}
    if units:
        info.update(host_scaled=True, reference_unit_ms=round(statistics.median(units) * 1e3, 4),
                    reference_units=len(units))
    if wl.training:
        info.update(train_sentences=wl.training["sentences"], epochs=EPOCHS,
                    train_s_per_epoch=round(wl.training["seconds"] / EPOCHS, 4),
                    losses=[round(x, 6) for x in wl.training["losses"]])
        if trace:
            info["traced_epoch_s"] = round(wl.training["traced_epoch_s"], 4)
    if checker.gold_total:
        info["gold_entities_found"] = round(checker.gold_found / checker.gold_total, 4)
    print("info " + json.dumps(info))
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def pin_to_one_cpu() -> int:
    """Keep the benchmark (and its probes) on one CPU: on a two-core host
    this avoids migrations that make timings jump between passes."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    logging.getLogger("pipedefect.lexicon").setLevel(logging.ERROR)

    import numpy

    cpu = pin_to_one_cpu()
    print("info " + json.dumps({
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "cpu": cpu,
    }))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        workdir = Path(tmp)
        lexicon_path = build_lexicon(workdir)
        for name in names:
            try:
                done = run_workload(name, args.seed, args.seconds, bool(args.trace), workdir,
                                    lexicon_path)
            except oracles.OracleError as exc:
                print(f"check failed on {name}: {exc}", file=sys.stderr)
                result["correct"] = False
                continue
            result["attempted"] += done["attempted"]
            result["failed"] += done["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            for key, (value, unit) in done["metrics"].items():
                result["metrics"][prefix + key] = {"value": value, "unit": unit}
    if not result["attempted"]:
        result["attempted"] = 1  # nothing ran to its end; correct is false
        result["failed"] = 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
