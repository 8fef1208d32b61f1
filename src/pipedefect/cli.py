"""Command-line interface: build-lexicon, generate, train, rate, evaluate.

Exit codes: 0 success, 1 partial failure, 2 usage or configuration error
or an output that cannot be written.
All randomness derives from the single config/flag seed.

A module that only some commands use is imported inside them, so that
``rate`` loads none of generate, evaluation, training or logging, nor
network with the dictionary tagger; logging is configured only under
--verbose.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import config as config_mod
from .corpus import (ENTITY_TYPES, Document, GoldEntity, GoldRecord, format_gold, parse_document,
                     read_gold, split_corpus)
from .errors import ConfigError, EmptyDocument, PipeDefectError
from .lexicon import save_lexicon
from .pipeline import (
    BILSTM_TAGGER,
    DICT_TAGGER,
    preprocess_document,
    rate_document,
)
from .rating import ACTION_TEXT
from .tagger import tags_from_gold_spans


def _span_fits(span, n_chars: int) -> bool:
    """Whether a raw-text span lies in a text of n_chars characters."""
    return 0 <= span[0] < span[1] <= n_chars


def _load_gold_corpus(corpus_dir: Path, gold_path) -> tuple[dict[str, str], dict[str, GoldRecord]]:
    """The corpus texts (each .txt file by its stem) and the gold records,
    each record of a corpus document checked against its text."""
    if not corpus_dir.is_dir():
        raise ConfigError(f"corpus directory {corpus_dir} does not exist")
    raw_docs = {}
    for path in sorted(corpus_dir.glob("*.txt")):
        try:
            raw_docs[path.stem] = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"corpus file {path} is not UTF-8: {exc}") from exc
    gold = read_gold(gold_path)
    for doc_id in sorted(raw_docs.keys() & gold.keys()):
        n_chars = len(raw_docs[doc_id])
        for e in gold[doc_id].entities:
            if not _span_fits(e.span, n_chars):
                raise ConfigError(f"gold file {gold_path}: document {doc_id}: span {e.entity_type}:"
                                  f"{e.span[0]}-{e.span[1]} is not 0 <= start < end <= {n_chars},"
                                  " the text's length")
    return raw_docs, gold


def cmd_build_lexicon(cfg) -> int:
    lexicon = config_mod.build_default_lexicon(cfg)
    Path(cfg.lexicon).parent.mkdir(parents=True, exist_ok=True)
    save_lexicon(lexicon, cfg.lexicon)
    counts: dict[str, int] = {}
    for entry in lexicon.entries.values():
        counts[entry.category] = counts.get(entry.category, 0) + 1
    for category in sorted(counts):
        print(f"{category}: {counts[category]} terms")
    print(f"wrote {len(lexicon)} entries to {cfg.lexicon}")
    return 0


def cmd_generate(cfg, n: int) -> int:
    from .generate import GeneratorConfig, generate_synthetic_corpus

    if n <= 0:
        raise ConfigError(f"generate needs n > 0, got {n}")
    resources = config_mod.load_resources(cfg, require_lexicon=False)
    gen_cfg = GeneratorConfig(n_documents=n, lexicon=resources.lexicon)
    docs, golds = generate_synthetic_corpus(gen_cfg, seed=cfg.seed)
    corpus_dir = Path(cfg.corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        (corpus_dir / f"{doc.id}.txt").write_text(doc.raw, encoding="utf-8")
    Path(cfg.gold_file).parent.mkdir(parents=True, exist_ok=True)
    Path(cfg.gold_file).write_text(format_gold(golds), encoding="utf-8")
    print(f"wrote {len(docs)} documents to {corpus_dir} and gold to {cfg.gold_file}")
    return 0


def cmd_train(cfg) -> int:
    import logging

    from .network import save_model
    from .training import train  # loads numpy, which no other command needs

    resources = config_mod.load_resources(cfg)
    raw_docs, gold = _load_gold_corpus(Path(cfg.corpus_dir), cfg.gold_file)
    ids = sorted(set(raw_docs) & set(gold))
    if len(ids) < 2:
        raise ConfigError("train needs at least 2 documents with gold records")
    split = split_corpus(ids, cfg.split_ratio, cfg.seed)
    corpus = []
    for doc_id in split.train:
        try:
            doc = preprocess_document(parse_document(raw_docs[doc_id], doc_id), resources)
        except EmptyDocument:  # a blank text has no sentences to train on
            continue
        for sentence, tags in zip(
            doc.sentences, tags_from_gold_spans(doc.sentences, gold[doc_id].entities)
        ):
            corpus.append((sentence, tags))
    if not corpus:
        raise ConfigError("empty training set")
    logging.getLogger("pipedefect").info(
        "training on %d sentences from %d documents", len(corpus), len(split.train))
    result = train(corpus, resources.lexicon, cfg.training, seed=cfg.seed)
    Path(cfg.model).parent.mkdir(parents=True, exist_ok=True)
    save_model(result.model, cfg.model)
    with open(cfg.loss_log, "w", encoding="utf-8") as fh:
        for epoch, loss in enumerate(result.epoch_losses, start=1):
            fh.write(f"{epoch}\t{loss:.10f}\n")
    print(f"wrote model to {cfg.model}; final loss {result.epoch_losses[-1]:.6f}")
    return 0


def _report_to_json(report) -> dict:
    w = report.weights
    return {
        "document_id": report.document_id,
        "weights": {"frequencies": w.frequencies, "location": w.location, "defect": w.defect},
        "rating": report.rating.value,
        "action_text": report.rating.action_text,
        "gap_row": report.rating.gap_row,
        "entities": report.entities,
        "notes": report.notes,
    }


def cmd_rate(cfg, input_path: Path, tagger: str) -> int:
    resources = config_mod.load_resources(cfg)
    model = None
    if tagger == BILSTM_TAGGER:
        from .network import load_model

        try:
            model = load_model(cfg.model)
        except OSError as exc:
            raise ConfigError(f"cannot read model file {cfg.model} (run train): {exc}") from exc
    if input_path.is_dir():
        files = sorted(input_path.glob("*.txt"))
    elif input_path.exists():
        files = [input_path]
    else:
        raise ConfigError(f"input path {input_path} does not exist")
    out_dir = Path(cfg.output_dir)
    reports_dir = out_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    failures = 0
    for path in files:
        doc_id = path.stem
        try:
            raw = path.read_text(encoding="utf-8")
            doc = parse_document(raw, doc_id)
            report = rate_document(doc, resources, tagger=tagger, model=model)
            payload = _report_to_json(report)
            rows.append((doc_id, report.rating.value))
        except (PipeDefectError, UnicodeDecodeError, OSError) as exc:
            failures += 1
            payload = {"document_id": doc_id, "error": str(exc)}
            print(f"error: failed to rate {doc_id}: {exc}", file=sys.stderr)
        with open(reports_dir / f"{doc_id}.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    with open(out_dir / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["doc_id", "rating"])
        for doc_id, rating in sorted(rows):
            writer.writerow([doc_id, rating])
    print(f"rated {len(rows)} documents ({failures} failures) -> {out_dir}")
    return 1 if files and failures == len(files) else 0


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _spans_from_report(payload: dict, n_chars: int) -> list[GoldEntity]:
    """A report's entities as typed raw-text spans; ValueError names the
    first entity whose type or raw_span does not fit the document's text."""
    spans = []
    for ent in payload.get("entities", []):
        etype, span = ent["type"], ent["raw_span"]
        if etype not in ENTITY_TYPES:
            raise ValueError(f"entity type {etype!r} is not one of {ENTITY_TYPES}")
        if not (isinstance(span, list) and len(span) == 2 and all(map(_is_int, span))
                and _span_fits(span, n_chars)):
            raise ValueError(f"entity raw_span {span!r} is not two integers"
                             f" 0 <= start < end <= {n_chars}, the text's length")
        spans.append(GoldEntity(etype, tuple(span)))
    return spans


def _rating_from_report(payload: dict) -> int:
    rating = payload["rating"]
    if not (_is_int(rating) and rating in ACTION_TEXT):
        raise ValueError(f"rating {rating!r} is not one of {sorted(ACTION_TEXT)}")
    return rating


def cmd_evaluate(cfg, pred_path: Path, gold_path: Path) -> int:
    from .evaluation import evaluate_entity_spans, evaluate_ratings, pct, write_metric_reports

    resources = config_mod.load_resources(cfg)
    raw_docs, gold = _load_gold_corpus(Path(cfg.corpus_dir), gold_path)
    if not pred_path.is_dir():
        raise ConfigError(f"prediction path {pred_path} is not a directory")
    reports_dir = pred_path / "reports" if (pred_path / "reports").is_dir() else pred_path
    payloads = {}
    paths: dict[str, Path] = {}
    for path in sorted(reports_dir.glob("*.json")):
        try:  # ValueError covers bad UTF-8 and bad JSON
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            doc_id = payload["document_id"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot read report {path}: {exc!r}") from exc
        if not isinstance(doc_id, str):
            raise ConfigError(f"report {path}: document_id {doc_id!r} is not a string")
        if doc_id in paths:
            raise ConfigError(f"reports {paths[doc_id]} and {path} are both for document {doc_id}")
        paths[doc_id] = path
        payloads[doc_id] = payload
    if not payloads:
        raise ConfigError(f"no reports in {reports_dir}")
    missing = sorted(set(payloads) - set(gold))
    if missing:
        raise ConfigError(f"no gold records for predicted ids: {', '.join(missing)}")
    absent = sorted(set(payloads) - set(raw_docs))
    if absent:
        raise ConfigError(f"reported documents missing from {cfg.corpus_dir}: {', '.join(absent)}")
    docs = {}
    pred_spans = {}
    pred_ratings = {}
    for doc_id, payload in payloads.items():
        raw = raw_docs[doc_id]
        try:
            docs[doc_id] = preprocess_document(parse_document(raw, doc_id), resources)
        except EmptyDocument:  # a blank text has no tokens
            docs[doc_id] = Document(doc_id, raw, {})
        if "error" in payload:  # scored as no entities and no rating
            pred_spans[doc_id], pred_ratings[doc_id] = [], None
            continue
        try:
            pred_spans[doc_id] = _spans_from_report(payload, len(raw))
            pred_ratings[doc_id] = _rating_from_report(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed report for {doc_id} in {reports_dir}: {exc!r}") from exc
    entity_rows = evaluate_entity_spans(pred_spans, gold, docs)
    rating_rows = evaluate_ratings(pred_ratings, {i: g.rating for i, g in gold.items()})
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metric_reports(entity_rows, out_dir / "entity_metrics.csv", out_dir / "entity_metrics.json")
    write_metric_reports(rating_rows, out_dir / "rating_metrics.csv", out_dir / "rating_metrics.json")
    failed = sum("error" in p for p in payloads.values())
    print(f"{failed} of {len(payloads)} reported documents failed to rate")
    for row in entity_rows + rating_rows:
        print(f"{row.label}: accuracy {pct(row.accuracy)}, recall {pct(row.recall)}, "
              f"precision {pct(row.precision)}, F1 {pct(row.f1)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipedefect",
        description="Defect entity extraction and severity rating for pipe inspection text",
    )
    parser.add_argument("--config", type=Path, help="INI config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--verbose", action="store_true")
    # each command sets run(cfg, args), which main calls
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("build-lexicon", help="expand seeds into the lexicon file")
    p.set_defaults(run=lambda cfg, args: cmd_build_lexicon(cfg))
    p = sub.add_parser("generate", help="write a synthetic corpus and gold file")
    p.add_argument("--n", type=int, default=500)
    p.set_defaults(run=lambda cfg, args: cmd_generate(cfg, args.n))
    p = sub.add_parser("train", help="train the Bi-LSTM tagger on the train split")
    p.set_defaults(run=lambda cfg, args: cmd_train(cfg))
    p = sub.add_parser("rate", help="rate documents and write reports")
    p.add_argument("input", type=Path, help="document file or directory")
    p.add_argument("--tagger", choices=[DICT_TAGGER, BILSTM_TAGGER], default=DICT_TAGGER)
    p.set_defaults(run=lambda cfg, args: cmd_rate(cfg, args.input, args.tagger))
    p = sub.add_parser("evaluate", help="score predictions against gold annotations")
    p.add_argument("pred", type=Path, help="rate output directory")
    p.add_argument("gold", type=Path, help="gold annotation file")
    p.set_defaults(run=lambda cfg, args: cmd_evaluate(cfg, args.pred, args.gold))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:  # without it a warning reaches stderr through logging's last resort
        import logging

        logging.basicConfig(level=logging.DEBUG)
    try:
        cfg = config_mod.load_config(args.config) if args.config else config_mod.PipelineConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        config_mod.check_config(cfg)
        return args.run(cfg, args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PipeDefectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
