import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import pipedefect
from pipedefect.cli import main
from pipedefect.config import PipelineConfig, load_config, load_resources
from pipedefect.corpus import GoldRecord, format_gold, parse_document, read_gold, split_corpus
from pipedefect.evaluation import evaluate_entities
from pipedefect.network import load_model
from pipedefect.pipeline import preprocess_document, tag_document

BOX_TEXT = (
    "Defects: Very Frequently, there is a leakage in pipe at 10 feet away "
    "from pipe installation"
)

NOTE = "Defects: crack at joint."  # "crack" is raw characters 9-14

CONFIG = """\
[paths]
lexicon = lexicon.tsv
model = tagger.model
loss_log = tagger.loss.txt
corpus_dir = corpus
gold_file = gold.tsv
output_dir = out

[run]
seed = 11
split_ratio = 0.8

[hyperparameters]
word_dim = 16
dict_dim = 8
hidden_dim = 12
epochs = 3
batch_size = 20
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A working directory with lexicon, 30-document corpus, and model built."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.ini"
    config.write_text(CONFIG)
    argv = ["--config", str(config)]
    assert main([*argv, "build-lexicon"]) == 0
    assert main([*argv, "generate", "--n", "30"]) == 0
    assert main([*argv, "train"]) == 0
    return root, argv


class TestBuildLexicon:
    def test_rebuild_is_byte_identical(self, workspace):
        root, argv = workspace
        first = (root / "lexicon.tsv").read_bytes()
        assert main([*argv, "build-lexicon"]) == 0
        assert (root / "lexicon.tsv").read_bytes() == first


class TestGenerate:
    def test_files_written(self, workspace):
        root, _ = workspace
        assert len(list((root / "corpus").glob("*.txt"))) == 30
        assert (root / "gold.tsv").exists()
        assert len((root / "gold.tsv").read_text().splitlines()) == 30

    def test_nonpositive_n_rejected(self, workspace):
        _, argv = workspace
        assert main([*argv, "generate", "--n", "0"]) == 2


class TestTrain:
    def test_model_and_loss_log(self, workspace):
        root, _ = workspace
        assert (root / "tagger.model").exists()
        lines = (root / "tagger.loss.txt").read_text().splitlines()
        assert len(lines) == 3  # one entry per configured epoch
        losses = [float(line.split("\t")[1]) for line in lines]
        assert losses[-1] < losses[0]

    def test_undecodable_corpus_file_exits_2(self, workspace, tmp_path, capsys):
        root, _ = workspace
        config = tmp_path / "config.ini"
        config.write_text(CONFIG.replace("lexicon.tsv", str(root / "lexicon.tsv")))
        argv = ["--config", str(config)]
        assert main([*argv, "generate", "--n", "4"]) == 0
        (tmp_path / "corpus" / "latin1.txt").write_bytes("Defects: café leaks.".encode("latin-1"))
        assert main([*argv, "train"]) == 2
        assert "latin1.txt" in capsys.readouterr().err
        assert not (tmp_path / "tagger.model").exists()

    def test_blank_training_document_is_skipped(self, workspace, tmp_path):
        """A whitespace-only document has no sentences to train on, as
        evaluate scores it: a text with no tokens."""
        root, _ = workspace
        config = tmp_path / "config.ini"
        config.write_text(CONFIG.replace("lexicon.tsv", str(root / "lexicon.tsv")))
        argv = ["--config", str(config)]
        assert main([*argv, "generate", "--n", "6"]) == 0
        (tmp_path / "corpus" / "blank.txt").write_text(" \n\t\n")
        with open(tmp_path / "gold.tsv", "a") as fh:
            fh.write("blank\t1\t-\tsynthetic\n")
        assert "blank" in split_corpus(sorted(read_gold(tmp_path / "gold.tsv")), 0.8, 11).train
        assert main([*argv, "train"]) == 0
        assert (tmp_path / "tagger.model").exists()

    def test_only_blank_training_documents_exit_2(self, workspace, tmp_path, capsys):
        root, _ = workspace
        (tmp_path / "corpus").mkdir()
        for doc_id in ("a", "b"):
            (tmp_path / "corpus" / f"{doc_id}.txt").write_text("  \n")
        (tmp_path / "gold.tsv").write_text("a\t1\t-\tsynthetic\nb\t1\t-\tsynthetic\n")
        config = tmp_path / "config.ini"
        config.write_text(CONFIG.replace("lexicon.tsv", str(root / "lexicon.tsv")))
        assert main(["--config", str(config), "train"]) == 2
        assert capsys.readouterr().err == "error: empty training set\n"
        assert not (tmp_path / "tagger.model").exists()

    @pytest.mark.parametrize("kind", ["missing", "not utf-8", "directory"])
    def test_unreadable_gold_file_exits_2(self, kind, workspace, tmp_path, capsys):
        root, _ = workspace
        _make_bad(kind, tmp_path / "bad")
        config = tmp_path / "config.ini"
        config.write_text(
            CONFIG.replace("lexicon.tsv", str(root / "lexicon.tsv"))
            .replace("corpus_dir = corpus", f"corpus_dir = {root / 'corpus'}")
            .replace("gold.tsv", "bad")
        )
        assert main(["--config", str(config), "train"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "bad") in err
        assert not (tmp_path / "tagger.model").exists()


class TestRate:
    def test_rate_corpus_with_dict_tagger(self, workspace):
        root, argv = workspace
        assert main([*argv, "rate", str(root / "corpus")]) == 0
        with open(root / "out" / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["doc_id", "rating"]
        assert len(rows) == 31
        assert len(list((root / "out" / "reports").glob("*.json"))) == 30

    def test_rate_with_bilstm_tagger(self, workspace):
        root, argv = workspace
        assert main([*argv, "rate", str(root / "corpus"), "--tagger", "bilstm"]) == 0

    def test_rate_box_example(self, workspace):
        root, argv = workspace
        box = root / "box1.txt"
        box.write_text(BOX_TEXT)
        assert main([*argv, "rate", str(box)]) == 0
        payload = json.loads((root / "out" / "reports" / "box1.json").read_text())
        assert payload["rating"] == 5
        assert payload["weights"] == {"frequencies": 0.99, "location": 0.9, "defect": 0.8}

    def test_rate_empty_directory(self, workspace, tmp_path):
        _, argv = workspace
        empty = tmp_path / "none"
        empty.mkdir()
        assert main([*argv, "rate", str(empty)]) == 0

    def test_unreadable_document_records_error(self, workspace, tmp_path):
        root, argv = workspace
        bad = tmp_path / "bad.txt"
        bad.write_text("   ")
        assert main([*argv, "rate", str(bad)]) == 1  # every input failed
        payload = json.loads((root / "out" / "reports" / "bad.json").read_text())
        assert "error" in payload

    def test_truncated_model_exits_1_naming_it(self, workspace, tmp_path, capsys):
        root, _ = workspace
        data = (root / "tagger.model").read_bytes()
        (tmp_path / "tagger.model").write_bytes(data[: len(data) // 2])
        config = tmp_path / "config.ini"
        config.write_text(CONFIG.replace("lexicon.tsv", str(root / "lexicon.tsv")))
        argv = ["--config", str(config)]
        assert main([*argv, "rate", str(root / "corpus"), "--tagger", "bilstm"]) == 1
        assert "tagger.model" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_model_exits_2(self, kind, workspace, tmp_path, capsys):
        root, _ = workspace
        _make_bad(kind, tmp_path / "tagger.model")
        config = tmp_path / "config.ini"
        config.write_text(CONFIG.replace("lexicon.tsv", str(root / "lexicon.tsv")))
        argv = ["--config", str(config)]
        assert main([*argv, "rate", str(root / "corpus"), "--tagger", "bilstm"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path / "tagger.model") in err

    def test_missing_input_path(self, workspace, tmp_path):
        _, argv = workspace
        assert main([*argv, "rate", str(tmp_path / "ghost.txt")]) == 2

    def test_undecodable_file_fails_only_that_document(self, tmp_path):
        config = tmp_path / "config.ini"
        config.write_text(CONFIG)
        argv = ["--config", str(config)]
        assert main([*argv, "build-lexicon"]) == 0
        assert main([*argv, "generate", "--n", "4"]) == 0
        (tmp_path / "corpus" / "latin1.txt").write_bytes("Defects: café leaks.".encode("latin-1"))
        assert main([*argv, "rate", str(tmp_path / "corpus")]) == 0
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 5 and "latin1" not in {r[0] for r in rows}
        payload = json.loads((tmp_path / "out" / "reports" / "latin1.json").read_text())
        assert "error" in payload


@pytest.mark.parametrize("command, key", [("train", "model"), ("rate", "output_dir")])
def test_unwritable_output_exits_2(command, key, workspace, tmp_path, capsys):
    """A directory as train's model file, a file as rate's output directory."""
    root, _ = workspace
    blocked = tmp_path / "blocked"
    if key == "model":
        blocked.mkdir()
    else:
        blocked.write_text("")
    config = tmp_path / "config.ini"
    text = (
        CONFIG.replace("lexicon.tsv", str(root / "lexicon.tsv"))
        .replace("corpus_dir = corpus", f"corpus_dir = {root / 'corpus'}")
        .replace("gold.tsv", str(root / "gold.tsv"))
    )
    config.write_text(re.sub(rf"^{key} = .*$", f"{key} = {blocked}", text, flags=re.M))
    argv = ["--config", str(config), command]
    assert main(argv + ([str(root / "corpus")] if command == "rate" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(blocked) in err


def test_rate_without_lexicon_file_exits_2(workspace, tmp_path, capsys):
    root, _ = workspace
    config = tmp_path / "config.ini"
    config.write_text(CONFIG)
    assert main(["--config", str(config), "rate", str(root / "corpus")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: missing lexicon file: {tmp_path / 'lexicon.tsv'} (run build-lexicon)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_missing_corpus_directory_exits_2(command, workspace, tmp_path, capsys):
    root, _ = workspace
    config = tmp_path / "config.ini"
    config.write_text(
        CONFIG.replace("lexicon.tsv", str(root / "lexicon.tsv"))
        .replace("gold.tsv", str(root / "gold.tsv"))
    )
    args = [str(root / "corpus"), str(root / "gold.tsv")] if command == "evaluate" else []
    assert main(["--config", str(config), command, *args]) == 2
    err = capsys.readouterr().err
    assert err == f"error: corpus directory {tmp_path / 'corpus'} does not exist\n"
    assert not (tmp_path / "tagger.model").exists() and not (tmp_path / "out").exists()


def _run_on_gold(command, workspace, tmp_path, capsys, lines):
    """train, or evaluate of a directory with no reports, on the workspace
    corpus with ``lines`` as tmp_path/gold.tsv; the exit code and stderr."""
    root, _ = workspace
    gold = tmp_path / "gold.tsv"
    gold.write_text("\n".join(lines) + "\n")
    config = tmp_path / "config.ini"
    config.write_text(
        CONFIG.replace("lexicon.tsv", str(root / "lexicon.tsv"))
        .replace("corpus_dir = corpus", f"corpus_dir = {root / 'corpus'}")
    )
    argv = ["--config", str(config), command]
    code = main(argv + ([str(tmp_path), str(gold)] if command == "evaluate" else []))
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "tagger.model").exists()
    return code, err


def _second_record_exits_2(command, second, workspace, tmp_path, capsys):
    """train and evaluate read one record a document, whoever wrote a second."""
    root, _ = workspace
    lines = (root / "gold.tsv").read_text().splitlines()
    doc_id, rating, entities, annotator = lines[3].split("\t")
    lines.append(f"{doc_id}\t{rating}\t{entities}\t{second}")
    code, err = _run_on_gold(command, workspace, tmp_path, capsys, lines)
    assert code == 2
    assert f"{doc_id} (annotators {annotator}, {second})" in err


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_two_annotators_for_one_document_exit_2(command, workspace, tmp_path, capsys):
    _second_record_exits_2(command, "second", workspace, tmp_path, capsys)


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_two_records_from_one_annotator_exit_2(command, workspace, tmp_path, capsys):
    _second_record_exits_2(command, "synthetic", workspace, tmp_path, capsys)


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_gold_span_past_the_text_exits_2(command, workspace, tmp_path, capsys):
    root, _ = workspace
    lines = (root / "gold.tsv").read_text().splitlines()
    doc_id, rating, _, annotator = lines[3].split("\t")
    n_chars = len((root / "corpus" / f"{doc_id}.txt").read_text())
    span = f"Defect:{n_chars}-{n_chars + 10}"
    lines[3] = f"{doc_id}\t{rating}\t{span}\t{annotator}"
    code, err = _run_on_gold(command, workspace, tmp_path, capsys, lines)
    assert code == 2
    for named in (str(tmp_path / "gold.tsv"), doc_id, span):
        assert named in err


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_bad_gold_line_exits_1_naming_it(command, workspace, tmp_path, capsys):
    root, _ = workspace
    lines = (root / "gold.tsv").read_text().splitlines()
    lines[5] = "pipe0005\t3\tDefect:18\tsynthetic"
    code, err = _run_on_gold(command, workspace, tmp_path, capsys, lines)
    assert code == 1
    assert err.startswith(f"error: {tmp_path / 'gold.tsv'}:6: malformed span 'Defect:18'")


def test_train_on_one_gold_document_exits_2(workspace, tmp_path, capsys):
    root, _ = workspace
    lines = (root / "gold.tsv").read_text().splitlines()
    code, err = _run_on_gold("train", workspace, tmp_path, capsys, lines[:1])
    assert code == 2
    assert "at least 2 documents" in err


@pytest.fixture(scope="module")
def eval_workspace(workspace):
    """Separate output directory so rating reports from other tests do not
    leak into the evaluation set."""
    root, _ = workspace
    config = root / "config_eval.ini"
    config.write_text(CONFIG.replace("output_dir = out", "output_dir = out_eval"))
    argv = ["--config", str(config)]
    assert main([*argv, "rate", str(root / "corpus")]) == 0
    return root, argv


class TestEvaluate:
    def test_dict_predictions_are_perfect(self, eval_workspace):
        root, argv = eval_workspace
        out = root / "out_eval"
        assert main([*argv, "evaluate", str(out), str(root / "gold.tsv")]) == 0
        payload = json.loads((out / "entity_metrics.json").read_text())
        by_label = {r["label"]: r for r in payload["rows"]}
        for label in ("Defects", "Location of defect", "Frequency of defects"):
            assert by_label[label]["accuracy"] == 1.0
        rating_rows = json.loads((out / "rating_metrics.json").read_text())["rows"]
        assert rating_rows[-1]["label"] == "Overall"
        assert rating_rows[-1]["accuracy"] == 1.0

    def test_prediction_without_gold_exits_2(self, eval_workspace, tmp_path):
        root, argv = eval_workspace
        gold = tmp_path / "gold.tsv"
        gold.write_text("pipe0000\t1\t-\tsynthetic\n")  # misses the other 29 ids
        assert main([*argv, "evaluate", str(root / "out_eval"), str(gold)]) == 2

    def test_rated_document_missing_from_corpus_exits_2(self, eval_workspace, tmp_path, capsys):
        root, _ = eval_workspace
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        removed, *kept = sorted((root / "corpus").glob("*.txt"))
        for path in kept:
            (corpus / path.name).write_bytes(path.read_bytes())
        config = tmp_path / "config.ini"
        config.write_text(CONFIG.replace("lexicon.tsv", str(root / "lexicon.tsv")))
        argv = ["--config", str(config)]
        assert main([*argv, "evaluate", str(root / "out_eval"), str(root / "gold.tsv")]) == 2
        assert removed.stem in capsys.readouterr().err


    def test_undecodable_corpus_file_exits_2(self, eval_workspace, tmp_path, capsys):
        root, _ = eval_workspace
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for path in (root / "corpus").glob("*.txt"):
            (corpus / path.name).write_bytes(path.read_bytes())
        (corpus / "latin1.txt").write_bytes("Defects: café leaks.".encode("latin-1"))
        config = tmp_path / "config.ini"
        config.write_text(CONFIG.replace("lexicon.tsv", str(root / "lexicon.tsv")))
        argv = ["--config", str(config)]
        assert main([*argv, "evaluate", str(root / "out_eval"), str(root / "gold.tsv")]) == 2
        assert "latin1.txt" in capsys.readouterr().err


    @pytest.mark.parametrize("kind", ["missing", "not utf-8", "directory"])
    def test_unreadable_gold_file_exits_2(self, kind, eval_workspace, tmp_path, capsys):
        root, argv = eval_workspace
        _make_bad(kind, tmp_path / "bad")
        assert main([*argv, "evaluate", str(root / "out_eval"), str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "bad") in err

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_prediction_path_not_a_directory_exits_2(self, kind, eval_workspace, tmp_path, capsys):
        root, _ = eval_workspace
        pred = tmp_path / "pred"
        if kind == "file":
            pred.write_text("{}")
        config = tmp_path / "config.ini"
        config.write_text(
            CONFIG.replace("lexicon.tsv", str(root / "lexicon.tsv"))
            .replace("corpus_dir = corpus", f"corpus_dir = {root / 'corpus'}")
        )
        assert main(["--config", str(config), "evaluate", str(pred), str(root / "gold.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(pred) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sub", ["", "reports"])
    def test_directory_with_no_reports_exits_2(self, sub, eval_workspace, tmp_path, capsys):
        """An evaluation of no reports gives no figure; the error names the
        directory that was searched, and no metric file is written."""
        root, _ = eval_workspace
        reports = tmp_path / "pred" / sub
        reports.mkdir(parents=True)
        config = tmp_path / "config.ini"
        config.write_text(
            CONFIG.replace("lexicon.tsv", str(root / "lexicon.tsv"))
            .replace("corpus_dir = corpus", f"corpus_dir = {root / 'corpus'}")
        )
        argv = ["--config", str(config), "evaluate", str(tmp_path / "pred")]
        assert main([*argv, str(root / "gold.tsv")]) == 2
        assert capsys.readouterr().err == f"error: no reports in {reports}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text", ["{bad", "[1, 2]", '{"rating": 3}', '{"document_id": 7}', "\udcff"]
    )
    def test_malformed_report_exits_2_naming_it(self, text, eval_workspace, tmp_path, capsys):
        root, argv = eval_workspace
        for path in (root / "out_eval" / "reports").glob("*.json"):
            (tmp_path / path.name).write_bytes(path.read_bytes())
        (tmp_path / "zz.json").write_bytes(text.encode("utf-8", "surrogateescape"))
        assert main([*argv, "evaluate", str(tmp_path), str(root / "gold.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "zz.json") in err

    @pytest.mark.parametrize(
        "fields", [{}, {"rating": 3, "entities": [{"sentence": 99}]}]
    )
    def test_report_with_bad_fields_exits_2(self, fields, eval_workspace, tmp_path, capsys):
        root, argv = eval_workspace
        for path in (root / "out_eval" / "reports").glob("*.json"):
            (tmp_path / path.name).write_bytes(path.read_bytes())
        (tmp_path / "pipe0000.json").write_text(json.dumps({"document_id": "pipe0000", **fields}))
        assert main([*argv, "evaluate", str(tmp_path), str(root / "gold.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed report for pipe0000")

    # One bad value per rule; each entity change applies to the report's
    # first entity.
    @pytest.mark.parametrize(
        "entity, rating",
        [
            ({"raw_span": [-1, 5]}, None),
            ({"raw_span": [5, 5]}, None),
            ({"raw_span": [5, 100000]}, None),  # past the text
            ({"raw_span": "5-9"}, None),
            ({"raw_span": [True, 5]}, None),
            ({"raw_span": [5]}, None),
            ({"raw_span": [5, 9.0]}, None),
            ({"raw_span": [5, 9, 12]}, None),
            ({"raw_span": None}, None),
            ({"type": "Pipe"}, None),
            ({}, 9),
            ({}, "3"),
            ({}, True),
        ],
    )
    def test_report_value_out_of_range_exits_2(
        self, entity, rating, eval_workspace, tmp_path, capsys
    ):
        root, argv = eval_workspace
        reports = sorted((root / "out_eval" / "reports").glob("*.json"))
        for path in reports:
            (tmp_path / path.name).write_bytes(path.read_bytes())
        payload = next(
            p for p in (json.loads(r.read_text()) for r in reports) if p["entities"]
        )
        payload["entities"][0].update(entity)
        if rating is not None:
            payload["rating"] = rating
        (tmp_path / f"{payload['document_id']}.json").write_text(json.dumps(payload))
        assert main([*argv, "evaluate", str(tmp_path), str(root / "gold.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed report for {payload['document_id']} in ")
        assert str(tmp_path) in err and next(iter(entity), "rating") in err

    def test_two_reports_for_one_document_exit_2(self, eval_workspace, tmp_path, capsys):
        root, argv = eval_workspace
        payload = next(
            p for p in (json.loads(r.read_text()) for r in
                        sorted((root / "out_eval" / "reports").glob("*.json")))
            if p["entities"]
        )
        (tmp_path / "a.json").write_text(json.dumps(payload))
        (tmp_path / "b.json").write_text(json.dumps({**payload, "entities": []}))
        assert main([*argv, "evaluate", str(tmp_path), str(root / "gold.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        for named in (payload["document_id"], str(tmp_path / "a.json"), str(tmp_path / "b.json")):
            assert named in err

    def test_report_is_scored_on_its_raw_spans(self, workspace, tmp_path):
        """A report rated when "ft." did not end a sentence: its token
        indices put "Fracture" at token 5 of sentence 0, where the current
        split has ".", and its raw spans name the text itself."""
        root, _ = workspace
        (tmp_path / "corpus").mkdir()
        (tmp_path / "corpus" / "d1.txt").write_text("Defects: No crack at 10 ft. Fracture here.")
        gold = tmp_path / "gold.tsv"
        gold.write_text("d1\t1\tDefect:12-17,LocationOfDefect:21-26,Defect:28-36\thand\n")
        entities = [("Defect", 1, 2, [12, 17]), ("Defect", 5, 6, [28, 36]),
                    ("LocationOfDefect", 3, 5, [21, 27])]
        report = {"document_id": "d1", "rating": 1, "entities": [
            {"type": etype, "sentence": 0, "token_start": start, "token_end": end,
             "raw_span": span, "negated": True}
            for etype, start, end, span in entities
        ]}
        (tmp_path / "reports").mkdir()
        (tmp_path / "reports" / "d1.json").write_text(json.dumps(report))
        config = tmp_path / "config.ini"
        config.write_text(CONFIG.replace("lexicon.tsv", str(root / "lexicon.tsv")))
        assert main(["--config", str(config), "evaluate", str(tmp_path / "reports"), str(gold)]) == 0
        rows = json.loads((tmp_path / "out" / "entity_metrics.json").read_text())["rows"]
        assert (rows[0]["label"], rows[0]["accuracy"]) == ("Defects", 1.0)

    @pytest.mark.parametrize(
        "text, entities, recall",
        [("  \n", "-", 1.0), (NOTE, "Defect:9-14", 0.5)],
        ids=["blank", "with a gold entity"],
    )
    def test_failed_document_counts_as_wrong(
        self, text, entities, recall, workspace, tmp_path, capsys
    ):
        """A report with an error is scored as a document with no entities
        and no rating; a blank text contributes no tokens."""
        root, _ = workspace
        (tmp_path / "corpus").mkdir()
        (tmp_path / "corpus" / "d1.txt").write_text(NOTE)
        (tmp_path / "corpus" / "d2.txt").write_text(text)
        gold = tmp_path / "gold.tsv"
        gold.write_text(f"d1\t1\tDefect:9-14\thand\nd2\t3\t{entities}\thand\n")
        (tmp_path / "reports").mkdir()
        (tmp_path / "reports" / "d1.json").write_text(json.dumps(
            {"document_id": "d1", "rating": 1,
             "entities": [{"type": "Defect", "raw_span": [9, 14]}]}))
        (tmp_path / "reports" / "d2.json").write_text(
            json.dumps({"document_id": "d2", "error": "failed"}))
        config = tmp_path / "config.ini"
        config.write_text(CONFIG.replace("lexicon.tsv", str(root / "lexicon.tsv")))
        assert main(["--config", str(config), "evaluate", str(tmp_path / "reports"), str(gold)]) == 0
        out = tmp_path / "out"
        ratings = json.loads((out / "rating_metrics.json").read_text())["rows"]
        assert (ratings[-1]["label"], ratings[-1]["accuracy"]) == ("Overall", 0.5)
        rows = json.loads((out / "entity_metrics.json").read_text())["rows"]
        assert (rows[0]["label"], rows[0]["recall"]) == ("Defects", recall)
        printed = capsys.readouterr().out.splitlines()
        assert "1 of 2 reported documents failed to rate" in printed
        # recall, precision and F1 beside accuracy; an undefined (0/0) value is NA
        defects = next(line for line in printed if line.startswith("Defects: "))
        assert f", recall {100 * recall:.1f}, precision 100.0, F1 " in defects
        assert "Defect rating 3: accuracy 50.0, recall 0.0, precision NA, F1 NA" in printed
        assert "Overall: accuracy 50.0, recall NA, precision NA, F1 NA" in printed

    @pytest.mark.parametrize("tagger", ["dict", "bilstm"])
    def test_entity_rows_equal_evaluate_entities_over_tagged_frames(
        self, tagger, workspace, tmp_path
    ):
        root, _ = workspace
        # each document's last gold entity dropped, so that the rows are not all perfect
        records = {
            r.document_id: GoldRecord(r.document_id, r.entities[:-1], r.rating, r.annotator_id)
            for r in read_gold(root / "gold.tsv").values()
        }
        gold = tmp_path / "gold.tsv"
        gold.write_text(format_gold(list(records.values())))
        config = tmp_path / "config.ini"
        config.write_text(
            CONFIG.replace("lexicon.tsv", str(root / "lexicon.tsv"))
            .replace("tagger.model", str(root / "tagger.model"))
            .replace("corpus_dir = corpus", f"corpus_dir = {root / 'corpus'}")
        )
        argv = ["--config", str(config)]
        assert main([*argv, "rate", str(root / "corpus"), "--tagger", tagger]) == 0
        assert main([*argv, "evaluate", str(tmp_path / "out"), str(gold)]) == 0
        cfg = load_config(config)
        resources = load_resources(cfg)
        model = load_model(cfg.model) if tagger == "bilstm" else None
        docs = {
            path.stem: preprocess_document(parse_document(path.read_text(), path.stem), resources)
            for path in (root / "corpus").glob("*.txt")
        }
        frames = {i: tag_document(doc, resources, tagger, model) for i, doc in docs.items()}
        rows = [asdict(row) for row in evaluate_entities(frames, records, docs)]
        assert json.loads((tmp_path / "out" / "entity_metrics.json").read_text())["rows"] == rows
        assert any(row["recall"] not in (None, 1.0) or row["precision"] not in (None, 1.0)
                   for row in rows)


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.ini"), "build-lexicon"]) == 2

    def test_seed_flag_overrides_config(self, tmp_path):
        config = tmp_path / "config.ini"
        config.write_text(CONFIG)
        argv = ["--config", str(config)]
        assert main([*argv, "build-lexicon"]) == 0
        assert main([*argv, "--seed", "77", "generate", "--n", "4"]) == 0
        first = sorted(p.read_text() for p in (tmp_path / "corpus").glob("*.txt"))
        assert main([*argv, "--seed", "78", "generate", "--n", "4"]) == 0
        second = sorted(p.read_text() for p in (tmp_path / "corpus").glob("*.txt"))
        assert first != second

    def test_every_field_is_set_from_its_section(self, tmp_path):
        default = PipelineConfig()

        def numbers(target):
            kinds = {name: type(getattr(target, name)) for name in target.__slots__}
            return {name: k + (0.5 if kind is float else 2)
                    for k, (name, kind) in enumerate(kinds.items()) if kind in (int, float)}

        sections = {
            "paths": {name: tmp_path / f"{name}.x" for name in default.__slots__
                      if isinstance(getattr(default, name), Path)},
            "run": numbers(default),
            "hyperparameters": numbers(default.training),
        }
        assert [len(keys) for keys in sections.values()] == [14, 3, 6]
        config = tmp_path / "config.ini"
        config.write_text("".join(
            f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
            for section, keys in sections.items()
        ))
        cfg = load_config(config)
        for section, keys in sections.items():
            target = cfg.training if section == "hyperparameters" else cfg
            for key, value in keys.items():
                assert getattr(target, key) == value and type(getattr(target, key)) is type(value)
        # a relative path is read from the config file's directory
        config.write_text("[paths]\nlexicon = sub/lex.tsv\n")
        assert load_config(config).lexicon == tmp_path / "sub" / "lex.tsv"

    def test_key_in_the_wrong_section_is_ignored(self, tmp_path):
        config = tmp_path / "config.ini"
        config.write_text(
            "[paths]\nseed = abc\nepochs = abc\ntraining = x\n"
            "[run]\nlexicon = elsewhere.tsv\nepochs = 99\ntraining = 1\n"
            "[hyperparameters]\nseed = 5\nmodel = m.model\n"
            "[other]\nseed = 7\n"
        )
        assert load_config(config) == PipelineConfig()


# Each bad setting with the command it used to crash.
BAD_SETTINGS = {
    "no section header": ("seed = 11\n", [], "build-lexicon"),
    "non-numeric seed": ("[run]\nseed = abc\n", [], "build-lexicon"),
    "negative seed flag": ("", ["--seed", "-3"], "train"),
    "split ratio above 1": ("[run]\nsplit_ratio = 1.5\n", [], "train"),
    "negative max depth": ("[run]\nmax_depth = -1\n", [], "build-lexicon"),
    "zero epochs": ("[hyperparameters]\nepochs = 0\n", [], "train"),
    "zero batch size": ("[hyperparameters]\nbatch_size = 0\n", [], "train"),
    "zero hidden dim": ("[hyperparameters]\nhidden_dim = 0\n", [], "train"),
    "infinite learning rate": ("[hyperparameters]\nlearning_rate = inf\n", [], "train"),
}


@pytest.mark.parametrize("case", sorted(BAD_SETTINGS))
def test_bad_setting_exits_2_before_any_work(case, workspace, tmp_path, capsys):
    root, _ = workspace
    text, flags, command = BAD_SETTINGS[case]
    lexicon = root / "lexicon.tsv" if command == "train" else "lexicon.tsv"
    config = tmp_path / "config.ini"
    config.write_text(
        f"{text}\n[paths]\nlexicon = {lexicon}\ncorpus_dir = {root / 'corpus'}\n"
        f"gold_file = {root / 'gold.tsv'}\nmodel = tagger.model\nloss_log = loss.txt\n"
    )
    assert main(["--config", str(config), *flags, command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.ini"]


DATA_KEYS = (
    "seeds", "synonym_graph", "blacklists", "triggers", "terminators",
    "abbreviations", "basewords", "patterns", "lexicon",
)


def _make_bad(kind, path):
    if kind == "missing":
        return
    if kind == "not utf-8":
        path.write_bytes("café\tDefect\n".encode("latin-1"))
    else:
        path.mkdir()


# A missing lexicon file is not an error for generate: it builds the lexicon.
@pytest.mark.parametrize(
    "key, kind",
    [(key, kind) for key in DATA_KEYS for kind in ("missing", "not utf-8", "directory")
     if (key, kind) != ("lexicon", "missing")],
)
def test_unreadable_data_file_exits_2(key, kind, tmp_path, capsys):
    _make_bad(kind, tmp_path / "bad")
    paths = {"lexicon": "lexicon.tsv", "corpus_dir": "corpus", "gold_file": "gold.tsv", key: "bad"}
    config = tmp_path / "config.ini"
    config.write_text("[paths]\n" + "".join(f"{k} = {v}\n" for k, v in paths.items()))
    assert main(["--config", str(config), "generate", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "bad") in err
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("edge", ["leak\trelated\tseep", "leak\tsyn\tleak"])
def test_bad_synonym_edge_exits_1_naming_its_line(edge, tmp_path, capsys):
    graph = tmp_path / "graph.tsv"
    graph.write_text(f"# edges\nleak\tsyn\tseep\n{edge}\n")
    config = tmp_path / "config.ini"
    config.write_text("[paths]\nsynonym_graph = graph.tsv\nlexicon = lexicon.tsv\n")
    assert main(["--config", str(config), "build-lexicon"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {graph}:3: ") and "Traceback" not in err


# A term is matched against tokens, and each token is one kept run, so a
# seed or an expanded term with a hyphen or an apostrophe can never match.
@pytest.mark.parametrize(
    "key, rows",
    [
        ("seeds", "leak\tDefect\njoint-offset\tDefect\n"),
        ("synonym_graph", "leak\tsyn\tseep\nleak\tsyn\tdrip-leak\n"),
        ("blacklists", "leak\tescape\nleak\tdon't\n"),
    ],
)
def test_unmatchable_term_exits_1_naming_its_line(key, rows, tmp_path, capsys):
    data = tmp_path / "data.tsv"
    data.write_text(f"# terms\n{rows}")
    config = tmp_path / "config.ini"
    config.write_text(f"[paths]\n{key} = data.tsv\nlexicon = lexicon.tsv\n")
    assert main(["--config", str(config), "build-lexicon"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}:3: ") and "Traceback" not in err
    assert not (tmp_path / "lexicon.tsv").exists()


def test_empty_seed_file_exits_1_naming_it(tmp_path, capsys):
    seeds = tmp_path / "seeds.tsv"
    seeds.write_text("# no seeds yet\n")
    config = tmp_path / "config.ini"
    config.write_text("[paths]\nseeds = seeds.tsv\nlexicon = lexicon.tsv\n")
    assert main(["--config", str(config), "build-lexicon"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {seeds}: ") and err.count("\n") == 1
    assert not (tmp_path / "lexicon.tsv").exists()


# Tokens are kept runs: an abbreviation is matched against one whole run
# ending in a terminator, and each word of a negation phrase against one run.
@pytest.mark.parametrize(
    "key, phrase",
    [
        ("abbreviations", "approx"),
        ("abbreviations", "no ."),
        ("triggers", "don't"),
        ("terminators", "however,"),
    ],
)
def test_unmatchable_phrase_exits_1_naming_its_line(key, phrase, tmp_path, capsys):
    phrases = tmp_path / "phrases.txt"
    phrases.write_text(f"# phrases\nft.\n{phrase}\n")
    config = tmp_path / "config.ini"
    paths = {key: "phrases.txt", "lexicon": "lexicon.tsv", "corpus_dir": "corpus"}
    config.write_text("[paths]\n" + "".join(f"{k} = {v}\n" for k, v in paths.items()))
    assert main(["--config", str(config), "generate", "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {phrases}:3: {phrase!r}") and "Traceback" not in err
    assert not (tmp_path / "corpus").exists()


# numpy loads only where the network runs: every other command, and the
# benchmark probe's imports, must leave it out of a fresh interpreter.
# Rating with the dictionary tagger loads no module that only other work
# uses: logging (lexicon expansion, --verbose and train), configparser
# (--config), evaluation and generate.  The records on the rating path are
# plain classes, so it loads no class machinery either: dataclasses, and
# the inspect it imports, are for evaluation, training and generate.
SRC = Path(pipedefect.__file__).resolve().parents[1]
NOT_FOR_RATING = {"numpy", "logging", "configparser"}
CLASS_MACHINERY = {"dataclasses", "inspect"}
NOT_FOR_RATE_COMMAND = NOT_FOR_RATING | CLASS_MACHINERY | {"pipedefect.evaluation",
                                                           "pipedefect.generate"}
# Nor does it load the network, the random module (for train's corpus
# split) or importlib.resources and what it pulls in.  The interpreter's
# site may import some of these itself, and a module already loaded is not
# in a program's import log, so they are checked with site off (-S).
NOT_FOR_DICTIONARY_RATING = {"pipedefect.network", "random", "importlib.resources", "typing",
                             "tempfile", "zipfile"}


def fresh_python(cwd, *args):
    """Run `python -X importtime *args` in cwd with pipedefect importable;
    return the exit code, stdout, stderr without the import log, and the
    set of module names the import log holds."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=False)
    modules, err = set(), []
    for line in proc.stderr.splitlines(keepends=True):
        if line.startswith("import time:"):
            modules.add(line.rsplit("|", 1)[1].strip())
        else:
            err.append(line)
    return proc.returncode, proc.stdout, "".join(err), modules


RATE_IN_FRESH_PROCESS = """\
import json, sys
from pipedefect import config, network
from pipedefect import cli, evaluation, generate, pipeline, rating, tagger
from pipedefect.corpus import parse_document
resources = config.load_resources(config.PipelineConfig(lexicon=sys.argv[1]))
report = pipeline.rate_document(parse_document(sys.argv[2], "box"), resources)
print(json.dumps([report.rating.value, "numpy" in sys.modules]))
"""


# the benchmark probe's imports, then what it runs to rate a document with
# the dictionary tagger
PROBE_RATING = """\
import json, sys, time
from pipedefect import config, network
from pathlib import Path
from pipedefect import corpus, pipeline
from pipedefect.errors import PipeDefectError
resources = config.load_resources(config.PipelineConfig(lexicon=sys.argv[1]))
doc = corpus.parse_document(sys.argv[2], "box")
print(pipeline.rate_document(doc, resources, tagger=pipeline.DICT_TAGGER, model=None).rating.value)
"""


class TestNumpyLoadsOnlyForTheNetwork:
    def test_imports_and_dictionary_rating(self, workspace, tmp_path):
        root, _ = workspace
        code, out, _, modules = fresh_python(tmp_path, "-c", RATE_IN_FRESH_PROCESS,
                                             str(root / "lexicon.tsv"), BOX_TEXT)
        assert code == 0
        assert json.loads(out) == [5, False]
        assert "pipedefect.pipeline" in modules
        assert not modules & NOT_FOR_RATING

    def test_probe_rating_loads_no_class_machinery(self, workspace, tmp_path):
        root, _ = workspace
        code, out, _, modules = fresh_python(tmp_path, "-c", PROBE_RATING,
                                             str(root / "lexicon.tsv"), BOX_TEXT)
        assert (code, out.split()) == (0, ["5"])
        assert "pipedefect.pipeline" in modules
        assert not modules & CLASS_MACHINERY

    def test_dictionary_commands(self, tmp_path):
        (tmp_path / "config.ini").write_text(CONFIG)
        for command in (["build-lexicon"], ["generate", "--n", "3"], ["rate", "corpus"],
                        ["evaluate", "out", "gold.tsv"]):
            code, _, _, modules = fresh_python(tmp_path, "-m", "pipedefect",
                                               "--config", "config.ini", *command)
            assert (code, "numpy" in modules) == (0, False), command
        assert len(list((tmp_path / "out" / "reports").glob("*.json"))) == 3

    def test_rate_without_config_loads_only_what_rating_runs(self, workspace, tmp_path):
        root, _ = workspace
        (tmp_path / "lexicon.tsv").write_bytes((root / "lexicon.tsv").read_bytes())
        (tmp_path / "corpus").mkdir()
        (tmp_path / "corpus" / "box.txt").write_text(BOX_TEXT)
        (tmp_path / "corpus" / "blank.txt").write_text("  \n")
        for target, want in (("corpus", 0), ("corpus/blank.txt", 1)):
            code, _, err, modules = fresh_python(tmp_path, "-m", "pipedefect", "rate", target)
            assert code == want, target
            assert "pipedefect.pipeline" in modules
            assert not modules & NOT_FOR_RATE_COMMAND
            (line,) = err.splitlines()
            assert line.startswith("error: failed to rate blank: ")
        assert json.loads((tmp_path / "out" / "reports" / "box.json").read_text())["rating"] == 5

    def test_rate_without_site_loads_only_what_rating_runs(self, workspace, tmp_path):
        root, _ = workspace
        (tmp_path / "lexicon.tsv").write_bytes((root / "lexicon.tsv").read_bytes())
        (tmp_path / "box.txt").write_text(BOX_TEXT)
        code, _, err, modules = fresh_python(tmp_path, "-S", "-m", "pipedefect", "rate", "box.txt")
        assert (code, err) == (0, "")
        assert "pipedefect.pipeline" in modules
        assert not modules & (NOT_FOR_RATE_COMMAND | NOT_FOR_DICTIONARY_RATING)
        assert json.loads((tmp_path / "out" / "reports" / "box.json").read_text())["rating"] == 5

    def test_network_loads_numpy_and_rates_as_in_process(self, workspace, tmp_path):
        root, _ = workspace
        code, out, _, modules = fresh_python(
            tmp_path, "-c",
            "import sys\nfrom pipedefect import network\nbefore = 'numpy' in sys.modules\n"
            "network.load_model(sys.argv[1])\nprint(before, 'numpy' in sys.modules)",
            str(root / "tagger.model"),
        )
        assert (code, out.split(), "numpy" in modules) == (0, ["False", "True"], True)
        paths = {"lexicon": root / "lexicon.tsv", "model": root / "tagger.model"}
        for side in ("fresh", "in_process"):
            (tmp_path / f"{side}.ini").write_text(
                "[paths]\n" + "".join(f"{k} = {v}\n" for k, v in paths.items())
                + f"output_dir = {side}\n")
        command = ["rate", str(root / "corpus"), "--tagger", "bilstm"]
        code, _, _, modules = fresh_python(tmp_path, "-m", "pipedefect",
                                           "--config", "fresh.ini", *command)
        assert (code, "numpy" in modules) == (0, True)
        assert main(["--config", str(tmp_path / "in_process.ini"), *command]) == 0
        reports = {side: {p.name: p.read_bytes() for p in (tmp_path / side / "reports").iterdir()}
                   for side in ("fresh", "in_process")}
        assert len(reports["fresh"]) == 30
        assert reports["fresh"] == reports["in_process"]


# logging is imported only where a line is logged, and configured only under
# --verbose; a warning still reaches stderr without it.
class TestLogLinesInAFreshProcess:
    def test_build_lexicon_warns_of_seed_only_terms(self, tmp_path):
        code, _, err, _ = fresh_python(tmp_path, "-m", "pipedefect", "build-lexicon")
        assert code == 0
        assert re.search(r"^\d+ seeds not in synonym graph; kept as seed-only: '", err, re.M)

    def test_verbose_train_logs_its_training_set(self, workspace, tmp_path):
        root, _ = workspace
        config = CONFIG
        for key in ("lexicon", "corpus_dir", "gold_file"):
            config = re.sub(rf"^{key} = ", f"{key} = {root}/", config, flags=re.M)
        (tmp_path / "config.ini").write_text(config)
        code, _, err, _ = fresh_python(tmp_path, "-m", "pipedefect",
                                       "--verbose", "--config", "config.ini", "train")
        assert code == 0
        assert re.search(r"^INFO:pipedefect:training on \d+ sentences from 24 documents$",
                         err, re.M)
