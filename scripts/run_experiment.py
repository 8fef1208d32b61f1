#!/usr/bin/env python3
"""End-to-end experiment: build the lexicon, synthesize a corpus, train the
tagger, rate every document with both taggers, and score the results.

Everything is written under --workdir; re-running with the same seed
reproduces the outputs byte for byte.  The last lines give the sha256 of
the trained model and of each tagger's summary.csv, so two runs (say,
before and after a change) are compared by those lines alone.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

from pipedefect.cli import main as cli

CONFIG_TEMPLATE = """\
[paths]
lexicon = lexicon.tsv
model = tagger.model
loss_log = tagger.loss.txt
corpus_dir = corpus
gold_file = gold.tsv
output_dir = {output_dir}

[run]
seed = {seed}
split_ratio = {split_ratio}

[hyperparameters]
epochs = {epochs}
"""


def run(argv, label):
    print(f"== {label}: pipedefect {' '.join(argv[2:])}")
    start = time.perf_counter()
    code = cli(argv)
    print(f"   done in {time.perf_counter() - start:.1f}s")
    if code != 0:
        sys.exit(f"step {label!r} failed with exit code {code}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, default=Path("experiment"))
    parser.add_argument("--n", type=int, default=500, help="corpus size")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--split-ratio", type=float, default=0.8)
    args = parser.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    for tagger in ("dict", "bilstm"):
        config = args.workdir / f"config_{tagger}.ini"
        config.write_text(
            CONFIG_TEMPLATE.format(
                output_dir=f"out_{tagger}",
                seed=args.seed,
                split_ratio=args.split_ratio,
                epochs=args.epochs,
            )
        )

    base = ["--config", str(args.workdir / "config_dict.ini")]
    run([*base, "build-lexicon"], "lexicon")
    run([*base, "generate", "--n", str(args.n)], "corpus")
    run([*base, "train"], "training")

    corpus = str(args.workdir / "corpus")
    gold = str(args.workdir / "gold.tsv")
    for tagger in ("dict", "bilstm"):
        argv = ["--config", str(args.workdir / f"config_{tagger}.ini")]
        run([*argv, "rate", corpus, "--tagger", tagger], f"rate [{tagger}]")
        run([*argv, "evaluate", str(args.workdir / f"out_{tagger}"), gold], f"evaluate [{tagger}]")

    print(f"\nReports written under {args.workdir}/out_dict and {args.workdir}/out_bilstm")
    for path in ("tagger.model", "out_dict/summary.csv", "out_bilstm/summary.csv"):
        print(f"sha256 {hashlib.sha256((args.workdir / path).read_bytes()).hexdigest()}  {path}")


if __name__ == "__main__":
    main()
