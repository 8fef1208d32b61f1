"""Pipeline configuration: INI-style file with flag overrides.

Unset values fall back to the bundled data files and the default tagger
hyperparameters, so a run needs no config file at all.

configparser is imported inside load_config, its one user, not at the
top: a run without --config, and every library caller that builds a
PipelineConfig itself, never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from importlib import resources as importlib_resources
from pathlib import Path

from .errors import ConfigError
from .lexicon import Blacklist, SynonymGraph, expand_synonyms, load_lexicon, load_seeds
from .pipeline import PipelineResources, build_spell_vocabulary
from .preprocess import NegationTriggerSet, load_phrase_file
from .rating import band_weight
from .tagger import PatternTable

DEFAULT_SEED = 12345
DEFAULT_SPLIT_RATIO = 0.8
DEFAULT_MAX_DEPTH = 2


def data_path(name: str) -> Path:
    return Path(importlib_resources.files("pipedefect") / "data" / name)


@dataclass
class TrainingConfig:
    """The Bi-LSTM tagger's dimensions and training schedule: the INI
    [hyperparameters] section."""

    word_dim: int = 200
    dict_dim: int = 100
    hidden_dim: int = 300
    learning_rate: float = 0.005
    epochs: int = 10
    batch_size: int = 100


@dataclass
class PipelineConfig:
    seeds: Path = field(default_factory=lambda: data_path("seeds.tsv"))
    synonym_graph: Path = field(default_factory=lambda: data_path("synonym_graph.tsv"))
    blacklists: Path = field(default_factory=lambda: data_path("blacklists.tsv"))
    triggers: Path = field(default_factory=lambda: data_path("negation_triggers.txt"))
    terminators: Path = field(default_factory=lambda: data_path("scope_terminators.txt"))
    abbreviations: Path = field(default_factory=lambda: data_path("abbreviations.txt"))
    basewords: Path = field(default_factory=lambda: data_path("basewords.txt"))
    patterns: Path = field(default_factory=lambda: data_path("size_patterns.txt"))
    lexicon: Path = Path("lexicon.tsv")
    model: Path = Path("tagger.model")
    loss_log: Path = Path("tagger.loss.txt")
    corpus_dir: Path = Path("corpus")
    gold_file: Path = Path("gold.tsv")
    output_dir: Path = Path("out")
    max_depth: int = DEFAULT_MAX_DEPTH
    split_ratio: float = DEFAULT_SPLIT_RATIO
    seed: int = DEFAULT_SEED
    training: TrainingConfig = field(default_factory=TrainingConfig)


def load_config(path) -> PipelineConfig:
    """Read an INI config.  [paths] sets the PipelineConfig fields whose
    default is a Path, relative to the config file; [run] sets its int and
    float fields and [hyperparameters] those of TrainingConfig, each parsed
    as the type of its default.  Any other key is ignored.  A file that
    does not parse, or a numeric setting that is not a number, raises
    ConfigError.  Ranges are check_config's."""
    import configparser

    parser = configparser.ConfigParser()
    cfg = PipelineConfig()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
        base = Path(path).resolve().parent
        sections = (
            ("paths", cfg, Path),
            ("run", cfg, (int, float)),
            ("hyperparameters", cfg.training, (int, float)),
        )
        for section, target, kinds in sections:
            for f in fields(target):
                default = getattr(target, f.name)
                if not (isinstance(default, kinds) and parser.has_option(section, f.name)):
                    continue
                # joinpath leaves an absolute path as it is
                parse = base.joinpath if kinds is Path else type(default)
                try:
                    setattr(target, f.name, parse(parser.get(section, f.name)))
                except ValueError as exc:
                    raise ConfigError(f"{path}: [{section}] {f.name}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    return cfg


def check_config(cfg: PipelineConfig) -> None:
    """Raise ConfigError naming every setting outside its range, so a bad
    value stops a run before any work starts."""
    t = cfg.training
    rules = [
        ("seed", cfg.seed, cfg.seed >= 0, ">= 0"),
        ("split_ratio", cfg.split_ratio, 0 < cfg.split_ratio < 1, "> 0 and < 1"),
        ("max_depth", cfg.max_depth, cfg.max_depth >= 0, ">= 0"),
        ("learning_rate", t.learning_rate,
         math.isfinite(t.learning_rate) and t.learning_rate > 0, "finite and > 0"),
    ] + [
        (key, getattr(t, key), getattr(t, key) >= 1, ">= 1")
        for key in ("epochs", "batch_size", "word_dim", "dict_dim", "hidden_dim")
    ]
    bad = [f"{key} = {value} must be {rule}" for key, value, ok, rule in rules if not ok]
    if bad:
        raise ConfigError("; ".join(bad))


def load_resources(cfg: PipelineConfig, require_lexicon: bool = True) -> PipelineResources:
    """Load every runtime resource named by the config."""
    if Path(cfg.lexicon).exists():
        lexicon = load_lexicon(cfg.lexicon)
    elif require_lexicon:
        raise ConfigError(f"missing lexicon file: {cfg.lexicon} (run build-lexicon)")
    else:
        lexicon = build_default_lexicon(cfg)
    triggers = NegationTriggerSet(
        pre_triggers=load_phrase_file(cfg.triggers),
        scope_terminators=load_phrase_file(cfg.terminators),
    )
    base_words = set(load_phrase_file(cfg.basewords))
    resources = PipelineResources(
        lexicon=lexicon,
        triggers=triggers,
        abbreviations=frozenset(load_phrase_file(cfg.abbreviations, "abbreviation")),
        spell_vocab=build_spell_vocabulary(lexicon, base_words, triggers),
        patterns=PatternTable.load(cfg.patterns),
    )
    unbanded = sorted(
        e.term
        for e in lexicon.entries.values()
        if e.category == "Frequency" and band_weight(e.term, e.seed_root) is None
    )
    if unbanded:
        raise ConfigError(
            "lexicon Frequency terms with no frequency band for the term or its seed root: "
            + ", ".join(unbanded)
        )
    return resources


def build_default_lexicon(cfg: PipelineConfig):
    seeds = load_seeds(cfg.seeds)
    graph = SynonymGraph.load(cfg.synonym_graph)
    blacklist = Blacklist.load(cfg.blacklists)
    return expand_synonyms(seeds, graph, blacklist, max_depth=cfg.max_depth)
