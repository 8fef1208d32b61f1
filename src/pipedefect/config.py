"""Pipeline configuration: INI-style file with flag overrides.

Unset values fall back to the bundled data files and the default tagger
hyperparameters, so a run needs no config file at all.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from importlib import resources as importlib_resources
from pathlib import Path

from .errors import ConfigError
from .lexicon import Blacklist, SynonymGraph, load_lexicon, load_seeds
from .pipeline import PipelineResources, build_spell_vocabulary
from .preprocess import NegationTriggerSet, load_phrase_file
from .rating import band_weight
from .tagger import PatternTable
from .training import TrainingConfig

DEFAULT_SEED = 12345
DEFAULT_SPLIT_RATIO = 0.8
DEFAULT_MAX_DEPTH = 2


def data_path(name: str) -> Path:
    return Path(importlib_resources.files("pipedefect") / "data" / name)


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

    _PATH_KEYS = (
        "seeds", "synonym_graph", "blacklists", "triggers", "terminators",
        "abbreviations", "basewords", "patterns", "lexicon", "model",
        "loss_log", "corpus_dir", "gold_file", "output_dir",
    )


def load_config(path) -> PipelineConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    cfg = PipelineConfig()
    base = Path(path).resolve().parent
    for key in PipelineConfig._PATH_KEYS:
        if parser.has_option("paths", key):
            raw = parser.get("paths", key)
            p = Path(raw)
            setattr(cfg, key, p if p.is_absolute() else base / p)
    if parser.has_section("run"):
        cfg.seed = parser.getint("run", "seed", fallback=cfg.seed)
        cfg.max_depth = parser.getint("run", "max_depth", fallback=cfg.max_depth)
        cfg.split_ratio = parser.getfloat("run", "split_ratio", fallback=cfg.split_ratio)
    if parser.has_section("hyperparameters"):
        h = parser["hyperparameters"]
        t = cfg.training
        t.word_dim = h.getint("word_dim", t.word_dim)
        t.dict_dim = h.getint("dict_dim", t.dict_dim)
        t.hidden_dim = h.getint("hidden_dim", t.hidden_dim)
        t.learning_rate = h.getfloat("learning_rate", t.learning_rate)
        t.epochs = h.getint("epochs", t.epochs)
        t.batch_size = h.getint("batch_size", t.batch_size)
    return cfg


def load_resources(cfg: PipelineConfig, require_lexicon: bool = True) -> PipelineResources:
    """Load every runtime resource named by the config."""
    for key in ("triggers", "terminators", "abbreviations", "basewords", "patterns"):
        if not Path(getattr(cfg, key)).exists():
            raise ConfigError(f"missing {key} file: {getattr(cfg, key)}")
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
        abbreviations=load_phrase_file(cfg.abbreviations),
        spell_vocab=build_spell_vocabulary(lexicon, base_words),
        patterns=PatternTable.load(cfg.patterns),
    )
    unbanded = sorted(
        e.term
        for e in lexicon.entries.values()
        if e.category == "Frequency"
        and band_weight(e.term, e.seed_root, resources.frequency_bands) is None
    )
    if unbanded:
        raise ConfigError(
            "lexicon Frequency terms with no frequency band for the term or its seed root: "
            + ", ".join(unbanded)
        )
    return resources


def build_default_lexicon(cfg: PipelineConfig):
    from .lexicon import expand_synonyms

    for key in ("seeds", "synonym_graph", "blacklists"):
        if not Path(getattr(cfg, key)).exists():
            raise ConfigError(f"missing {key} file: {getattr(cfg, key)}")
    seeds = load_seeds(cfg.seeds)
    graph = SynonymGraph.load(cfg.synonym_graph)
    blacklist = Blacklist.load(cfg.blacklists)
    return expand_synonyms(seeds, graph, blacklist, max_depth=cfg.max_depth)
