"""Spans around the public functions of each pipedefect module.

The tracer replaces each traced function, wherever a pipedefect module
holds a reference to it, by a wrapper that times each call and sums its
calls, time and self time (time minus that of traced calls inside it) per
name.  Nothing inside the package changes; uninstall() puts the originals
back.
"""

from __future__ import annotations

import sys
import time

from pipedefect import lexicon, network, training

# (span name, owner, attribute): owner is a module, or a class for methods.
TRACED = (
    ("corpus.parse_document", "corpus", "parse_document"),
    ("pipeline.rate_document", "pipeline", "rate_document"),
    ("preprocess.preprocess_section", "preprocess", "preprocess_section"),
    ("preprocess.correct_spelling", "preprocess", "correct_spelling"),
    ("preprocess.detect_negation", "preprocess", "detect_negation"),
    ("tagger.dictionary_tag", "tagger", "dictionary_tag"),
    ("lexicon.lookup", lexicon.Lexicon, "lookup"),
    ("tagger.extract_entities", "tagger", "extract_entities"),
    ("tagger.predict_tags", "tagger", "predict_tags"),
    ("network.sentence_logits", "network", "sentence_logits"),
    ("network.check_finite", network.TaggerModel, "check_finite"),
    ("rating.rate_frames", "rating", "rate_frames"),
    ("training.pad_batch", "training", "pad_batch"),
    ("training.batch_loss_and_grads", "training", "batch_loss_and_grads"),
    ("training.adam_step", training.Adam, "step"),
)


class Totals:
    """Per-name sums over the calls that ended since the last reset."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}  # named events recorded by hooks
        self.seen: set = set()  # keys hooks have met since the reset

    def add(self, name: str, ns: int, self_ns: int) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.ns[name] = self.ns.get(name, 0) + ns
        self.self_ns[name] = self.self_ns.get(name, 0) + self_ns

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


class Tracer:
    def __init__(self, hooks=None):
        """hooks: traced name -> f(totals, args, result, elapsed_ns), run
        after the call and outside its timing."""
        self.hooks = hooks or {}
        self.totals = Totals()
        self._stack: list[list[int]] = []  # [child ns] of each open call
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, func):
        hook = self.hooks.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.totals.add(name, elapsed, elapsed - frame[0])
            if hook is not None:
                hook(self.totals, args, result, elapsed)
            return result

        return traced

    def _collect_patches(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("pipedefect.")]
        for name, owner, attr in TRACED:
            if isinstance(owner, str):
                original = getattr(sys.modules["pipedefect." + owner], attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, key, original, wrapper))
            else:
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original, self._wrap(name, original)))

    def install(self) -> None:
        if not self._patches:
            self._collect_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def reset_totals(self) -> Totals:
        done, self.totals = self.totals, Totals()
        return done
