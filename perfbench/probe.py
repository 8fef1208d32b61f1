"""Set-up time and memory of a fresh process, as `pipedefect rate` pays them.

Usage: python3 probe.py SRC_DIR LEXICON MODEL|- [DOCS_DIR]

Imports pipedefect from SRC_DIR, runs config.load_resources on LEXICON
and, unless MODEL is -, network.load_model on MODEL.  Prints one JSON line
of timings: setup_s from before the import to the end, plus each load in
ms.  With DOCS_DIR it then rates every *.txt file there, one at a time,
keeping only each document's rating, and adds the counts of rated and
failed documents and the process's peak RSS (VmHWM) in MB.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from pipedefect import config, network  # noqa: E402

imported = time.perf_counter()
resources = config.load_resources(config.PipelineConfig(lexicon=sys.argv[2]))
resources_loaded = time.perf_counter()
model = network.load_model(sys.argv[3]) if sys.argv[3] != "-" else None
end = time.perf_counter()
result = {
    "setup_s": end - start,
    "load_resources_ms": (resources_loaded - imported) * 1e3,
    "load_model_ms": (end - resources_loaded) * 1e3 if model else 0.0,
}

if len(sys.argv) > 4:
    from pathlib import Path

    from pipedefect import corpus, pipeline
    from pipedefect.errors import PipeDefectError

    tagger = pipeline.BILSTM_TAGGER if model else pipeline.DICT_TAGGER
    rows, failed = [], 0
    for path in sorted(Path(sys.argv[4]).glob("*.txt")):
        try:
            doc = corpus.parse_document(path.read_text(encoding="utf-8"), path.stem)
            report = pipeline.rate_document(doc, resources, tagger=tagger, model=model)
            rows.append((path.stem, report.rating.value))
        except PipeDefectError:
            failed += 1
    # VmHWM, not ru_maxrss: Linux carries ru_maxrss over from the parent
    # across fork and exec, so it would report the benchmark's own peak.
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    result.update(rated=len(rows), failed=failed, peak_rss_mb=hwm_kb * 1024 / 1e6)
print(json.dumps(result))
