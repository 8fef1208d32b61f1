"""A fixed unit of pure-Python work, timed next to the program to gauge
how fast this host runs Python code at the moment.

The dictionary workloads spend their time in the interpreter, and on a
shared host the interpreter's speed drifts by tens of percent between
seconds and between processes.  Timing this unit just before and just
after each stretch of program work, in the same process, and scaling the
program's wall time by NOMINAL_S / (unit time) removes most of that drift:
the scaled time is what the work would take on a host where the unit takes
NOMINAL_S.  The unit never changes, so a change to the program moves the
scaled time as it moves the wall time.
"""

import time

# The unit's median time on the 2-core Xeon VM the bounds were set on.
NOMINAL_S = 1.3e-3

_PAIRS = (
    ("maintenance", "maintainance"),
    ("corrosion", "corosion"),
    ("longitudinal", "longtudinal"),
    ("pipeline", "pipleine"),
) * 6


def _distance(a: str, b: str) -> int:
    row = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        prev, row[0] = row[0], i
        for j, cb in enumerate(b, 1):
            prev, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, prev + (ca != cb))
    return row[-1]


def unit_seconds() -> float:
    """Wall time of one unit: edit distances of fixed word pairs, about
    NOMINAL_S on the reference host."""
    start = time.perf_counter()
    total = 0
    for a, b in _PAIRS:
        total += _distance(a, b)
    elapsed = time.perf_counter() - start
    if total != 36:
        raise AssertionError(f"reference unit computed {total}, not 36")
    return elapsed
