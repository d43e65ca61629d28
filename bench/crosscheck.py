"""Time the harness sizes quoted in ROADMAP.md once, for comparison with the
benchmark's own numbers:

    python3 bench/crosscheck.py

Prints one JSON object: wall seconds, comparisons and disagreements of
`validate_words(30, 50, seed=7)` and `validate_trees(30, 50, seed=7)`.
"""

import json
import platform
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from automonad.validate import validate_trees, validate_words  # noqa: E402


def timed(fn):
    t0 = perf_counter()
    report = fn(30, 50, seed=7)
    return {
        "seconds": perf_counter() - t0,
        "comparisons": report.comparisons,
        "disagreements": len(report.failures),
    }


if __name__ == "__main__":
    print(json.dumps({
        "python": platform.python_version(),
        "validate_words(30,50,seed=7)": timed(validate_words),
        "validate_trees(30,50,seed=7)": timed(validate_trees),
    }))
