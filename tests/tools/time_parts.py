"""Time cold builds of the Dunkl lowering parts in fresh interpreters.

    python3 tests/tools/time_parts.py [RUNS]
    python3 tests/tools/time_parts.py 21

runs RUNS (default 15) fresh interpreters one after another.  Each imports
the package, builds the root systems and their irreducibles, clears every
memo of `cherednik.dunkl` (the parts, the difference quotients and the
weights) and then times, cold, the `b_lowering_parts` builds of two key sets:

- deep: the parts a perfbench `deep` pass reads, the full parts (first row
  0) of triv on A2, B2 and G2, along both transfer directions, degrees 1-22;
- scan: the parts a generic scan of G2 std to degree 100 reads, L_0 full and
  the one-row tails of L_1 (first row n - 1), degrees 1-100.

The memos are cleared again between the two sets.  It prints one line of
median milliseconds,

    runs 9 deep_ms 20.0 scan_ms 1202.7

Compare two checkouts in one session, alternating them: the speed of a
shared host drifts between runs.  The package is imported from the `src/` of the checkout this
file is in, not from an installed copy; pytest does not collect this file.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETS = ("deep", "scan")


def one_run() -> dict:
    """The seconds of each key set in this interpreter, which must be fresh."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from cherednik import dunkl
    from cherednik.rootsystem import build_root_system
    from cherednik.wrep import get_irrep

    keys = {"deep": [(label, "triv", j, n, 0) for label in ("A2", "B2", "G2")
                     for n in range(1, 23) for j in range(2)],
            "scan": [("G2", "std", j, n, n - 1 if j else 0)
                     for n in range(1, 101) for j in range(2)]}
    spent = {}
    for name in SETS:
        calls = [(rs, get_irrep(rs, chi), j, n, first) for label, chi, j, n, first in keys[name]
                 for rs in [build_root_system(label)]]
        for memo in vars(dunkl).values():
            getattr(memo, "cache_clear", lambda: None)()
        start = time.perf_counter()
        for args in calls:
            dunkl.b_lowering_parts(*args)
        spent[name] = time.perf_counter() - start
    return spent


def main(argv) -> int:
    if argv == ["--one"]:
        print(json.dumps(one_run()))
        return 0
    if len(argv) > 1 or (argv and not argv[0].isdigit()):
        print("usage: python3 tests/tools/time_parts.py [RUNS]", file=sys.stderr)
        return 1
    runs = int(argv[0]) if argv else 15
    samples = [json.loads(subprocess.run([sys.executable, __file__, "--one"], check=True,
                                         capture_output=True, text=True).stdout)
               for _ in range(runs)]
    cols = [f"{name}_ms {1e3 * statistics.median(s[name] for s in samples):.1f}"
            for name in SETS]
    print(f"runs {runs} {' '.join(cols)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
