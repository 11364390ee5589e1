"""Time one classification in process and print its cost and verdict.

    python3 tests/tools/time_point.py LABEL CHI K1 K2 [MAX_DEGREE]
    python3 tests/tools/time_point.py A2 triv -46/3 -46/3
    python3 tests/tools/time_point.py G2 std 1/2 -1/3 100

prints one line,

    A2 triv -46/3 -46/3 seconds 6.02 peak_rss_mb 83 finite True m 45 dim 2116

with the seconds of `classify(LABEL, CHI, K1, K2, MAX_DEGREE)` alone, the
optional MAX_DEGREE passed as the scan bound (the package import
and the root-system build are before the clock starts), the process's peak
resident set (`ru_maxrss`) in MB, the verdict, m and the total dimension
(both None for an infinite verdict).  Run each point in a fresh interpreter: the memos of
earlier calls would make a second point cheaper.  The package is imported
from the `src/` of the checkout this file is in, not from an installed copy;
pytest does not collect this file.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from cherednik.rootsystem import build_root_system  # noqa: E402
from cherednik.scalars import rat  # noqa: E402
from cherednik.verma import classify  # noqa: E402


def main(argv) -> int:
    if len(argv) not in (4, 5):
        print("usage: python3 tests/tools/time_point.py LABEL CHI K1 K2 [MAX_DEGREE]",
              file=sys.stderr)
        return 1
    label, chi, k1, k2 = argv[:4]
    bound = int(argv[4]) if len(argv) == 5 else None
    build_root_system(label)
    start = time.perf_counter()
    res = classify(label, chi, rat(k1), rat(k2), bound)
    seconds = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{label} {chi} {k1} {k2} seconds {seconds:.2f} peak_rss_mb {rss_mb:.0f} "
          f"finite {res.finite} m {res.m} dim {res.total_dim}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
