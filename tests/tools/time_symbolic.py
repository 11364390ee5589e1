"""Time the symbolic Gram layer of every character of one type, in process.

    python3 tests/tools/time_symbolic.py LABEL DEGREE
    python3 tests/tools/time_symbolic.py G2 8

runs `VermaModule(rs, rep, PP_K1, PP_K2).gram(DEGREE)` for each character of
LABEL in table order (triv, sgn, ..., as `wrep.irreps` lists them) and
prints one line per character,

    G2 sgn base triv signs (-1, -1) seconds 0.0061

then the memo of the bases' symbolic layers, `verma._unpacked`,

    memo CacheInfo(hits=4, misses=2, maxsize=None, currsize=2)

A character with signs (1, 1) is a base: it pays for its layer (one packed
module and the unpacking).  Every other character reads its layer off its
base's, built earlier in the pass, with a sign per monomial.  The package
import, the root-system build and the sl2 calibration are before the first
clock starts.  Run it in a fresh interpreter: the memo of an earlier call
would make the bases cheaper.  The package is imported from the `src/` of
the checkout this file is in, not from an installed copy; pytest does not
collect this file.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from cherednik import verma  # noqa: E402
from cherednik.dunkl import sl2_calibration  # noqa: E402
from cherednik.polynomials import PP_K1, PP_K2  # noqa: E402
from cherednik.rootsystem import build_root_system  # noqa: E402
from cherednik.wrep import irreps  # noqa: E402


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 tests/tools/time_symbolic.py LABEL DEGREE", file=sys.stderr)
        return 1
    label, degree = argv[0], int(argv[1])
    rs = build_root_system(label)
    sl2_calibration(rs)
    for rep in irreps(rs):
        start = time.perf_counter()
        verma.VermaModule(rs, rep, PP_K1, PP_K2).gram(degree)
        seconds = time.perf_counter() - start
        print(f"{label} {rep.label} base {rep.base.label} signs {rep.signs} "
              f"seconds {seconds:.4f}")
    print(f"memo {verma._unpacked.cache_info()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
