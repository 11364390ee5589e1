"""Time the worst accepted request at each request cap of `cli.py`, one
fresh interpreter per request, and print its seconds and peak RSS.

    python3 tests/tools/caps.py [NAME ...]

prints one line per request (all of them, or the NAMEs given),

    scan-A1           seconds    5.31  peak_rss_mb    46  exit 0  classify --type A1 ...

with the seconds of `cli.run(argv)` alone (the package import is before
the clock starts), the interpreter's peak resident set (`ru_maxrss`) in
MB and the exit code; the request's output goes to /dev/null.  A request
whose interpreter dies prints `failed:` and the last line of its stderr
instead, and the tool then exits 1.  The requests:

- `scan-A1`, `scan-A2`: the deepest natural m that MAX_SCAN_DEGREE accepts,
  2m + 2 = 20000 on A1 and 106 on rank 2 (m = 9999 and 52);
- `scan-G2`: a generic rank-2 scan to the same cap, G2 std at (1/2, -1/3);
- `natural-G2`, `natural-A2`: natural points where L(triv) is infinite, so
  no Gram layer is built and the module holds the lowerings of every degree
  up to 2m + 2: G2 at (-9, -8) (m = 50, kappa = 1, r = 17) and A2 at k = -17
  (m = 50);
- `gram-*`: the MAX_GRAM_DEGREE requests that its comment names, a numeric
  G2 std layer at the singular point k = -5/6 and the symbolic G2 std and A1
  layers, each at its cap;
- `sweep`: a grid of MAX_SWEEP_POINTS points of G2 triv.  The scan caps,
  not this one, bound each point, so no grid is the worst: this one
  scans every point to degree 10, or to 2m + 4 at its natural points;
- `conjecture`: `--max-q` at MAX_CONJECTURE_Q.

The package is imported from the `src/` of the checkout this file is in,
not from an installed copy; pytest does not collect this file.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

REQUESTS = {
    "scan-A1": "classify --type A1 --chi triv --k -19999/2",
    "scan-A2": "classify --type A2 --chi triv --k -53/3",
    "scan-G2": "classify --type G2 --chi std --k1 1/2 --k2 -1/3 --max-degree 106",
    "natural-G2": "classify --type G2 --chi triv --k1 -9 --k2 -8",
    "natural-A2": "classify --type A2 --chi triv --k -17",
    "gram-G2": "gram --type G2 --chi std --k -5/6 --degree 80",
    "gram-G2-symbolic": "gram --type G2 --chi std --symbolic --degree 20",
    "gram-A1-symbolic": "gram --type A1 --chi triv --symbolic --degree 1200",
    "sweep": "sweep --type G2 --chi triv --k1-range -1:1:2/99 --k2-range -1:1:2/99",
    "conjecture": "conjecture --max-q 250",
}

# run in the fresh interpreter: argv[1] is SRC, the rest the request
_CHILD = """
import contextlib, os, resource, sys, time
sys.path.insert(0, sys.argv[1])
from cherednik import cli
with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
    start = time.perf_counter()
    code = cli.run(sys.argv[2:])
    seconds = time.perf_counter() - start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"seconds {seconds:7.2f}  peak_rss_mb {rss_mb:5.0f}  exit {code}")
"""


def main(argv) -> int:
    unknown = [name for name in argv if name not in REQUESTS]
    if unknown:
        print(f"unknown request {unknown[0]}; known: {' '.join(REQUESTS)}", file=sys.stderr)
        return 1
    failed = False
    for name in argv or REQUESTS:
        request = REQUESTS[name]
        done = subprocess.run([sys.executable, "-c", _CHILD, SRC, *request.split()],
                              capture_output=True, text=True)
        line = done.stdout.strip()
        if done.returncode:
            failed = True
            line = f"failed: {(done.stderr.strip().splitlines() or ['no stderr'])[-1]}"
        print(f"{name:17} {line}  {request}", flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
