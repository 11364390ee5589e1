"""Time the package's set-up, stage by stage, in fresh interpreters.

    python3 tests/tools/time_setup.py [RUNS]
    python3 tests/tools/time_setup.py 21

runs RUNS (default 15) fresh interpreters one after another; each imports
the package (with `cherednik.cli`), then for A1, A2, B2 and G2 in turn
builds the root system, its irreducibles and the sl2 calibration, as a
perfbench worker sets up.  It prints one line of median milliseconds,

    runs 15 import_ms 38.4 rootsystems_ms 4.9 irreps_ms 3.5 sl2_calibration_ms 5.8 total_ms 52.6

where each stage is summed over the four types and total_ms is the median
of the per-run totals.  Whether the import compiles `src/` depends on the
environment (`PYTHONDONTWRITEBYTECODE`, a `__pycache__` left by an earlier
run), so compare two checkouts under the same one.  The package is imported
from the `src/` of the checkout this file is in, not from an installed copy;
pytest does not collect this file.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

STAGES = ("import", "rootsystems", "irreps", "sl2_calibration")


def one_run() -> dict:
    """The seconds of each stage in this interpreter, which must be fresh."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    import cherednik
    import cherednik.cli  # noqa: F401  (a perfbench worker imports it too)
    from cherednik.wrep import irreps

    spent = dict.fromkeys(STAGES, 0.0)
    spent["import"] = time.perf_counter() - t0
    for label in ("A1", "A2", "B2", "G2"):
        t = [time.perf_counter()]
        rs = cherednik.build_root_system(label)
        t.append(time.perf_counter())
        irreps(rs)
        t.append(time.perf_counter())
        cherednik.sl2_calibration(rs)
        t.append(time.perf_counter())
        for stage, a, b in zip(STAGES[1:], t, t[1:]):
            spent[stage] += b - a
    return spent


def main(argv) -> int:
    if argv == ["--one"]:
        print(json.dumps(one_run()))
        return 0
    if len(argv) > 1 or (argv and not argv[0].isdigit()):
        print("usage: python3 tests/tools/time_setup.py [RUNS]", file=sys.stderr)
        return 1
    runs = int(argv[0]) if argv else 15
    samples = [json.loads(subprocess.run([sys.executable, __file__, "--one"], check=True,
                                         capture_output=True, text=True).stdout)
               for _ in range(runs)]
    cols = [f"{stage}_ms {1e3 * statistics.median(s[stage] for s in samples):.1f}"
            for stage in STAGES]
    total = 1e3 * statistics.median(sum(s.values()) for s in samples)
    print(f"runs {runs} {' '.join(cols)} total_ms {total:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
