"""Time named requests, or one `cli.run` argv, each in fresh interpreters.

    python3 tests/tools/timing.py [--runs N] [NAME ...]
    python3 tests/tools/timing.py [--runs N] -- ARGV ...

runs each request (every named one when no NAME is given) in N fresh
interpreters (default 1), one after another, and prints one line for it,

    a2-46/3           runs  3  seconds   2.7400  peak_rss_mb    48  exit 0  finite true m 45 dim 2116  classify ...

with the median seconds of the timed work, the largest peak resident set
(`ru_maxrss`) in MB and the exit code of `cli.run`.  Each interpreter
first sets up as a perfbench worker does: it imports the package (with
`cherednik.cli`), then for A1, A2, B2 and G2 builds the root system, its
irreducibles and the sl2 calibration.  The clock then times `cli.run(argv)`
alone; the output goes to /dev/null, but `classify` runs with `--format
csv` and the line shows the row's finite, m and dim (None when infinite).
An interpreter that dies prints `failed:` and the last line of its stderr
instead, and the tool then exits 1.  The requests:

- the caps, the worst request each cap of `cli.py` accepts (`test_cli`
  checks that they sit at the caps): `scan-A1` and `scan-A2` at the deepest
  natural m, 2m + 2 = 20000 on A1 and 106 on rank 2 (m = 9999 and 52);
  `scan-G2`, a generic rank-2 scan to the same cap; `gram-*`, a numeric G2
  std layer at the singular k = -5/6 and the symbolic G2 std and A1
  layers; `sweep`, MAX_SWEEP_POINTS points of G2 triv, each scanned to
  degree 10 or to 2m + 4 at its natural points (the scan caps bound a
  point, so no grid is the worst); and `conjecture` at MAX_CONJECTURE_Q;
- the deep points: `natural-G2` (m = 50, kappa = 1, r = 17) and
  `natural-A2` (m = 50), where L(triv) is infinite, so no Gram layer is
  built and the module holds the lowerings up to degree 2m + 2; the finite
  `a2-46/3` (m = 45), `g2-std-5/6-60` and `b2-triv-15`; and `g2-std-100`;
- the set-up probes: `setup` times the set-up itself and shows the median
  milliseconds of each stage, summed over the four types; `parts-deep`
  and `parts-scan` clear every memo of `cherednik.dunkl` and time cold
  builds of one key set: `b_lowering_parts`, the full parts (first row 0)
  that a perfbench `deep` pass reads, triv on A2, B2 and G2 in both
  transfer directions to degree 22; and `b_lowering_residues`, the packed
  residues that a generic scan of G2 std to degree 100 reads, L_0 full and
  the one-row tails of L_1 (first row n - 1).

Compare two checkouts in one session, alternating them: the speed of a
shared host drifts.  Whether the import compiles `src/` depends on the
environment (`PYTHONDONTWRITEBYTECODE`, a `__pycache__` of an earlier run).
The package is imported from the `src/` of the checkout this file is in,
not from an installed copy; pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SRC = str(TOOLS.parents[1] / "src")
STAGES = ("import", "rootsystems", "irreps", "sl2_calibration")
REQUESTS = {
    "scan-A1": "classify --type A1 --chi triv --k -19999/2",
    "scan-A2": "classify --type A2 --chi triv --k -53/3",
    "scan-G2": "classify --type G2 --chi std --k1 1/2 --k2 -1/3 --max-degree 106",
    "gram-G2": "gram --type G2 --chi std --k -5/6 --degree 80",
    "gram-G2-symbolic": "gram --type G2 --chi std --symbolic --degree 20",
    "gram-A1-symbolic": "gram --type A1 --chi triv --symbolic --degree 1200",
    "sweep": "sweep --type G2 --chi triv --k1-range -1:1:2/99 --k2-range -1:1:2/99",
    "conjecture": "conjecture --max-q 250",
    "natural-G2": "classify --type G2 --chi triv --k1 -9 --k2 -8",
    "natural-A2": "classify --type A2 --chi triv --k -17",
    "a2-46/3": "classify --type A2 --chi triv --k -46/3",
    "g2-std-100": "classify --type G2 --chi std --k1 1/2 --k2 -1/3 --max-degree 100",
    "g2-std-5/6-60": "classify --type G2 --chi std --k -5/6 --max-degree 60",
    "b2-triv-15": "classify --type B2 --chi triv --k1 -1/2 --k2 -15",
    "setup": "",
    "parts-deep": "",
    "parts-scan": "",
}
USAGE = "usage: python3 tests/tools/timing.py [--runs N] [NAME ... | -- ARGV ...]"

# the fresh interpreter: argv[1] is the request's name, the rest its argv
_CHILD = (f"import sys; sys.path.insert(0, {str(TOOLS)!r}); "
          "import timing; timing.child(*sys.argv[1:])")


def _setup() -> dict:
    """Set up as a perfbench worker does; the seconds of each stage."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import cherednik
    import cherednik.cli  # noqa: F401  (a perfbench worker imports it too)
    from cherednik.wrep import irreps

    spent = dict.fromkeys(STAGES, 0.0)
    spent["import"] = time.perf_counter() - start
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


def child(name, *argv) -> None:
    """Run one request in this interpreter, which must be fresh, and print
    its sample as one line of JSON."""
    spent = _setup()
    from cherednik import cli, dunkl, get_irrep, build_root_system, linalg

    sample = {"exit": 0}
    if name == "setup":
        sample["seconds"] = sum(spent.values())
        sample.update((f"{stage}_ms", 1e3 * s) for stage, s in spent.items())
    elif name.startswith("parts-"):
        # (type, chi, transfer direction, degree, first row) of each build,
        # made here: made at import, they move a garbage collection into the
        # sl2 calibration and `setup` reads it 0.5 ms slower
        deep = name == "parts-deep"
        keys = ([(label, "triv", j, n, 0) for label in ("A2", "B2", "G2")
                 for n in range(1, 23) for j in range(2)] if deep else
                [("G2", "std", j, n, n - 1 if j else 0) for n in range(1, 101) for j in range(2)])
        calls = [(rs, get_irrep(rs, chi), j, n, first) for label, chi, j, n, first in keys
                 for rs in [build_root_system(label)]]
        build = (dunkl.b_lowering_parts if deep else
                 lambda *key: dunkl.b_lowering_residues(*key, linalg.PRIME))
        for memo in vars(dunkl).values():
            getattr(memo, "cache_clear", lambda: None)()
        start = time.perf_counter()
        for args in calls:
            build(*args)
        sample["seconds"] = time.perf_counter() - start
    else:
        classify = argv[:1] == ("classify",)
        with (io.StringIO() if classify else open(os.devnull, "w")) as out:
            with contextlib.redirect_stdout(out):
                start = time.perf_counter()
                sample["exit"] = cli.run([*argv, "--format", "csv"] if classify else list(argv))
                sample["seconds"] = time.perf_counter() - start
            if classify and sample["exit"] == 0:
                row = out.getvalue().split()[-1].split(",")[-3:]
                sample.update(zip(("finite", "m", "dim"), (v or "None" for v in row)))
    sample["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(sample))


def _line(name, argv, runs) -> str:
    """The request's line: its medians over `runs` fresh interpreters."""
    samples = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", _CHILD, name, *argv],
                              capture_output=True, text=True)
        if done.returncode:
            return f"failed: {(done.stderr.strip().splitlines() or ['no stderr'])[-1]}"
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    last = samples[-1]
    med = {key: statistics.median(s[key] for s in samples)
           for key, value in last.items() if isinstance(value, float)}
    extra = [f"{key} {med[key]:.1f}" if key in med else f"{key} {value}"
             for key, value in last.items() if key not in ("seconds", "exit", "peak_rss_mb")]
    return (f"runs {runs:2}  seconds {med['seconds']:8.4f}  "
            f"peak_rss_mb {max(s['peak_rss_mb'] for s in samples):5.0f}  exit {last['exit']}  "
            + " ".join(extra)).rstrip()


def main(argv) -> int:
    runs = 1
    if argv[:1] == ["--runs"]:
        if len(argv) < 2 or not argv[1].isdigit() or int(argv[1]) < 1:
            print(USAGE, file=sys.stderr)
            return 1
        runs, argv = int(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        todo = {"argv": argv[1:]}
    else:
        unknown = [name for name in argv if name not in REQUESTS]
        if unknown:
            print(f"unknown request {unknown[0]}; known: {' '.join(REQUESTS)}\n{USAGE}",
                  file=sys.stderr)
            return 1
        todo = {name: REQUESTS[name].split() for name in argv or REQUESTS}
    failed = False
    for name, request in todo.items():
        line = _line(name, request, runs)
        failed |= line.startswith("failed:")
        print(f"{name:17} {line}  {' '.join(request)}".rstrip(), flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
