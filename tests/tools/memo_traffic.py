"""Print the hits, misses and entries of every memo of the package over a
reference traffic, one fresh interpreter per traffic.

    python3 tests/tools/memo_traffic.py [--seed N]

The traffics are one pass of each perfbench workload at seed N (default
3131): the ops of `workloads.generate`, each run by `workloads.execute`, as
a perfbench worker does; then every argv of `tests/golden/cases.json`
through `cli.run` (output captured and dropped), under the name `golden`.
`perfbench/workloads.py` is imported from its checkout, read only.  Each
traffic runs in its own interpreter, so no memo is warm when it starts.

A memo is every `functools.lru_cache` object that a module of the package
defines, named `<module>.<name>`.  After the traffic, one line per memo,

    deep     dunkl.b_lowering_parts        hits   1904  misses    128  entries    128

from its `cache_info()`.  The memo counts are read before the ops'
outputs are checked by `workloads.check`, so the checks add no traffic.  A
failed check, or a golden case that exits with another code than its own,
is printed to stderr and makes the exit code 1.  The package is imported
from the `src/` of the checkout this file is in, not from an installed
copy; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEED = 3131


def _memos(package):
    """(name, lru_cache object) of every memo the package's modules define."""
    mods = [importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__) if m.name != "__main__"]
    return [(f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}", obj)
            for mod in sorted(mods, key=lambda m: m.__name__)
            for attr, obj in sorted(vars(mod).items())
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__]


def _golden(cherednik):
    """Run the golden argv; return a check that lists the wrong exit codes."""
    problems = []
    for case in json.loads((ROOT / "tests" / "golden" / "cases.json").read_text()):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cherednik.cli.run(case["argv"])
            except SystemExit as exc:
                code = exc.code
        if code != case["exit"]:
            problems.append(f"golden {case['id']}: exit {code}, not {case['exit']}")
    return lambda: problems


def _workload(cherednik, name, seed):
    """Run one pass of a workload; return a check of its outputs."""
    import workloads

    ops = workloads.generate(name, seed)
    outs = [workloads.execute(cherednik, op) for op in ops]

    def check():
        return [f"{name} op {i}: {err}" for i, (op, out) in enumerate(zip(ops, outs))
                if (err := workloads.check(cherednik, op, out)) is not None]

    return check


def _one(name, seed):
    """Run one traffic in this interpreter and print its memo lines."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import cherednik
    import cherednik.cli

    check = _golden(cherednik) if name == "golden" else _workload(cherednik, name, seed)
    for memo, obj in _memos(cherednik):
        info = obj.cache_info()
        print(f"{name:8} {memo:29} hits {info.hits:6}  misses {info.misses:5}  "
              f"entries {info.currsize:5}")
    problems = check()
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--one", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        return _one(args.one, args.seed)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    code = 0
    for name in (*workloads.WORKLOADS, "golden"):
        sys.stdout.flush()
        done = subprocess.run([sys.executable, __file__, "--one", name, "--seed", str(args.seed)])
        code = code or done.returncode
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
