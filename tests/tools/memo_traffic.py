"""Print the hits, misses and entries of every memo of the package over a
reference traffic, one fresh interpreter per traffic.

    python3 tests/tools/memo_traffic.py [--seed N]

The traffics are those of `traffic.py`: one pass of each perfbench
workload at seed N (default 3131), then the golden argv under the name
`golden`.  Each traffic runs in its own interpreter, so no memo is warm
when it starts.

A memo is every object with a `cache_info()` that a module of the package
defines, named `<module>.<name>`: the `functools.lru_cache` functions.  An
object whose `cache_info` is another's is that memo again and is skipped:
`verma.classify` reads the verdict memo `verma._class_verdict`.  After the
traffic, one line per memo,

    deep     dunkl.b_lowering_parts        hits   1904  misses    128  entries    128

from its `cache_info()`.  Then one line for each of the two holders of
`rank2`, which keep the last recursion row per type (`_ROWS`) and the
last product formula per (type, r) (`_PRODUCTS`) and have no
`cache_info()`: its entries and the highest n it holds (None when empty),

    symbolic rank2._PRODUCTS               entries    17  highest n    12

All counts are read before the ops' outputs are checked by
`workloads.check`, so the checks add no traffic.  A failed check, or a
golden case that exits with another code than its own, is printed to
stderr and makes the exit code 1.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import importlib
import pkgutil
import subprocess
import sys

import traffic


def _memos(package):
    """(name, lru_cache object) of every memo the package's modules define."""
    mods = [importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__) if m.name != "__main__"]
    return [(f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}", obj)
            for mod in sorted(mods, key=lambda m: m.__name__)
            for attr, obj in sorted(vars(mod).items())
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__
            and getattr(obj.cache_info, "__self__", obj) is obj]


def _one(name, seed):
    """Run one traffic in this interpreter and print its memo lines."""
    cherednik = traffic.load()
    check = (traffic.golden(cherednik) if name == "golden"
             else traffic.workload(cherednik, name, seed))
    for memo, obj in _memos(cherednik):
        info = obj.cache_info()
        print(f"{name:8} {memo:29} hits {info.hits:6}  misses {info.misses:5}  "
              f"entries {info.currsize:5}")
    for holder in ("_ROWS", "_PRODUCTS"):
        held = getattr(cherednik.rank2, holder)
        top = max((n for n, _ in held.values()), default=None)
        print(f"{name:8} {'rank2.' + holder:29} entries {len(held):5}  highest n {top!s:>5}")
    problems = check()
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=traffic.SEED)
    parser.add_argument("--one", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        return _one(args.one, args.seed)
    code = 0
    for name in (*traffic.WORKLOADS, "golden"):
        sys.stdout.flush()
        done = subprocess.run([sys.executable, __file__, "--one", name, "--seed", str(args.seed)])
        code = code or done.returncode
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
