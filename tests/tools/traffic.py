"""The reference traffic of the tools here: the golden argv, or one pass of
a perfbench workload at a seed.  Each runner returns a check, a function
that lists the problems: a golden case that exits with another code than
its own, or an op whose output `workloads.check` refuses.  The checks run
the package too, so a tool that counts traffic reads its counts first.

`perfbench/workloads.py` (standard library only) is imported from this
checkout, read only; `load` imports the package from this checkout's
`src/`, so a tracer set before `load` sees the import.  pytest does not
collect this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEED = 3131

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

WORKLOADS = workloads.WORKLOADS


def load():
    """The package, with its cli module, from this checkout's `src/`."""
    sys.path.insert(0, str(ROOT / "src"))
    import cherednik
    import cherednik.cli

    return cherednik


def golden(cherednik):
    """Run the golden argv; return a check that lists the wrong exit codes."""
    problems = []
    for case in json.loads((ROOT / "tests" / "golden" / "cases.json").read_text()):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cherednik.cli.run(case["argv"])
        if code != case["exit"]:
            problems.append(f"golden {case['id']}: exit {code}, not {case['exit']}")
    return lambda: problems


def workload(cherednik, name, seed):
    """Run one pass of a workload; return a check of its outputs."""
    ops = workloads.generate(name, seed)
    outs = [workloads.execute(cherednik, op) for op in ops]

    def check():
        return [f"{name} op {i}: {err}" for i, (op, out) in enumerate(zip(ops, outs))
                if (err := workloads.check(cherednik, op, out)) is not None]

    return check
