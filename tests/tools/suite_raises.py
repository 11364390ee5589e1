"""Print every statement, then every `raise`, of the package that the
tier-1 suite never executes.

    python3 tests/tools/suite_raises.py [PYTEST_ARGS ...]

Runs pytest in this process, on `tests/` with
`--continue-on-collection-errors` unless other arguments are given, under
the line hook of `traffic_lines.py`, set before the package is imported.
Each statement of `src/cherednik/*.py` that no test ran is printed as

    src/cherednik/<file>.py:<line>: <source line>

then a line `unreached <N> of <M> statements`; then each `raise` statement
that no test ran, the same way, and a last line `unreached <N> of <M>
raises`.  A statement listed here is code that no test reaches; a raise is
a check that no test fires: an input check that no test feeds a bad input,
or an invariant guard that no fault test trips.  The hook sees this process
only, so a line reached only in a test's child process (`__main__.py`, the
broken-pipe branch of `cli.run`, `test_golden`'s asdict_hash and `python -O`
corpus runs) is listed too.  The trace slows the suite several times over.
The exit code is 1 when pytest fails or a raise is unreached, else 0; an
unreached statement that is not a raise does not change it.  pytest does
not collect this file.
"""

from __future__ import annotations

import ast
import sys

import pytest

import traffic_lines

ROOT = traffic_lines.ROOT


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    args = argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                    "--continue-on-collection-errors"]
    code, ran = traffic_lines.traced(lambda: pytest.main(args))
    traffic_lines.report(ran)
    unreached = traffic_lines.report(ran, ast.Raise, "raises")
    return int(code != 0 or unreached != 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
