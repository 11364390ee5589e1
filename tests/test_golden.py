"""Golden CLI corpus: exact bytes of `cli.run` for a fixed list of argv.

`tests/golden/cases.json` lists each case as {"id", "argv", "exit"}.
The expected stdout is `tests/golden/<id>.out`; a case that exits nonzero
also has its expected stderr in `tests/golden/<id>.err`.  The files were
written once from the code as it stood when the corpus was added, so a
diff here is a change of behaviour: mend the code, or record the change
and its reason before touching a golden file.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from cherednik.cli import run

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_golden(case):
    code, out, err = run_captured(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['id']}.out").read_text()
    if case["exit"] != 0:
        assert err == (GOLDEN / f"{case['id']}.err").read_text()
