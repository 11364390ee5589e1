"""Golden CLI corpus: exact bytes of `cli.run` for a fixed list of argv.

`tests/golden/cases.json` lists each case as {"id", "argv", "exit"}.
The expected stdout is `tests/golden/<id>.out`; a case that exits nonzero
also has its expected stderr in `tests/golden/<id>.err`.  The files were
written once from the code as it stood when the corpus was added, so a
diff here is a change of behaviour: mend the code, or record the change
and its reason before touching a golden file.

The three lines of `tests/tools/asdict_hash.py` are pinned the same way,
and the whole corpus is run once more in a `python -O` child: the package
has one configuration, so its bytes and exit codes do not change.

The corpus is the one pin for the CLI's output bytes, and a test of
`test_cli` checks only what no case here reaches, so a behaviour is
pinned once.  Every in-process CLI test runs its argv through
`run_captured`.
"""

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cherednik
from cherednik.cli import run

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run_captured(argv):
    """(exit code, stdout, stderr) of cli.run(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_golden(case):
    code, out, err = run_captured(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['id']}.out").read_text()
    if case["exit"] != 0:
        assert err == (GOLDEN / f"{case['id']}.err").read_text()


# prints the optimize flag, then (code, stdout, stderr) of every argv read
# from stdin, as one JSON line
_OPTIMIZED_CHILD = f"""
import contextlib, io, json, sys
from cherednik.cli import run
{inspect.getsource(run_captured)}
print(json.dumps([sys.flags.optimize, [run_captured(a) for a in json.load(sys.stdin)]]))
"""


def test_golden_corpus_under_optimized_mode():
    # every case again, in one python -O child: same exit code, same stdout,
    # and the committed stderr (none for a case that exits 0).  This is the
    # one -O run of the suite, and one is enough: test_scalars'
    # test_package_source_has_one_configuration refuses assert, __debug__ and
    # sys.flags in the package, the only things -O changes, so a check that
    # fires in process fires here too
    src = str(Path(cherednik.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHILD],
                          input=json.dumps([c["argv"] for c in CASES]), capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    optimize, got = json.loads(done.stdout)
    assert optimize == 1 and len(got) == len(CASES)
    for case, (code, out, err) in zip(CASES, got):
        want_err = (GOLDEN / f"{case['id']}.err").read_text() if case["exit"] else ""
        assert code == case["exit"], case["id"]
        assert out == (GOLDEN / f"{case['id']}.out").read_text(), case["id"]
        assert err == want_err, case["id"]


# A line may change only for a fix that has been shown to be one and is
# recorded, with the new line and its reason, in CHANGES.md.
ASDICT_LINES = [
    "points 3266 finite 260 sha256 "
    "5a8f8e5d32b0bcd145f7944805c36c08f4d15e58d1dffa24d8477c1d82eb173a",
    "layers 494 sha256 1523b162263a65979f7b09873813887532bce3cb4e77476812c5a26c4e69d8e3",
    "tables 193 sha256 a85843482e70e9c120233b937a43410f390f395265770b5e233c423b297f8ec5",
]


def test_asdict_hash_lines():
    # the tool imports the package from this checkout's src/, in a fresh interpreter
    tool = Path(__file__).parent / "tools" / "asdict_hash.py"
    done = subprocess.run([sys.executable, str(tool)], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ASDICT_LINES
