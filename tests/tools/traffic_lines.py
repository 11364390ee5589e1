"""Print every statement of the package that a reference traffic never runs.

    python3 tests/tools/traffic_lines.py

The traffic is that of `traffic.py`: the golden argv, then one pass of
each perfbench workload at seed 3131, each followed by its check.  A
`sys.settrace` hook, set before the package is imported, records each line
of `src/cherednik/*.py` that runs, the checks' lines too.

A statement ran when a line of its own (its decorators, its header, or the
whole of a simple statement) ran, or, for a compound statement, when a
statement inside it ran; docstrings are not statements.  Each statement
that never ran is printed as

    src/cherednik/<file>.py:<line>: <first source line>

and a last line `unreached <N> of <M> statements`.  A statement listed here
is what no command of the golden corpus and no benchmark op reaches: input
checks and invariant guards that these inputs never trip, and code that
nothing calls.  A golden case that exits with another code than its own,
or an op whose check fails, is printed to stderr and makes the exit code 1.
pytest does not collect this file.
"""

from __future__ import annotations

import ast
import sys

import traffic

ROOT = traffic.ROOT
PKG = ROOT / "src" / "cherednik"


def _statements(tree):
    """Every statement of the module, docstrings left out."""
    docs = {id(node.body[0]) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
    return [node for node in ast.walk(tree) if isinstance(node, ast.stmt) and id(node) not in docs]


def _inner(node):
    """The statements and except handlers directly inside node."""
    return [s for f in ("body", "orelse", "finalbody", "handlers") for s in getattr(node, f, None) or []]


def _header(node):
    """The lines that belong to node itself, not to a statement inside it."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    inner = [s.lineno for s in _inner(node)]
    last = min(inner) - 1 if inner else node.end_lineno
    return range(first, max(last, node.lineno) + 1)


def _unreached(path, ran):
    """The statements of one file that never ran, given the lines that ran,
    and all of its statements."""
    stmts = _statements(ast.parse(path.read_text()))
    done = {}

    def reached(node):
        if id(node) not in done:
            done[id(node)] = (any(n in ran for n in _header(node))
                              or any(reached(s) for s in _inner(node)))
        return done[id(node)]

    return [s for s in stmts if not reached(s)], stmts


def _traffic():
    """Run the golden argv and one pass of each workload; return the problems."""
    cherednik = traffic.load()
    problems = traffic.golden(cherednik)()
    for name in traffic.WORKLOADS:
        problems += traffic.workload(cherednik, name, traffic.SEED)()
    return problems


def traced(run):
    """run() under a `sys.settrace` hook that records each line of
    `src/cherednik/*.py` that runs; returns its result and the lines run,
    file -> set."""
    prefix = str(PKG) + "/"
    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    sys.settrace(hook)
    try:
        return run(), ran
    finally:
        sys.settrace(None)


def report(ran, kind=ast.stmt, noun="statements"):
    """Print each statement of the given kind that never ran, then the line
    `unreached <N> of <M> <noun>`; return N."""
    total = unreached = 0
    for path in sorted(PKG.glob("*.py")):
        lines = path.read_text().splitlines()
        missed, stmts = _unreached(path, ran.get(str(path), set()))
        missed = [s for s in missed if isinstance(s, kind)]
        total += sum(isinstance(s, kind) for s in stmts)
        unreached += len(missed)
        for stmt in sorted(missed, key=lambda s: s.lineno):
            print(f"{path.relative_to(ROOT)}:{stmt.lineno}: {lines[stmt.lineno - 1].strip()}")
    print(f"unreached {unreached} of {total} {noun}")
    return unreached


def main() -> int:
    problems, ran = traced(_traffic)
    report(ran)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
