"""The CLI's exit-code contract, fuzzed: any argv exits 0, or 1 with exactly
one line on stderr, and never raises.

argv is drawn from a grammar of the subcommands and their flags, with odd
tokens in every value slot (empty strings, non-ASCII digits, 1/0, huge
numerators, a newline) and extra tokens after them.  The request caps are
patched small so that every accepted request is cheap.  `cli.run`
returns argparse's usage errors and --help as exit codes, as the
`cherednik` console script does.  Exit 2 is kept for invariant
violations, so it fails here like an exception does.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from cherednik import cli
from cherednik.rootsystem import LABELS, build_root_system
from cherednik.wrep import irreps
from test_golden import run_captured

CHARACTERS = {label: [rep.label for rep in irreps(build_root_system(label))] for label in LABELS}
HUGE = "9" * 5000  # past the digits int() parses by default

ODD = ["", " ", "٣", "１", "1/0", "-1/0", "2/-3", "1.5", "1e3", "½", "x", "a\nb", "--",
       "7" * 200 + "/3", "-" + "9" * 40, HUGE]


def _mostly(valid, odd=ODD):
    """A value of valid three times in four, else an odd token."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(odd) if i == 3 else valid)


SMALL = st.builds(Fraction, st.integers(-13, 13), st.integers(1, 7))
RATS = _mostly(st.one_of(st.sampled_from(["0", "-0", "+3", "-1/3", "-4/3", "2/7"]),
                         SMALL.map(str)))
# a:b:step over at most three points, so some sweeps pass the point cap
RANGES = _mostly(st.builds(lambda a, n, step: f"{a}:{a + n * step}:{step}", SMALL,
                           st.integers(0, 2), SMALL.filter(lambda q: q > 0)),
                 ODD + ["0:1", "0:1:0", "1:0:1", "0:1:1:1"])
DEGREES = _mostly(st.integers(0, 4).map(str), ODD + ["-1", "+2", "5", "99999"])
# the engine's subcommands twice as often as info, conjecture and selftest
SUBCOMMANDS = ("classify", "gram", "sweep", "info", "classify", "gram", "sweep",
               "conjecture", "selftest")
# which couplings a request names: mostly none when symbolic, else --k or both
K_FLAGS = [("--k",), ("--k1", "--k2"), (), ("--k1",), ("--k", "--k1"), ("--k2",)]


def _flags(sub, label):
    """The flags of sub and their values, for a request about type label."""
    chi = _mostly(st.sampled_from(CHARACTERS[label]))
    return {
        "info": {"--type": _mostly(st.just(label), ["", "C2", "a2"])},
        "classify": {"--type": st.just(label), "--chi": chi, "--max-degree": DEGREES,
                     "--format": _mostly(st.sampled_from(("json", "csv", "table")))},
        "gram": {"--type": st.just(label), "--chi": chi, "--degree": DEGREES},
        "sweep": {"--type": st.just(label), "--chi": chi, "--k1-range": RANGES,
                  "--k2-range": RANGES},
        "conjecture": {"--max-q": DEGREES},
        "selftest": {"--seed": _mostly(st.integers(-3, 3).map(str))},
    }.get(sub, {})


@st.composite
def argvs(draw):
    sub = draw(_mostly(st.sampled_from(SUBCOMMANDS), ODD + ["nope", "-h"]))
    argv = [sub]
    for flag, values in _flags(sub, draw(st.sampled_from(LABELS))).items():
        if draw(st.integers(0, 7)):  # a flag is left out one time in eight
            argv += [flag, draw(values)]
    symbolic = sub == "gram" and draw(st.booleans())
    if sub in ("classify", "gram"):
        ks = [K_FLAGS[2]] if symbolic else K_FLAGS[:2]
        for flag in draw(_mostly(st.sampled_from(ks), K_FLAGS)):
            argv += [flag, draw(RATS)]
    argv += ["--symbolic"] * symbolic
    if draw(st.integers(0, 3)) == 3:  # an extra token one time in four
        argv.append(draw(st.sampled_from(ODD + ["--k", "--type", "-h", "info"])))
    return argv


def test_exit_code_contract(monkeypatch):
    monkeypatch.setattr(cli, "MAX_SCAN_DEGREE", {1: 12, 2: 8})
    monkeypatch.setattr(cli, "MAX_GRAM_DEGREE", dict.fromkeys(cli.MAX_GRAM_DEGREE, 4))
    monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 4)
    monkeypatch.setattr(cli, "MAX_CONJECTURE_Q", 2)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(argvs())
    @example(["info", "--type", "A2", "a\nb"])  # argparse echoes extra tokens unquoted
    @example(["sweep", "--type", "A2", "--chi", "triv", "--k1-range", "0:1"])  # no step
    @example(["sweep", "--type", "A2", "--chi", "triv", "--k1-range", "0:1:0"])  # zero step
    def check(argv):
        code, _, err = run_captured(argv)
        assert code == 0 and err == "" or code == 1 and len(err.splitlines()) == 1, \
            (argv, code, err)

    check()
