"""Command-line interface: what the golden corpus of `test_golden` does not
pin.  The corpus holds the bytes of every subcommand and output format and
of five usage errors; the tests here hold the request caps, the injected
faults, the memos, the usage errors the corpus has no case for, `--help`
and the broken pipe."""

import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cherednik
from cherednik import cli, verma
from cherednik.dunkl import (_quotient_layers, _root_pairs, b_lowering_parts,
                             b_lowering_residues, lowest_weight_scalar, natural_m)
from cherednik.errors import InvariantViolation
from cherednik.linalg import mat_mul
from cherednik.rootsystem import build_root_system
from cherednik.rank2 import FactorizationReport, finite_dim_table
from cherednik.scalars import QuadExt, Rat
from cherednik.verma import VermaModule, standard_module
from cherednik.wrep import get_irrep, irreps
from test_golden import run_captured

rng = random.Random(808)


def test_classify_max_degree_below_two_m_plus_two_is_raised():
    code, out, _ = run_captured(
        ["classify", "--type", "A2", "--chi", "triv", "--k", "-1",
         "--max-degree", "1", "--format", "table"])
    assert code == 0
    assert "scanned dims: 1 2 3 4 5 6 7 ...\n" in out


@pytest.mark.parametrize("argv", [
    ["gram", "--type", "A2", "--chi", "triv", "--k", "1", "--degree", "-1"],
    ["classify", "--type", "A2", "--chi", "triv", "--k", "1",
     "--max-degree", "-3"],
    ["conjecture", "--max-q", "-2"],
])
def test_negative_bounds_rejected(argv):
    code, out, err = run_captured(argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "non-negative integer" in err


def test_gram_degree_cap(monkeypatch):
    # refused before any module is built: one error line, nothing on stdout
    def no_module(*args):
        raise AssertionError("a module was built")

    monkeypatch.setattr(cli, "VermaModule", no_module)
    for argv in (["--type", "G2", "--chi", "std", "--k", "1/2", "--degree", "81"],
                 ["--type", "B2", "--chi", "triv", "--degree", "21", "--symbolic"],
                 ["--type", "A1", "--chi", "triv", "--k", "1/2", "--degree", "1201"]):
        code, out, err = run_captured(["gram"] + argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("cherednik: error:") and "limit" in err


def test_gram_prints_entries_of_any_size():
    # the entries run past the 4,300 digits Python prints by default; the
    # limit is lifted only while the command runs.  The A1 layer at the cap
    # is one entry, built one degree at a time without recursion
    limit = sys.get_int_max_str_digits()
    code, out, err = run_captured(
        ["gram", "--type", "A1", "--chi", "sgn", "--k", "123456/654321",
         "--degree", "1200"])
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    g = standard_module("A1", "sgn", Rat(123456, 654321), Rat(123456, 654321)).gram(1200)
    d = json.loads(out)
    assert d["size"] == 1 and d["layer_rank"] == 1
    entries = d["entries"]
    sys.set_int_max_str_digits(0)
    try:
        assert max(len(e) for row in entries for e in row) > 4300
        assert [[Rat(e) for e in row] for row in entries] == [
            [e.rational() for e in row] for row in g]
    finally:
        sys.set_int_max_str_digits(limit)


def test_one_process_runs_usage_error_then_golden_commands():
    # the parser is built once and serves every later call unchanged
    golden = Path(__file__).parent / "golden"
    cases = {c["id"]: c for c in json.loads((golden / "cases.json").read_text())}
    cli._parser.cache_clear()
    code, out, err = run_captured(["classify", "--type", "A2", "--chi", "triv"])
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    for cid in ("classify-B2-triv-m1_2-json", "gram-B2-std-readme"):
        code, out, _ = run_captured(cases[cid]["argv"])
        assert code == 0
        assert out == (golden / f"{cid}.out").read_text()
    assert cli._parser.cache_info()[:2] == (2, 1)  # hits, misses


CAP1, CAP2 = cli.MAX_SCAN_DEGREE[1], cli.MAX_SCAN_DEGREE[2]


@pytest.mark.parametrize("argv", [
    # A2 triv at k = -(m + 1)/3 scans to 2m + 2 = CAP2 + 2
    ["classify", "--type", "A2", "--chi", "triv", "--k", f"-{CAP2 // 2 + 1}/3"],
    ["classify", "--type", "G2", "--chi", "std", "--k", "1/2",
     "--max-degree", str(CAP2 + 1)],
    # A1 sgn at k = m + 1/2 scans to 2m + 2 = CAP1 + 2
    ["classify", "--type", "A1", "--chi", "sgn", "--k", f"{CAP1 + 1}/2"],
    # the first point (-1/2, -100) has m = 200
    ["sweep", "--type", "B2", "--chi", "triv", "--k1-range", "-1/2:1/2:1/2",
     "--k2-range", "-100:0:50"],
])
def test_scan_degree_cap(argv, monkeypatch):
    # refused before any classification: one error line, nothing on stdout
    def no_classify(*args, **kwargs):
        raise AssertionError("a point was classified")

    monkeypatch.setattr(cli, "_classify", no_classify)
    code, out, err = run_captured(argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("cherednik: error:") and "limit" in err


def test_conjecture_cap(monkeypatch):
    # refused before any check: one error line, nothing on stdout
    def no_check(max_q):
        raise AssertionError("the factorization was checked")

    monkeypatch.setattr(cli, "check_kappa_factorization", no_check)
    cap = cli.MAX_CONJECTURE_Q
    code, out, err = run_captured(["conjecture", "--max-q", str(cap + 1)])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("cherednik: error:") and "limit" in err
    # the cap itself is accepted
    monkeypatch.setattr(cli, "check_kappa_factorization",
                        lambda max_q: FactorizationReport(2 * max_q + 1, None))
    code, out, _ = run_captured(["conjecture", "--max-q", str(cap)])
    assert code == 0 and json.loads(out)["checked_up_to"] == 2 * cap + 1


def test_scan_degree_cap_accepts_the_cap():
    # m = CAP2 // 2 - 1 scans exactly to CAP2; generic points scan to 10
    k = Rat(-(CAP2 // 2), 3)
    cli._check_scan_degree("A2", "triv", k, k)
    cli._check_scan_degree("G2", "std", Rat(1, 2), Rat(1, 2), CAP2)
    cli._check_scan_degree("A1", "sgn", Rat(CAP1 - 1, 2), Rat(CAP1 - 1, 2))
    with pytest.raises(cli.UsageError):
        cli._check_scan_degree("A1", "sgn", Rat(CAP1 + 1, 2), Rat(CAP1 + 1, 2))


def test_accepted_infinite_points_scan_within_the_cap():
    # the check bounds 2m + 2, but classify scans an infinite point with
    # natural m to 2m + 4: the closed rule keeps that within the cap, as an
    # infinite natural m is 2 mod 3 on A2 and G2 and odd on B2, while A1
    # natural points are finite and the higher irreps have no natural m
    tops = {}
    k1s = [Rat(j, 2) for j in range(-40, 4)] + [Rat(j, 3) for j in range(-6, 4)]
    for label in ("A1", "A2", "B2", "G2"):
        rs = build_root_system(label)
        cap = cli.MAX_SCAN_DEGREE[rs.rank]
        for rep in irreps(rs):
            h0 = lowest_weight_scalar(rs, rep, Rat(0), Rat(0))
            a1 = lowest_weight_scalar(rs, rep, Rat(1), Rat(0)) - h0
            a2 = lowest_weight_scalar(rs, rep, Rat(0), Rat(1)) - h0
            if rep.dim > 1:  # the lowest-weight scalar is rank/2 at every coupling
                assert (a1, a2, h0) == (0, 0, Rat(rs.rank, 2)), (label, rep.label)
                continue
            for m in range(cap // 2 - 3, cap // 2 + 2):  # 2m + 2 from cap - 4 to cap + 4
                if label in ("A1", "A2"):
                    points = [((-m - h0) / (a1 + a2),) * 2]
                else:
                    points = [(k1, (-m - h0 - a1 * k1) / a2) for k1 in k1s]
                for k1, k2 in points:
                    assert -lowest_weight_scalar(rs, rep, k1, k2) == m
                    try:
                        cli._check_scan_degree(label, rep.label, k1, k2)
                    except cli.UsageError:
                        assert 2 * m + 2 > cap
                        continue
                    if not finite_dim_table(label, k1, k2)[rep.label].finite:
                        assert 2 * m + 4 <= cap, (label, rep.label, k1, k2)
                        tops[label] = max(tops.get(label, 0), 2 * m + 4)
    # B2 reaches the cap itself
    assert tops == {"A2": CAP2 - 2, "B2": CAP2, "G2": CAP2 - 2}


TOOLS = Path(__file__).parent / "tools"


def test_timing_cap_requests_sit_at_the_caps():
    # each cap request of tests/tools/timing.py is the worst one its cap
    # accepts, so a cap that moves takes its request along; none is run
    spec = importlib.util.spec_from_file_location("timing", TOOLS / "timing.py")
    timing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(timing)
    args = {name: cli.build_parser().parse_args(timing.REQUESTS[name].split())
            for name in ("scan-A1", "scan-A2", "scan-G2", "gram-G2", "gram-G2-symbolic",
                         "gram-A1-symbolic", "sweep", "conjecture")}

    def natural(name):
        rs = build_root_system(args[name].type)
        return natural_m(rs, get_irrep(rs, args[name].chi), *cli._resolve_couplings(args[name]))

    assert (natural("scan-A1"), natural("scan-A2")) == (9999, 52)
    assert 2 * natural("scan-A1") + 2 == CAP1 and 2 * natural("scan-A2") + 2 == CAP2
    assert natural("scan-G2") is None and args["scan-G2"].max_degree == CAP2
    for name in ("gram-G2", "gram-G2-symbolic", "gram-A1-symbolic"):
        rank = build_root_system(args[name].type).rank
        assert args[name].degree == cli.MAX_GRAM_DEGREE[rank, args[name].symbolic], name
    sweep = args["sweep"]
    points = cli._parse_range(sweep.k1_range)[2] * cli._parse_range(sweep.k2_range)[2]
    assert points == cli.MAX_SWEEP_POINTS
    assert args["conjecture"].max_q == cli.MAX_CONJECTURE_Q


def test_every_tool_imports_and_the_timing_runner_works():
    # pytest collects no file of tests/tools, and their imports reach private
    # names of the package and perfbench/workloads: a rename must fail here
    names = sorted(path.stem for path in TOOLS.glob("*.py"))
    code = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import " + ", ".join(names)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    timing = [sys.executable, str(TOOLS / "timing.py")]
    done = subprocess.run([*timing, "--", "info", "--type", "A1"], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"argv +runs  1  seconds +\d+\.\d{4}  peak_rss_mb +\d+  exit 0  "
                        r"info --type A1\n", done.stdout)
    done = subprocess.run([*timing, "bogus"], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("unknown request bogus;")


def test_benchmark_workloads_pass_their_own_output_check(monkeypatch):
    # one pass of each perfbench workload at the reference seed, each output
    # judged by perfbench/workloads.check, the check the benchmark applies
    monkeypatch.syspath_prepend(str(TOOLS))
    import traffic

    assert traffic.WORKLOADS == ("deep", "sweep", "scan", "symbolic")
    problems = [line for name in traffic.WORKLOADS
                for line in traffic.workload(cherednik, name, traffic.SEED)()]
    assert problems == []


def test_second_sweep_adds_no_memo_entry():
    # the memos grow with the deepest degree asked, not with the requests
    argv = ["sweep", "--type", "B2", "--chi", "triv",
            "--k1-range", "-3/2:1/2:1/2", "--k2-range", "-1/2:1/2:1/2"]
    first = run_captured(argv)
    assert first[0] == 0
    rs = build_root_system("B2")

    def state():
        # keys and misses of the memos, then the degrees kept per raised root
        # (the first root of each pair; the others are read off it or are
        # axis roots in closed form)
        memos = (_quotient_layers, b_lowering_parts, b_lowering_residues)
        return ([(m.cache_info().currsize, m.cache_info().misses) for m in memos],
                [len(_quotient_layers(rs, r)[1]) for r, _, _, axis in _root_pairs(rs)
                 if axis is None])

    info = state()
    assert run_captured(argv) == first
    assert state() == info


def test_exit_code_conflicting_couplings():
    code, _, _ = run_captured(
        ["classify", "--type", "B2", "--chi", "triv", "--k", "1",
         "--k1", "1"])
    assert code == 1


def test_exit_code_unknown_type():
    # info's own --type: the corpus's unknown type runs classify
    code, out, err = run_captured(["info", "--type", "D4"])
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    assert err.startswith("cherednik info: error: argument --type: invalid choice: 'D4'")


def test_help_exits_zero():
    # argparse prints the usage, then exits 0: run returns that code
    code, out, err = run_captured(["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: ")


def test_invariant_violation_exits_two(monkeypatch):
    # a cross-check that fails inside a command: exit 2, one line on stderr
    epower = VermaModule.epower_criterion
    monkeypatch.setattr(VermaModule, "epower_criterion",
                        lambda self: epower(self)._replace(finite=False))
    code, out, err = run_captured(
        ["classify", "--type", "A2", "--chi", "triv", "--k", "-4/3"])
    assert (code, out, len(err.splitlines())) == (2, "", 1)
    assert err.startswith("cherednik: invariant violation: A2/triv at k=(-4/3,-4/3): "
                          "the two finiteness tests disagree")


def test_twisted_invariant_violation_names_its_class(monkeypatch):
    # A2 sgn at 4/3 is classified as its class, A2 triv at -4/3: a failing
    # cross-check there exits 2 with one line naming the class
    epower = VermaModule.epower_criterion
    monkeypatch.setattr(VermaModule, "epower_criterion",
                        lambda self: epower(self)._replace(finite=False))
    code, out, err = run_captured(
        ["classify", "--type", "A2", "--chi", "sgn", "--k", "4/3"])
    assert (code, out, len(err.splitlines())) == (2, "", 1)
    assert err.startswith("cherednik: invariant violation: A2/triv at k=(-4/3,-4/3): "
                          "the two finiteness tests disagree")


def test_verdict_hit_with_another_m_exits_two(monkeypatch):
    # A2 sgn at 4/3 reads the verdict of its class, A2 triv at -4/3 (m = 3),
    # only once its own m agrees: made 4, it is an invariant violation
    argv = ["classify", "--type", "A2", "--chi", "triv", "--k", "-4/3"]
    assert run_captured(argv)[0] == 0
    own = verma.natural_m
    monkeypatch.setattr(verma, "natural_m",
                        lambda rs, rep, k1, k2: own(rs, rep, k1, k2) + (rep.label == "sgn"))
    code, out, err = run_captured(["classify", "--type", "A2", "--chi", "sgn", "--k", "4/3"])
    assert (code, out, len(err.splitlines())) == (2, "", 1)
    assert err.startswith("cherednik: invariant violation: A2/sgn at k=(4/3,4/3): m = 4")
    assert verma.classify.cache_info()[:2] == (1, 1)


def test_selftest_reproducible():
    seed = str(rng.randint(0, 10**6))
    code1, out1, _ = run_captured(["selftest", "--seed", seed])
    code2, out2, _ = run_captured(["selftest", "--seed", seed])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "selftest passed" in out1


def test_sweep_point_cap():
    # the count is known before any point runs: no header, one error line
    for ranges in (["--k1-range", "0:1:1/10000000"],
                   ["--k1-range", "0:1:1/200", "--k2-range", "0:1:1/200"]):
        code, out, err = run_captured(
            ["sweep", "--type", "B2", "--chi", "triv"] + ranges)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("cherednik: error:") and "limit" in err


# one fault per selftest check, each on the one name the check reads:
# (owner, name, the fault built from the real value, the check's message)
_SELFTEST_FAULTS = [
    (QuadExt, "__sub__", lambda real: QuadExt.__add__,
     "scalars: (1 + s3)(1 - s3) != -2"),
    (QuadExt, "inv", lambda real: lambda self: self,
     "scalars: (2 + s3)^-1 (2 + s3) != 1"),
    # each operator shifted by the constant y_0: D_y2 D_y1 - D_y1 D_y2 = y2_0 - y1_0
    (cli, "dunkl_apply", lambda real: lambda rs, y, p, k1, k2: real(rs, y, p, k1, k2) + y[0],
     "A1: Dunkl operators fail to commute"),
    # every module at A2's finite point k = -1/3, where layer 2 dies
    (cli, "standard_module", lambda real: lambda label, chi, k1, k2: real(
        "A2", chi, Rat(-1, 3), Rat(-1, 3)),
     "A2 triv: rank certificate fails at degree 2"),
    (VermaModule, "gram_direct", lambda real: lambda self, n: [],
     "A2 triv: packed layer differs from direct assembly at degree 3"),
    (cli, "f_power_image_closed", lambda real: lambda label, n, r: None,
     "A2: recursion/closed-form mismatch at (0,0)"),
    (cli, "f_power_image_direct", lambda real: lambda label, n, r, k1, k2: None,
     "A2: direct route mismatch at (0,0)"),
    (cli, "check_kappa_factorization",
     lambda real: lambda max_q: real(max_q)._replace(first_failure=1),
     "kappa factorization failed below index 7"),
    # each spot check answered with the other point's verdict
    (cli, "_classify", lambda real: lambda *_: real("A2", "triv", Rat(1, 2), Rat(1, 2)),
     "A2 triv at k = -1/3: ClassifyResult(A2/triv at k=(1/2,1/2): infinite), "
     "expected dim 1"),
    (cli, "_classify", lambda real: lambda *_: real("A2", "triv", Rat(-1, 3), Rat(-1, 3)),
     "A2 triv at k = 1/2: ClassifyResult(A2/triv at k=(-1/3,-1/3): dim 1), "
     "expected infinite"),
    (cli, "very_singular", lambda real: lambda label, k1, k2: real(label, -k1, -k2),
     "G2 very singular at k = -1/2: finite=False, m=None, expected m = 2"),
]


@pytest.mark.parametrize("owner, name, fault, message", _SELFTEST_FAULTS,
                         ids=[f"{o.__name__.rpartition('.')[2]}.{n}"
                              for o, n, _, _ in _SELFTEST_FAULTS])
def test_selftest_check_fires(monkeypatch, owner, name, fault, message):
    # each selftest check fires on its fault: exit 2, the check's message
    # as the one line on stderr
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    code, _, err = run_captured(["selftest", "--seed", "7"])
    assert (code, err) == (2, f"cherednik: invariant violation: {message}\n")


_GRAM = ["gram", "--type", "A2", "--chi", "triv", "--k", "1/3", "--degree", "2"]


def test_mat_mul_shape_check_exits_two_with_one_line(monkeypatch):
    # the shape check raises, and a command that hits it (a Gram layer product
    # whose second factor lost its last row) exits 2 with one line
    with pytest.raises(InvariantViolation, match="mat_mul of 2 columns by 1 rows"):
        mat_mul([[1, 2]], [[1]])
    monkeypatch.setattr(verma, "mat_mul", lambda a, b: mat_mul(a, b[:-1]))
    code, out, err = run_captured(_GRAM)
    assert (code, out, len(err.splitlines())) == (2, "", 1)
    assert err.startswith("cherednik: invariant violation: mat_mul of ")


def test_broken_pipe_exits_quietly():
    # about 140 kB of CSV, past the 64 KiB pipe buffer: with the read end
    # closed after the first line, a later write must hit EPIPE
    src = str(Path(cherednik.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "cherednik", "sweep",
                             "--type", "A1", "--chi", "triv",
                             "--k1-range", "1/7:700:1/7"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, bufsize=0)
    assert proc.stdout.readline() == b"type,k1,k2,chi,finite,m,dim\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["classify", "--type", "A2", "--chi", "triv", "--k1", "-1/3", "--k2", "5"],
    ["classify", "--type", "A1", "--chi", "sgn", "--k1", "1/2", "--k2", "-1/2"],
    ["gram", "--type", "A2", "--chi", "std", "--k1", "1", "--k2", "2",
     "--degree", "1"],
    ["sweep", "--type", "A2", "--chi", "triv", "--k1-range", "0:1:1",
     "--k2-range", "0:1:1"],
])
def test_one_orbit_rejects_second_coupling(argv):
    code, out, err = run_captured(argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("cherednik: error:") and "one root orbit" in err


@pytest.mark.parametrize("argv", [
    ["gram", "--type", "A1", "--chi", "triv", "--degree", "1", "--symbolic",
     "--k", "1/2"],
    ["gram", "--type", "A2", "--chi", "std", "--degree", "2", "--symbolic",
     "--k1", "1/2"],
    ["gram", "--type", "B2", "--chi", "triv", "--degree", "1", "--symbolic",
     "--k1", "1", "--k2", "2"],
])
def test_symbolic_gram_rejects_couplings(argv):
    code, out, err = run_captured(argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("cherednik: error:") and "--symbolic" in err


def test_one_orbit_accepts_equal_second_coupling():
    code, out, _ = run_captured(["classify", "--type", "A2", "--chi", "triv",
                                 "--k1", "-1/3", "--k2", "-2/6"])
    assert code == 0
    d = json.loads(out)
    assert d["k1"] == d["k2"] == "-1/3" and d["finite"]
