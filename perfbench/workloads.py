"""Seeded inputs, operations and output checks for the four workloads.

Input generation uses only the standard library, so the parent process
never imports the package under test.  Everything that touches the
package (running an op, checking its output) runs in a worker process
and receives the package's modules through the ``api`` argument.

Every workload is closed-loop: one process, one thread, each op starts
when the previous one has returned.  Costs vary with the couplings'
denominators and with m, so the parts of each workload that decide its
cost (types, characters, m, scan depth, degrees) are fixed, and the seed
picks only the couplings inside each stratum.
"""

from __future__ import annotations

import csv
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

WORKLOADS = ("deep", "sweep", "scan", "symbolic")

# One sentence per workload: why it is in the benchmark.
WHY = {
    "deep": "finite points with m = 9-10, one per type and character: time goes "
            "to the raised-vector test (F chain, isotypic projector, Weyl "
            "matrices)",
    "sweep": "a seeded 58-point grid over A2 triv/sgn, B2 triv, G2 triv through "
             "cli classify --format csv: per-point lowering rebuilds and short "
             "Gram chains",
    "scan": "generic couplings scanned to degree 14-16 through cli classify "
            "--max-degree: lowering builds, Gram mat_mul and gauss_rank on wide "
            "layers",
    "symbolic": "couplings as PP_K1/PP_K2: symbolic Gram layers, Bareiss ranks, "
                "the three rank2 table routes and the kappa factorization check",
}

RANK2_CHARS = {
    "A2": ("triv", "sgn", "std"),
    "B2": ("triv", "sgn", "std", "chi1", "chi2"),
    "G2": ("triv", "sgn", "tau", "sgn_tau", "std", "std_tau"),
}
TWO_DIM = ("std", "std_tau")

# Known defect: `gram --symbolic` raises AttributeError on every rank-2
# layer.  It is run once per pass, outside the counted ops, and reported
# as its own per-layer count so that a fix shows.
PROBE_ARGV = ["gram", "--type", "A2", "--chi", "triv", "--degree", "2",
              "--symbolic"]


def _natural(q: F) -> bool:
    return q.denominator == 1 and q >= 0


def _a2_hbar(k):
    return 1 + 3 * k


def _b2_hbar(k1, k2):
    return 1 + 2 * (k1 + k2)


def _g2_hbar(k1, k2):
    return 1 + 3 * (k1 + k2)


# -- deep ----------------------------------------------------------------------

def _deep(rng, smoke):
    ops = []
    # A2 has one orbit, so m fixes the point: triv m = -(3k+1), sgn m = 3k-1.
    ops.append(_classify_op("A2", "triv", F(-11, 3), F(-11, 3)))
    ops.append(_classify_op("A2", "sgn", F(11, 3), F(11, 3)))
    # B2 triv on the hbar = -10 line (even m: finite for every split);
    # the seed picks the split from half-integer k1.
    s = F(-11, 2)
    k1 = rng.choice([F(j, 2) for j in range(-5, 4)])
    ops.append(_classify_op("B2", "triv", k1, s - k1))
    # G2 triv on the hbar = -9 line (m + 1 = 10 is not a multiple of 3:
    # the generic branch, finite for every split); k1 in thirds.
    s = F(-10, 3)
    k1 = rng.choice([F(j, 3) for j in range(-6, 3)])
    ops.append(_classify_op("G2", "triv", k1, s - k1))
    if smoke:
        return [_classify_op("A2", "triv", F(-4, 3), F(-4, 3)),
                _classify_op("G2", "triv", F(-1, 2), F(-1, 2))]
    return ops


def _classify_op(label, chi, k1, k2, via="api", max_degree=None, fmt=None):
    op = {"kind": "classify", "via": via, "type": label, "chi": chi,
          "k1": str(k1), "k2": str(k2)}
    if max_degree is not None:
        op["max_degree"] = max_degree
    if fmt is not None:
        op["format"] = fmt
    return op


# -- sweep ---------------------------------------------------------------------

def _sweep(rng, smoke):
    pts = []
    sixths = [F(p, 6) for p in range(-24, 25)]
    # A2 triv: finite m in {0,1,3,4,6}; natural m = 2, 5 (m = 2 mod 3) are
    # infinite but still run the raised-vector test; 8 seeded generic
    # points from the criterion-07 grid.  sgn mirrors it at -k.
    for chi, sign in (("triv", -1), ("sgn", 1)):
        for m in (0, 1, 3, 4, 6, 2, 5):
            k = sign * F(m + 1, 3)
            pts.append(("A2", chi, k, k))
        generic = [k for k in sixths
                   if not _natural(-_a2_hbar(sign * -k))]
        for k in rng.sample(generic, 8):
            pts.append(("A2", chi, k, k))
    # B2 triv on the integer-weight lines of criterion 08: even m is finite
    # for every split, odd m only for some k1.
    b2_k1 = [F(-1, 2), F(-1, 4), F(1, 4), F(1, 2), F(-3, 4), F(1), F(-5, 2),
             F(1, 3), F(-2, 3), F(-1, 6), F(-3, 2)]
    for m in (0, 2, 4, 6, 1, 3, 5):
        s = F(-(m + 1), 2)
        k1 = rng.choice(b2_k1)
        pts.append(("B2", "triv", k1, s - k1))
    small = [F(p, q) for q in (3, 4, 5, 6) for p in range(-7, 8)
             if F(p, q).denominator == q]
    generic = [(a, b) for a in small for b in small
               if not _natural(-_b2_hbar(a, b))]
    for a, b in rng.sample(generic, 6):
        pts.append(("B2", "triv", a, b))
    # G2 triv: generic-branch finite points and residual-branch points
    # (m = 3r - 1), as in criterion 09.
    kappas = [F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(1, 3)]
    for m in (0, 1, 3, 4, 6):
        s = F(-(m + 1), 3)
        kap = rng.choice(kappas)
        pts.append(("G2", "triv", (s - kap) / 2, (s + kap) / 2))
    for r in (1, 1, 2, 2):
        s = F(-r)
        kap = rng.choice([F(0), F(1), F(-1), F(2), F(3), F(1, 2), F(1, 3)])
        pts.append(("G2", "triv", (s - kap) / 2, (s + kap) / 2))
    generic = [(a, b) for a in small for b in small
               if not _natural(-_g2_hbar(a, b))]
    for a, b in rng.sample(generic, 6):
        pts.append(("G2", "triv", a, b))
    # No shuffle: the first op of each type pays that type's cache warm-up,
    # and it should be the same op for every seed.
    if smoke:
        pts = pts[:4]
    return [_classify_op(*p, via="cli", fmt="csv") for p in pts]


# -- scan ----------------------------------------------------------------------

def _scan(rng, smoke):
    # Couplings with denominators 7 and 11 stay off every reducibility
    # hyperplane of these types, so each scanned layer has full rank.
    pool = [F(p, q) for q in (7, 11) for p in range(-6, 7) if p]
    ops = []
    for label, chi, depth in (("A2", "std", 14), ("B2", "std", 16),
                              ("G2", "std", 14), ("G2", "std_tau", 14),
                              ("G2", "triv", 16)):
        k1 = rng.choice(pool)
        k2 = k1 if label == "A2" else rng.choice(pool)
        if smoke:
            depth = 3
        ops.append(_classify_op(label, chi, k1, k2, via="cli",
                                max_degree=depth, fmt="table"))
    return ops[:2] if smoke else ops


# -- symbolic ------------------------------------------------------------------

def _symbolic(rng, smoke):
    ops = []
    gram_degree = 2 if smoke else 8
    for label, chars in RANK2_CHARS.items():
        for chi in chars:
            # the rational point at which the symbolic layer is evaluated
            a = F(rng.randint(-9, 9), rng.choice((2, 3, 5, 7)))
            b = F(rng.randint(-9, 9), rng.choice((2, 3, 5, 7)))
            ops.append({"kind": "sym_gram", "type": label, "chi": chi,
                        "degree": gram_degree, "at": [str(a), str(b)]})
    for label, chi, deg in (("A2", "std", 4), ("B2", "triv", 4),
                            ("B2", "std", 3), ("G2", "triv", 4),
                            ("G2", "std", 3)):
        ops.append({"kind": "sym_rank", "type": label, "chi": chi,
                    "degree": 2 if smoke else deg})
    # the three table routes of one type: recursion and closed form for
    # n <= 12, the direct operator route at seeded couplings for n <= 5
    for label in RANK2_CHARS:
        k1 = F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        k2 = k1 if label == "A2" else F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        ops.append({"kind": "routes", "type": label, "k1": str(k1),
                    "k2": str(k2), "max_n": 4 if smoke else 12,
                    "direct_n": 2 if smoke else 5})
    ops.append({"kind": "kappa", "max_q": 2 if smoke else 15})
    if smoke:   # one op of each kind
        return list({o["kind"]: o for o in reversed(ops)}.values())
    return ops


_GENERATORS = {"deep": _deep, "sweep": _sweep, "scan": _scan,
               "symbolic": _symbolic}


def generate(workload: str, seed: int, smoke: bool = False) -> list:
    """The op list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, smoke)


# -- running ops (worker side) -------------------------------------------------

def _run_cli(api, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = api.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_argv(op):
    argv = ["classify", "--type", op["type"], "--chi", op["chi"],
            "--k1", op["k1"], "--k2", op["k2"]]
    if "max_degree" in op:
        argv += ["--max-degree", str(op["max_degree"])]
    return argv + ["--format", op["format"]]


def execute(api, op):
    """Run one op through the public API or the CLI and return its raw
    output; all checking happens later, outside the timed phase."""
    kind = op["kind"]
    if kind == "classify" and op["via"] == "api":
        return api.classify(op["type"], op["chi"], api.rat(op["k1"]),
                            api.rat(op["k2"]))
    if kind == "classify":
        return _run_cli(api, _cli_argv(op))
    if kind == "kappa":
        return api.check_kappa_factorization(op["max_q"])
    rs = api.build_root_system(op["type"])
    if kind == "sym_gram":
        vm = api.VermaModule(rs, api.get_irrep(rs, op["chi"]), api.PP_K1,
                             api.PP_K2)
        return vm.gram(op["degree"])
    if kind == "sym_rank":
        vm = api.VermaModule(rs, api.get_irrep(rs, op["chi"]), api.PP_K1,
                             api.PP_K2)
        return vm.layer_rank(op["degree"])
    if kind == "routes":
        label, k1, k2 = op["type"], api.rat(op["k1"]), api.rat(op["k2"])
        tables = [(n, r, api.f_power_image(label, n, r),
                   api.f_power_image_closed(label, n, r))
                  for n in range(op["max_n"] + 1)
                  for r in range(_max_r(label, n) + 1)]
        direct = [(n, r, api.f_power_image_direct(label, n, r, k1, k2))
                  for n in range(op["direct_n"] + 1)
                  for r in range(_max_r(label, n) + 1)]
        return tables, direct
    raise ValueError(f"unknown op kind {kind!r}")


def run_probe(api):
    """The known-defect probe; returns None when it succeeds, else the
    error text."""
    try:
        code, _, err = _run_cli(api, PROBE_ARGV)
    except Exception as exc:  # the defect surfaces as an uncaught exception
        return f"{type(exc).__name__}: {exc}"
    return None if code == 0 else f"exit {code}: {err.strip()}"


def _max_r(label, n):
    return n // 2 if label == "B2" else n // 3


# -- checks (worker side) ------------------------------------------------------

def _expected_verdict(api, label, chi, k1, k2):
    """(finite, m) from the closed rules in rank2, which share no code with
    the classifier.  On the G2 residual branch the conjecture-free exact
    decision is the reference; it does not fix m, which is then -hbar."""
    if chi in TWO_DIM:
        return False, None
    res = api.finite_dim_table(label, k1, k2)[chi]
    if res.conditional:
        if not res.exact_decision:
            return False, None
        return True, int(-api.lowest_weight_scalar(
            api.build_root_system(label), _irrep(api, label, chi), k1, k2))
    return res.finite, res.m


def _irrep(api, label, chi):
    return api.get_irrep(api.build_root_system(label), chi)


def _check_shape(dims, m, total, dim_chi):
    if len(dims) != 2 * m + 1:
        return f"graded dims {list(dims)} do not have length 2m+1 = {2 * m + 1}"
    if list(dims) != list(reversed(dims)):
        return f"graded dims {list(dims)} are not palindromic"
    if sum(dims) != total:
        return f"graded dims sum to {sum(dims)}, dim is {total}"
    if dims[0] != dim_chi:
        return f"degree-0 layer has dim {dims[0]}, expected {dim_chi}"
    return None


def check(api, op, out):
    """None when the output is right, else a one-line reason."""
    kind = op["kind"]
    if kind == "classify":
        return _check_classify(api, op, out)
    if kind == "sym_gram":
        return _check_sym_gram(api, op, out)
    if kind == "sym_rank":
        want = (op["degree"] + 1) * _irrep(api, op["type"], op["chi"]).dim
        return None if out == want else f"generic rank {out}, layer dim {want}"
    if kind == "routes":
        tables, direct = out
        for n, r, rec, closed in tables:
            if rec != closed:
                return f"recursion != closed form at ({n},{r})"
        k1, k2 = api.rat(op["k1"]), api.rat(op["k2"])
        for n, r, got in direct:
            want = api.QuadExt.coerce(api.evaluate_at_couplings(
                op["type"], api.f_power_image(op["type"], n, r), k1, k2))
            if got != want:
                return f"direct route != recursion at ({n},{r})"
        return None
    if kind == "kappa":
        want = 2 * op["max_q"] + 1
        if out.verified_up_to != want:
            return f"kappa check verified up to {out.verified_up_to}, not {want}"
        return None
    return f"no check for op kind {kind!r}"


def _check_classify(api, op, out):
    label, chi = op["type"], op["chi"]
    k1, k2 = api.rat(op["k1"]), api.rat(op["k2"])
    finite, m = _expected_verdict(api, label, chi, k1, k2)
    if op["via"] == "api":
        if (out.finite, out.m) != (finite, m):
            return f"verdict ({out.finite}, m={out.m}), oracle ({finite}, m={m})"
        if not finite:
            return None
        return _check_shape(out.dims, m, out.total_dim,
                            _irrep(api, label, chi).dim)
    code, text, err = out
    if code != 0:
        return f"exit {code}: {err.strip()}"
    if op["format"] == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) != 2 or rows[0] != ["type", "k1", "k2", "chi", "finite",
                                          "m", "dim"]:
            return f"malformed csv output {text!r}"
        t, a, b, c, fin, mm, dim = rows[1]
        if (t, a, b, c) != (label, op["k1"], op["k2"], chi):
            return f"csv row echoes the wrong point: {rows[1]}"
        got = (fin == "true", int(mm) if mm else None)
        if got != (finite, m):
            return f"verdict {got}, oracle ({finite}, m={m})"
        if finite and int(dim) < 2 * m + 1:
            return f"dim {dim} is below 2m+1"
        if not finite and dim:
            return f"infinite verdict with dim {dim}"
        return None
    # table format of an infinite scan: every layer of a generic point has
    # full rank, (n+1) * dim chi
    if finite:
        return "scan op expects an infinite point"
    lines = dict(line.split(":", 1) for line in text.splitlines())
    if lines.get("finite", "").strip() != "no":
        return f"verdict {lines.get('finite')!r}, expected no"
    dims = [int(x) for x in lines["scanned dims"].replace("...", "").split()]
    d = _irrep(api, label, chi).dim
    want = [(n + 1) * d for n in range(op["max_degree"] + 1)]
    return None if dims == want else f"scanned dims {dims}, expected {want}"


def _check_sym_gram(api, op, out):
    rs = api.build_root_system(op["type"])
    a, b = (api.rat(x) for x in op["at"])
    numeric = api.VermaModule(rs, api.get_irrep(rs, op["chi"]), a,
                              b).gram(op["degree"])
    if len(out) != len(numeric):
        return f"symbolic layer has {len(out)} rows, numeric {len(numeric)}"
    for i, (srow, nrow) in enumerate(zip(out, numeric)):
        for j, (s, n) in enumerate(zip(srow, nrow)):
            if api.ParamPoly.coerce(s).eval2(a, b) != api.QuadExt.coerce(n):
                return f"symbolic entry ({i},{j}) at ({a},{b}) != numeric"
    return None
