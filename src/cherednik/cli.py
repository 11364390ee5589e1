"""Command-line frontend.

Subcommands: info, classify, gram, sweep, conjecture, selftest.  All
multiplicities enter as exact rational strings ("p/q" or an integer);
there is no floating-point entry point.  `run` returns each exit code:
0 success or --help, 1 usage or parse error, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import re
import sys
from functools import lru_cache

from .errors import InvariantViolation, NonDivisibleError
from .polynomials import MPoly, ParamPoly, PP_K1, PP_K2
from .scalars import QuadExt, Rat, rat
from .rootsystem import LABELS, build_root_system
from .wrep import get_irrep, irreps
from .dunkl import dunkl_apply, natural_m
from .verma import VermaModule, classify as _classify, standard_module
from .rank2 import (_max_r, check_kappa_factorization, f_power_image,
                    f_power_image_closed, f_power_image_direct,
                    evaluate_at_couplings, very_singular)

MAX_SWEEP_POINTS = 10_000
# the highest `gram --degree` per (rank, --symbolic).  The slowest accepted
# request takes under a minute (2-core x86, Python 3.11, timed by the cap
# requests of tests/tools/timing.py): at the caps, a numeric G2 std layer at
# the singular point k = -5/6 took 8.1 s, a symbolic G2 std one 28 s and a
# symbolic A1 one 8.7 s (a numeric A1 layer is 1 x 1 and takes under a second).
MAX_GRAM_DEGREE = {(1, False): 1200, (1, True): 1200, (2, False): 80, (2, True): 20}
# the highest degree a `classify` or `sweep` point may scan, per rank; at the
# caps A2 triv m = 52 took 6.9 s and A1 triv m = 9999 4.0 s (as MAX_GRAM_DEGREE)
MAX_SCAN_DEGREE = {1: 20000, 2: 106}
# the highest `conjecture --max-q`, set when the check took 29 s and 97 MB at
# it (r <= 501); on rows over hbar it takes 7.6 s and 84 MB (as MAX_GRAM_DEGREE)
MAX_CONJECTURE_Q = 250

_RAT_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this artifact reserves
    2 for invariant violations, so route usage errors to status 1.  Also
    teach the tokenizer that "-1/3" is a value, not an option flag."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._negative_number_matcher = re.compile(
            r"^-\d+(/\d+)?(:-?\d+(/\d+)?){0,2}$")

    def error(self, message):
        # one line: "unrecognized arguments" echoes tokens unquoted
        self.exit(1, f"{self.prog}: error: {message}".replace("\n", "\\n") + "\n")


def _nonneg_int(text: str) -> int:
    """argparse type for degrees and bounds."""
    if not re.match(r"^\+?\d+$", text.strip()):
        raise argparse.ArgumentTypeError(
            f"not a non-negative integer: {text!r}")
    return int(text)


def _parse_rat(text: str) -> Rat:
    if not _RAT_RE.match(text.strip()):
        raise UsageError(f"not an exact rational: {text!r} (use p/q or an integer)")
    return rat(text.strip())


def _resolve_couplings(args) -> tuple:
    """Combine --k / --k1 / --k2 into a coupling pair."""
    if args.k is not None:
        if args.k1 is not None or args.k2 is not None:
            raise UsageError("--k conflicts with --k1/--k2")
        v = _parse_rat(args.k)
        return v, v
    if args.k1 is None:
        raise UsageError("need --k, or --k1 (and --k2 for two-orbit types)")
    k1 = _parse_rat(args.k1)
    one_orbit = _one_orbit(args.type)
    if args.k2 is not None:
        k2 = _parse_rat(args.k2)
        if one_orbit and k2 != k1:
            raise UsageError(f"{args.type} has one root orbit: --k2 must equal --k1")
        return k1, k2
    if one_orbit:
        return k1, k1
    raise UsageError(f"{args.type} has two root orbits: give --k2 or use --k")


def _one_orbit(label: str) -> bool:
    return build_root_system(label).orbit_counts[1] == 0


def _parse_range(text: str):
    """a:b:step with exact rational endpoints, inclusive of b when hit,
    as (a, step, number of points); the points are a + i*step."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be a:b:step, got {text!r}")
    a, b, step = (_parse_rat(p) for p in parts)
    if step <= 0:
        raise UsageError("range step must be positive")
    if a > b:
        raise UsageError("range start exceeds range end")
    return a, step, (b - a) // step + 1


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _check_scan_degree(label: str, chi: str, k1, k2, max_degree=None) -> None:
    """UsageError when 2m + 2 (lowest-weight scalar -m, m natural) or max_degree
    is above MAX_SCAN_DEGREE.  classify scans an infinite natural m to 2m + 4,
    within the cap by parity: such an m is 2 mod 3 on A2 and G2, odd on B2."""
    rs = build_root_system(label)
    m = natural_m(rs, get_irrep(rs, chi), k1, k2)
    top = max(0 if m is None else 2 * m + 2, max_degree or 0)
    if top > MAX_SCAN_DEGREE[rs.rank]:
        raise UsageError(f"{label} {chi} at k = ({k1}, {k2}) scans to degree {top}, "
                         f"above the limit of {MAX_SCAN_DEGREE[rs.rank]}")


# -- subcommands -------------------------------------------------------------------

def _cmd_info(args) -> int:
    rs = build_root_system(args.type)
    reps = irreps(rs)
    _emit_json({
        "type": rs.label,
        "rank": rs.rank,
        "group_order": len(rs.elements),
        "positive_roots": rs.num_positive,
        "orbit_sizes": list(rs.orbit_counts),
        "invariant_degrees": list(rs.degrees),
        "characters": [{"label": r.label, "dim": r.dim} for r in reps],
    })
    return 0


def _csv_row(res) -> list:
    return [res.label, str(res.k1), str(res.k2), res.chi,
            "true" if res.finite else "false",
            "" if res.m is None else res.m,
            "" if res.total_dim is None else res.total_dim]


_CSV_HEADER = ["type", "k1", "k2", "chi", "finite", "m", "dim"]


def _cmd_classify(args) -> int:
    k1, k2 = _resolve_couplings(args)
    _check_scan_degree(args.type, args.chi, k1, k2, args.max_degree)
    res = _classify(args.type, args.chi, k1, k2, scan_bound=args.max_degree)
    if args.format == "json":
        _emit_json(res.as_dict())
    elif args.format == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(_CSV_HEADER)
        w.writerow(_csv_row(res))
    else:
        print(f"type:        {res.label}")
        print(f"chi:         {res.chi}")
        print(f"couplings:   ({res.k1}, {res.k2})")
        print(f"finite:      {'yes' if res.finite else 'no'}")
        if res.finite:
            print(f"m:           {res.m}")
            print(f"graded dims: {' '.join(str(d) for d in res.dims)}")
            print(f"total dim:   {res.total_dim}")
        else:
            print(f"scanned dims: {' '.join(str(d) for d in res.dims)} ...")
    return 0


def _cmd_gram(args) -> int:
    rs = build_root_system(args.type)
    cap = MAX_GRAM_DEGREE[rs.rank, args.symbolic]
    if args.degree > cap:
        raise UsageError(f"--degree {args.degree} is above the limit of {cap} "
                         f"for {'symbolic ' * args.symbolic}{rs.label} layers")
    rep = get_irrep(rs, args.chi)
    if args.symbolic:
        if args.k is not None or args.k1 is not None or args.k2 is not None:
            raise UsageError("--symbolic takes no --k/--k1/--k2")
        k1 = k2 = None
        vm = VermaModule(rs, rep, PP_K1, PP_K2)
    else:
        k1, k2 = _resolve_couplings(args)
        vm = VermaModule(rs, rep, k1, k2)
    g = vm.gram(args.degree)
    # entries may pass the 4,300 digits Python prints by default
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        entries = [[str(e) for e in row] for row in g]  # QuadExt or ParamPoly
    finally:
        sys.set_int_max_str_digits(limit)
    _emit_json({
        "type": rs.label,
        "chi": rep.label,
        "k1": None if k1 is None else str(k1),
        "k2": None if k2 is None else str(k2),
        "degree": args.degree,
        "size": len(g),
        "layer_rank": None if args.symbolic else vm.layer_rank(args.degree),
        "entries": entries,
    })
    return 0


def _cmd_sweep(args) -> int:
    if args.k2_range and _one_orbit(args.type):
        raise UsageError(f"{args.type} has one root orbit: no --k2-range")
    a1, s1, n1 = _parse_range(args.k1_range)
    # without --k2-range the sweep is diagonal: k2 = k1 at every point
    a2, s2, n2 = _parse_range(args.k2_range) if args.k2_range else (None, None, 1)
    if n1 * n2 > MAX_SWEEP_POINTS:
        raise UsageError(f"sweep has {n1 * n2} points, more than the limit "
                         f"of {MAX_SWEEP_POINTS}")
    points = [(k1, k1 if a2 is None else a2 + j * s2)
              for k1 in (a1 + i * s1 for i in range(n1)) for j in range(n2)]
    for k1, k2 in points:
        _check_scan_degree(args.type, args.chi, k1, k2)
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(_CSV_HEADER)
    for k1, k2 in points:
        w.writerow(_csv_row(_classify(args.type, args.chi, k1, k2)))
    return 0


def _cmd_conjecture(args) -> int:
    if args.max_q > MAX_CONJECTURE_Q:
        raise UsageError(f"--max-q {args.max_q} is above the limit of {MAX_CONJECTURE_Q}")
    _emit_json(check_kappa_factorization(args.max_q).as_dict())
    return 0


def _cmd_selftest(args) -> int:
    rng = random.Random(args.seed)

    def report(name):
        print(f"ok {name}")

    # exact scalar arithmetic
    s3 = QuadExt(0, 1)
    if (QuadExt(1) + s3) * (QuadExt(1) - s3) != QuadExt(-2):
        raise InvariantViolation("scalars: (1 + s3)(1 - s3) != -2")
    if (QuadExt(2) + s3).inv() * (QuadExt(2) + s3) != QuadExt(1):
        raise InvariantViolation("scalars: (2 + s3)^-1 (2 + s3) != 1")
    report("scalars")

    def rand_poly(nvars, maxdeg):
        p = MPoly.zero(nvars)
        for _ in range(4):
            e = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
            if sum(e) > maxdeg:
                continue
            p = p + MPoly(nvars, {e: Rat(rng.randint(-4, 4))})
        return p

    for label in LABELS:
        rs = build_root_system(label)  # builds + structural checks
        n = rs.rank
        k1 = Rat(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        k2 = Rat(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        for _ in range(3):
            y1 = [Rat(rng.randint(-3, 3)) for _ in range(n)]
            y2 = [Rat(rng.randint(-3, 3)) for _ in range(n)]
            p = rand_poly(n, 3)
            a = dunkl_apply(rs, y2, dunkl_apply(rs, y1, p, k1, k2), k1, k2)
            b = dunkl_apply(rs, y1, dunkl_apply(rs, y2, p, k1, k2), k1, k2)
            if a != b:
                raise InvariantViolation(f"{label}: Dunkl operators fail to commute")
        report(f"dunkl commutativity {label}")

    for label in LABELS:
        rs = build_root_system(label)
        rep = get_irrep(rs, "triv")
        k1 = Rat(rng.randint(-4, 4), 2)
        k2 = Rat(rng.randint(-4, 4), 2)
        vm = VermaModule(rs, rep, k1, k2)
        for d in range(1, 4):
            vm.gram(d)  # symmetry is enforced internally
        report(f"gram symmetry {label}")

    for label in ("A2", "B2", "G2"):
        vm = standard_module(label, "triv", PP_K1, PP_K2)
        at = standard_module(label, "triv", Rat(2, 7), Rat(-3, 5))  # a generic point
        size = len(vm.layer_monomials(2)) * vm.rep.dim
        if not vm.layer_rank(2) == at.layer_rank(2) == size:
            raise InvariantViolation(f"{label} triv: rank certificate fails at degree 2")
    report("symbolic rank certificate")

    for label in ("A2", "B2", "G2"):
        vm = standard_module(label, "triv", PP_K1, PP_K2)
        if vm.gram(3) != [[ParamPoly.coerce(v) for v in row] for row in vm.gram_direct(3)]:
            raise InvariantViolation(f"{label} triv: packed layer differs from "
                                     "direct assembly at degree 3")
    report("symbolic packing")

    for label in ("A2", "B2", "G2"):
        for nn in range(7):
            for r in range(_max_r(label, nn) + 1):
                if f_power_image(label, nn, r) != f_power_image_closed(label, nn, r):
                    raise InvariantViolation(
                        f"{label}: recursion/closed-form mismatch at ({nn},{r})")
        k1 = Rat(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        k2 = k1 if label == "A2" else Rat(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        for nn in range(4):
            for r in range(_max_r(label, nn) + 1):
                want = QuadExt.coerce(evaluate_at_couplings(
                    label, f_power_image(label, nn, r), k1, k2))
                if f_power_image_direct(label, nn, r, k1, k2) != want:
                    raise InvariantViolation(
                        f"{label}: direct route mismatch at ({nn},{r})")
        report(f"image table {label}")

    rep6 = check_kappa_factorization(3)
    if not rep6.all_verified:
        raise InvariantViolation("kappa factorization failed below index 7")
    report("kappa factorization r <= 7")

    # a known finite and a known infinite point
    res = _classify("A2", "triv", Rat(-1, 3), Rat(-1, 3))
    if not (res.finite and res.total_dim == 1):
        raise InvariantViolation(f"A2 triv at k = -1/3: {res!r}, expected dim 1")
    res = _classify("A2", "triv", Rat(1, 2), Rat(1, 2))
    if res.finite:
        raise InvariantViolation(f"A2 triv at k = 1/2: {res!r}, expected infinite")
    vs = very_singular("G2", Rat(-1, 2), Rat(-1, 2))
    if not (vs.finite and vs.m == 2):
        raise InvariantViolation(f"G2 very singular at k = -1/2: finite={vs.finite}, "
                                 f"m={vs.m}, expected m = 2")
    report("classification spot checks")

    print(f"selftest passed (seed {args.seed})")
    return 0


# -- parser ------------------------------------------------------------------------

def _add_k_flags(p):
    p.add_argument("--k", help="coupling for all roots, exact rational")
    p.add_argument("--k1", help="coupling on the short-root orbit")
    p.add_argument("--k2", help="coupling on the long-root orbit")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="cherednik",
                  description="Exact classification tools for rational "
                              "Cherednik algebras of rank <= 2.")
    sub = top.add_subparsers(dest="subcommand", required=True,
                             parser_class=_Parser)

    p = sub.add_parser("info", help="root-system summary")
    p.add_argument("--type", required=True, choices=LABELS)
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("classify",
                       help="finite-dimensionality of one simple quotient")
    p.add_argument("--type", required=True, choices=LABELS)
    p.add_argument("--chi", required=True, help="lowest-weight character label")
    _add_k_flags(p)
    p.add_argument("--max-degree", type=_nonneg_int, default=None,
                   help="depth of the graded-dimension scan; with lowest-weight "
                        "scalar -m (m natural) it still reaches degree 2m+2")
    p.add_argument("--format", default="json", choices=("json", "csv", "table"))
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("gram", help="contravariant form on one graded layer")
    p.add_argument("--type", required=True, choices=LABELS)
    p.add_argument("--chi", required=True)
    _add_k_flags(p)
    p.add_argument("--degree", required=True, type=_nonneg_int)
    p.add_argument("--symbolic", action="store_true",
                   help="entries as polynomials in k1, k2")
    p.set_defaults(fn=_cmd_gram)

    p = sub.add_parser("sweep", help="classification over a coupling grid (CSV)")
    p.add_argument("--type", required=True, choices=LABELS)
    p.add_argument("--chi", required=True)
    p.add_argument("--k1-range", required=True, metavar="a:b:step")
    p.add_argument("--k2-range", default=None, metavar="a:b:step",
                   help="omit for a diagonal sweep with k2 = k1")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("conjecture",
                       help="check the kappa recursion against its proven roots")
    p.add_argument("--max-q", required=True, type=_nonneg_int)
    p.set_defaults(fn=_cmd_conjecture)

    p = sub.add_parser("selftest", help="seeded randomized property suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_selftest)

    return top


# one parser per process: in-process callers run many commands
_parser = lru_cache(maxsize=None)(build_parser)


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:  # a usage error (1) or --help (0)
        return e.code
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); point stdout at devnull
        # so the flush at interpreter shutdown does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, ValueError) as e:
        # ValueError: unknown character labels and similar request-level problems
        print(f"cherednik: error: {e}", file=sys.stderr)
        return 1
    except (InvariantViolation, NonDivisibleError) as e:
        print(f"cherednik: invariant violation: {e}", file=sys.stderr)
        return 2
