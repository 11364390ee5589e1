"""Checks of the classifier against data that share no code with it.

- The closed character of Berest-Etingof-Ginzburg ("Finite-dimensional
  representations of rational Cherednik algebras", IMRN 2003): at equal
  couplings k = -r/h with gcd(r, h) = 1, h the Coxeter number, L(triv) is
  finite and its graded dimensions are the coefficients of
  ((1 - t^r)/(1 - t))^rank, computed here as an integer polynomial power.
- Pinned verdicts: `tests/golden/classify_grid.json` holds
  `classify(...).as_dict()` on a fixed grid of m <= 4 points over every
  type and character, written once from the code before the Gram layers
  moved to integer matrices.  A diff is a change of behaviour.
- Layer ranks against sympy's rank over Q.
- The first singular layer of M(triv) at equal couplings k = -a/b, from the
  lowest-weight differences d_tau = b(tau) - b(triv) alone: singular
  polynomials exist exactly at k = -j/d_i with d_i a fundamental degree
  and d_i not dividing j (Dunkl-de Jeu-Opdam, "Singular polynomials for
  finite reflection groups", Trans. AMS 346, 1994), and the first singular
  degree is then the smallest positive integer d_tau.
"""

import json
from math import gcd
from pathlib import Path

import pytest

from cherednik.scalars import QuadExt, Rat, rat
from cherednik.rootsystem import LABELS, build_root_system
from cherednik.wrep import get_irrep, irreps
from cherednik.dunkl import lowest_weight_scalar
from cherednik.verma import VermaModule, classify

COXETER = {"A1": 2, "A2": 3, "B2": 4, "G2": 6}
FUNDAMENTAL_DEGREES = {"A1": (2,), "A2": (2, 3), "B2": (2, 4), "G2": (2, 6)}
GRID = Path(__file__).parent / "golden" / "classify_grid.json"


def beg_dims(r, rank):
    """Coefficients of (1 + t + ... + t^(r-1))^rank."""
    poly = [1]
    for _ in range(rank):
        out = [0] * (len(poly) + r - 1)
        for i, c in enumerate(poly):
            for j in range(r):
                out[i + j] += c
        poly = out
    return poly


BEG_POINTS = [(label, r) for label, h in COXETER.items()
              for r in range(1, 10) if gcd(r, h) == 1]


@pytest.mark.parametrize("label, r", BEG_POINTS)
def test_beg_closed_character(label, r):
    k = Rat(-r, COXETER[label])
    res = classify(label, "triv", k, k)
    rank = build_root_system(label).rank
    assert res.finite
    assert list(res.dims) == beg_dims(r, rank)
    assert res.total_dim == r ** rank


# Finite points at k = -r/h with gcd(r, h) > 1.  Their graded dimensions
# are not of the closed shape; the dihedral classification covers them
# (Chmutova, "Representations of the rational Cherednik algebras of
# dihedral type", J. Algebra 297 (2006)).  Pinned as the classifier gives
# them.
NON_COPRIME = [
    ("B2", "-1/2", 1), ("B2", "-3/2", 5), ("B2", "-5/2", 9),
    ("G2", "-1/3", 1), ("G2", "-1/2", 2), ("G2", "-2/3", 3),
    ("G2", "-4/3", 7), ("G2", "-3/2", 8), ("G2", "-5/3", 9),
]


@pytest.mark.parametrize("label, k, m", NON_COPRIME)
def test_non_coprime_finite_points_pinned(label, k, m):
    res = classify(label, "triv", rat(k), rat(k))
    assert res.finite and res.m == m
    # each of these is the "staircase" 1, 2, ..., m+1, ..., 2, 1
    assert list(res.dims) == list(range(1, m + 2)) + list(range(m, 0, -1))


def test_classify_grid_pinned():
    cases = json.loads(GRID.read_text())
    assert len(cases) == 124
    for want in cases:
        got = classify(want["type"], want["chi"], rat(want["k1"]),
                       rat(want["k2"])).as_dict()
        assert got == want


@pytest.mark.parametrize("label", LABELS)
def test_layer_rank_matches_sympy(label):
    sympy = pytest.importorskip("sympy")
    rs = build_root_system(label)
    points = [(Rat(2, 7), Rat(-3, 11)), (Rat(-1, 2), Rat(-1, 2)),
              (Rat(-1, 3), Rat(-1, 3)), (Rat(-1, 2), Rat(-3, 2))]
    for rep in irreps(rs):
        for k1, k2 in points:
            if rs.orbit_counts[1] == 0:
                k2 = k1
            vm = VermaModule(rs, rep, k1, k2)
            for n in range(5):
                g = vm.gram(n)
                want = sympy.Matrix([[sympy.Rational(str(QuadExt.coerce(v).rational()))
                                      for v in row] for row in g]).rank()
                assert vm.layer_rank(n) == want, (label, rep.label, k1, k2, n)


def test_first_singular_degree_is_the_smallest_lowest_weight_difference():
    # 184 points k = -a/b, a <= 12, b <= 6, scanned to degree 14 by the ranks;
    # the oracle reads only the fundamental degrees and the d_tau
    top, points, singular = 14, 0, 0
    for label, degrees in FUNDAMENTAL_DEGREES.items():
        rs = build_root_system(label)
        assert tuple(rs.degrees) == degrees
        triv = get_irrep(rs, "triv")
        for a, b in ((a, b) for b in range(1, 7) for a in range(1, 13) if gcd(a, b) == 1):
            k = Rat(-a, b)
            base = lowest_weight_scalar(rs, triv, k, k)
            diffs = [lowest_weight_scalar(rs, tau, k, k) - base for tau in irreps(rs)]
            first = min((int(d) for d in diffs if d > 0 and d.denominator == 1), default=None)
            dunkl_opdam = b > 1 and any(d % b == 0 for d in degrees)
            want = first if dunkl_opdam and first is not None and first <= top else None
            vm = VermaModule(rs, triv, k, k)
            got = next((n for n in range(top + 1)
                        if vm.layer_rank(n) < len(vm.layer_monomials(n))), None)
            assert got == want, (label, k, diffs)
            points, singular = points + 1, singular + (want is not None)
    assert (points, singular) == (184, 37)
