"""Closed-form machinery for the rank-2 classifications.

The image of the invariant layer under powers of the quadratic lowering
operator is spanned by a triangular family of polynomials indexed by
(n, r).  Three independent routes to those polynomials live here: a
two-term (A2, B2) or three-term (G2) recursion, explicit product
formulas, and a direct Dunkl-operator computation.  On top of them sit
the closed-form finiteness classifiers per type, the kappa-factor
sequence whose roots govern the G2 equal-parameter branch, and the
factorization checker for its conjectured root pattern.

Table variables are the type's natural parameters, not the raw
couplings: A2 tables use (hbar,), B2 tables (k1, hbar), G2 tables
(hbar, kappa) — where hbar is the lowest-weight scalar of the trivial
character and kappa = k2 - k1.  evaluate_at_couplings bridges back to
raw couplings.

Rows, products and kappa-factors are computed as MPoly(2, ...) with int
coefficients over one known denominator (1 for A2 and B2 rows, 9^n for G2
row n, 3^p for kappa-factor p), and become ParamPoly only when returned.
Only the last row raised is kept per type; a kappa-factor call holds two.
The product formulas multiply only the grading factors they keep, so they
divide nothing.  The direct route's normalization (Q, c) is read off the
integer lowerings by Kronecker substitution (VermaModule.f_chain of the
symbolic triv module), and each E^a and Q^r is built once per type.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache

from .errors import InvariantViolation
from .polynomials import MPoly, ParamPoly, PP_K1, PP_K2
from .scalars import QuadExt, Rat, rat
from .linalg import dot, mat_vec
from .rootsystem import build_root_system
from .wrep import get_irrep, irreps, twist_couplings
from .dunkl import lowest_weight_scalar, natural_m, poly_coords
from .verma import VermaModule, standard_module

_PZERO = ParamPoly.const(Rat(0))
_PONE = ParamPoly.const(Rat(1))
# the two table variables (hbar or k1, then kappa or hbar) over the integers
_X, _Y = MPoly(2, {(1, 0): 1}), MPoly(2, {(0, 1): 1})
_ZERO, _ONE = MPoly(2), MPoly(2, {(0, 0): 1})

_TABLE_TYPES = ("A2", "B2", "G2")


def _max_r(label: str, n: int) -> int:
    return n // 2 if label == "B2" else n // 3


def _param(poly: MPoly, den: int = 1) -> ParamPoly:
    """An integer table polynomial over its denominator, as a ParamPoly."""
    return ParamPoly._of({e: QuadExt._of(c, 0, den) for e, c in poly.terms.items()})


def _in_triangle(label: str, n: int, r: int) -> bool:
    """The argument check of the three routes to the (n, r) entry (and of
    evaluate_at_couplings, at (0, 0)), then whether 0 <= r <= max_r:
    outside that triangle an entry is zero by convention."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if label not in _TABLE_TYPES:
        raise ValueError(f"no such table family: {label!r}")
    return 0 <= r <= _max_r(label, n)


def _step(label: str, row, n: int):
    """One recursion step on integer rows: row n -> row n+1.  A2 and B2
    rows are integral as they stand; the G2 step is scaled by 9."""

    def get(r):
        return row[r] if 0 <= r < len(row) else _ZERO

    out = []
    if label == "A2":
        hb = _X
        for r in range(_max_r(label, n + 1) + 1):
            t = get(r - 1) * (r * (2 * r - 1))
            u = get(r) * (hb + (n + 3 * r)) * (n + 1 - 3 * r)
            out.append(t - u)
    elif label == "B2":
        k1v, hb = _X, _Y
        for r in range(_max_r(label, n + 1) + 1):
            t = get(r - 1) * (k1v * 2 + (2 * r - 1)) * (-2 * r)
            u = get(r) * (hb + (n + 2 * r)) * (n + 1 - 2 * r)
            out.append(t - u)
    else:  # G2
        hb, kap = _X, _Y
        for r in range(_max_r(label, n + 1) + 1):
            t = get(r) * (hb + (n + 3 * r)) * (-(n + 1 - 3 * r))
            u = get(r - 1) * kap * r
            v = get(r - 2) * (r * (r - 1))
            out.append((t + u) * 9 - v)
    return out


# label -> [n, row n]: the last row of label's recursion raised, which _row moves
_ROWS = {}


def _row(label: str, n: int) -> tuple:
    """Row n of the recursion in integer polynomials (G2 rows times 9^n),
    raised one step at a time from the row _ROWS holds, or from row 0 when
    n is below it; only the last row raised is kept."""
    held = _ROWS.setdefault(label, [0, (_ONE,)])
    if n < held[0]:
        held[:] = 0, (_ONE,)
    while held[0] < n:
        held[:] = held[0] + 1, tuple(_step(label, held[1], held[0]))
    return held[1]


def f_power_image(label: str, n: int, r: int) -> ParamPoly:
    """Recursion route to the (n, r) entry; out-of-triangle indices are
    zero by convention."""
    if not _in_triangle(label, n, r):
        return _PZERO
    return _param(_row(label, n)[r], 9 ** n if label == "G2" else 1)


def _product(factors) -> MPoly:
    acc = _ONE
    for f in factors:
        acc = acc * f
    return acc


def f_power_image_closed(label: str, n: int, r: int) -> ParamPoly:
    """Product-formula route: the grading product prod_{j<n} (hbar + j)
    with the skipped factors left out, not divided out (B2 skips the odd
    j <= 2r - 1, A2 and G2 the j = 2 mod 3 with j <= 3r - 1), times the
    type's factors and the combinatorial constant."""
    if not _in_triangle(label, n, r):
        return _PZERO
    if label == "B2":
        k1v, hb = _X, _Y
        kept = _product(hb + j for j in range(n) if j % 2 == 0 or j >= 2 * r)
        num = _product(k1v * 2 + (2 * i - 1) for i in range(1, r + 1)) * kept
        return _param(num * ((-1) ** n * math.factorial(n)))
    hb = _X  # A2 and G2 skip the same grading factors
    quot = _product(hb + j for j in range(n) if j % 3 != 2 or j >= 3 * r)
    c = (-1) ** (n + r) * math.factorial(n)
    if label == "A2":
        odd = math.factorial(2 * r) // (2 ** r * math.factorial(r))  # (2r - 1)!!
        return _param(quot * (c * odd), 3 ** r)
    return _param(_nth(_kappas(), r) * quot * c, 9 ** r)


# -- kappa-factor sequence (G2) --------------------------------------------------

def _kappas():
    """3^p times the kappa-factors, p = 0, 1, 2, ...: integer polynomials
    with K'(p) = 3 kappa K'(p-1) + 3 (p-1) (hbar + 3p - 4) K'(p-2).  Only
    the last two are held, so a deep index needs no more memory than its own."""
    prev, cur = _ONE, _Y * 3
    yield prev
    for p in itertools.count(2):
        yield cur
        prev, cur = cur, _Y * cur * 3 + prev * (_X + (3 * p - 4)) * (3 * (p - 1))


def _nth(seq, p: int) -> MPoly:
    """Entry p of an index sequence (_kappas, _conjectures)."""
    if p < 0:
        raise ValueError("index must be nonnegative")
    return next(itertools.islice(seq, p, None))


def kappa_factor(p: int) -> ParamPoly:
    """The G2 factor sequence in (hbar, kappa): the part of the table
    entries not explained by the grading products."""
    return _param(_nth(_kappas(), p), 3 ** p)


def _critical(r: int, k: MPoly) -> MPoly:
    """k (3^r times kappa-factor r) at hbar = -(3r-1), in kappa alone."""
    pw = [(-(3 * r - 1)) ** i for i in range(r + 1)]
    t = {}
    for (i, j), c in k.terms.items():
        t[0, j] = t.get((0, j), 0) + c * pw[i]
    return MPoly(2, t)


def kappa_factor_at_critical(r: int) -> ParamPoly:
    """The kappa-factor specialized to the grading value -(3r-1), a
    polynomial in kappa alone; its vanishing decides the G2
    equal-grading branch."""
    return _param(_critical(r, _nth(_kappas(), r)), 3 ** r)


def _conjectures():
    """The conjectured kappa-factors r = 0, 1, 2, ..., in kappa alone:
    conj(r) = conj(r - 2) (kappa^2 - (r - 1)^2), conj(0) = 1, conj(1) = kappa."""
    prev, cur = _ONE, _Y
    yield prev
    for r in itertools.count(2):
        yield cur
        prev, cur = cur, prev * (_Y * _Y - (r - 1) ** 2)


def kappa_factor_conjectured(r: int) -> ParamPoly:
    """The conjectured factorization: products of (kappa^2 - j^2) over
    odd j below r for even r, over even j below r (with a kappa factor)
    for odd r."""
    return _param(_nth(_conjectures(), r))


class FactorizationReport(namedtuple("FactorizationReport", "checked_up_to first_failure")):
    """Outcome of comparing the critical kappa-factors against their
    conjectured product form."""

    __slots__ = ()

    @property
    def all_verified(self) -> bool:
        return self.first_failure is None

    @property
    def verified_up_to(self) -> int:
        if self.first_failure is None:
            return self.checked_up_to
        return self.first_failure - 1

    def as_dict(self):
        return {
            "verified_up_to": self.verified_up_to,
            "first_failure": self.first_failure,
            "checked_up_to": self.checked_up_to,
        }


def check_kappa_factorization(max_q: int) -> FactorizationReport:
    """Compare the exact critical kappa-factors with the conjectured
    products for every index up to 2*max_q + 1."""
    if max_q < 0:
        raise ValueError("max_q must be nonnegative")
    top = 2 * max_q + 1
    for r, k, conj in zip(range(top + 1), _kappas(), _conjectures()):
        if _critical(r, k) != conj * 3 ** r:
            return FactorizationReport(top, r)
    return FactorizationReport(top, None)


# -- direct Dunkl route -----------------------------------------------------------

@lru_cache(maxsize=8)
def _direct_module(label: str, k1, k2) -> VermaModule:
    return standard_module(label, "triv", k1, k2)


@lru_cache(maxsize=None)
def _table_invariant(label: str):
    """The invariant Q whose r-th power enters the (n, r) entry, and the
    constant c with F(Q) = c * shape * E^(deg Q/2 - 1), where the shape is
    1 for A2, -2(2 k1 + 1) for B2 and kappa for G2 (the values forced by
    the recursions).  For A2, Q is the square of the cubic invariant,
    which itself lowers to zero.  F(Q) is F(deg Q) = f_chain(deg Q, deg Q -
    2) of the symbolic triv module, read off its integer lowerings."""
    vm = standard_module(label, "triv", PP_K1, PP_K2)
    rs = vm.rs
    q = rs.invariant_gens[1]
    if label == "A2":
        if any(mat_vec(vm.f_chain(3, 1), poly_coords(q, 3, 2))):
            raise InvariantViolation("A2 cubic invariant should lower to zero")
        q, shape = q * q, _PONE
    elif label == "B2":
        shape = PP_K1 * Rat(-4) - Rat(2)
    else:  # G2
        shape = PP_K2 - PP_K1
    deg = q.degree()
    val = mat_vec(vm.f_chain(deg, deg - 2), poly_coords(q, deg, 2))
    epow = poly_coords(rs.e_poly ** (deg // 2 - 1), deg - 2, 2)
    i = next(i for i, e in enumerate(epow) if e)
    lead, lead_coef = shape.leading()
    c = (val[i] / epow[i]).coefficient(*lead) / lead_coef
    if not c or any(v != shape * (c * e) for v, e in zip(val, epow)):
        raise InvariantViolation(f"{label} normalization: F(Q) is not c * shape * E^p, c != 0")
    return q, c


@lru_cache(maxsize=None)
def _power(label: str, of_q: bool, a: int) -> MPoly:
    """E^a, or with of_q Q^a (Q from _table_invariant), built from the power
    below: each once per label, and the n <= 6 guard bounds a."""
    base = _table_invariant(label)[0] if of_q else build_root_system(label).e_poly
    return base ** 0 if a == 0 else _power(label, of_q, a - 1) * base


def f_power_image_direct(label: str, n: int, r: int, k1, k2):
    """Evaluate the (n, r) entry by genuinely composing Dunkl operators
    at numeric couplings.  Cost-guarded to n <= 6."""
    inside = _in_triangle(label, n, r)
    if n > 6:
        raise ValueError("direct route is cost-guarded to n <= 6")
    if not inside:
        return QuadExt(0)
    vm = _direct_module(label, rat(k1), rat(k2))
    q, c = _table_invariant(label)
    poly = _power(label, False, n - (q.degree() // 2) * r) * _power(label, True, r)
    val = dot(vm.f_chain(2 * n)[0], poly_coords(poly, 2 * n, vm.rs.rank))
    return QuadExt.coerce(val) * c.inv() ** r


def evaluate_at_couplings(label: str, poly: ParamPoly, k1, k2):
    """Evaluate a table polynomial at raw couplings, translating them to
    the type's natural parameters (hbar: lowest_weight_scalar of triv)."""
    _in_triangle(label, 0, 0)
    k1, k2 = rat(k1), rat(k2)
    rs = build_root_system(label)
    hbar = lowest_weight_scalar(rs, get_irrep(rs, "triv"), k1, k2)
    return poly.eval2(*{"A2": (hbar, Rat(0)), "B2": (k1, hbar), "G2": (hbar, k2 - k1)}[label])


# -- closed-form classifiers ------------------------------------------------------

class VerySingularResult(namedtuple("VerySingularResult", "label finite m branch conditional "
                                                          "exact_decision kappa")):
    """Closed-form finiteness decision for the trivial character.

    branch is "grading" when the graded shift alone decides (including
    every non-G2 type) and "kappa" when the G2 equal-grading branch is
    in play; in the latter case the decision follows the conjectured
    root pattern, conditional is True, and exact_decision carries the
    conjecture-free polynomial-vanishing verdict.
    """

    __slots__ = ()


def _decided(label: str, finite: bool, m, branch: str = "grading") -> VerySingularResult:
    """A conjecture-free verdict: exact_decision is finite itself, kappa is
    None, and m is kept only when finite."""
    return VerySingularResult(label, finite, m if finite else None, branch, False, finite, None)


def very_singular(label: str, k1, k2) -> VerySingularResult:
    """Closed-form test for finite dimensionality of the simple quotient
    at the trivial character."""
    k1, k2 = rat(k1), rat(k2)
    rs = build_root_system(label)
    m = natural_m(rs, get_irrep(rs, "triv"), k1, k2)
    if m is None:
        return _decided(label, False, None)
    if label == "A1":
        return _decided(label, True, m)
    if label == "A2":
        return _decided(label, m % 3 != 2, m)
    if label == "B2":
        if m % 2 == 0:
            return _decided(label, True, m)
        t = -2 * k1
        return _decided(label, t.denominator == 1 and int(t) % 2 == 1 and 1 <= int(t) <= m, m)
    # G2: build_root_system has rejected every other label
    n = m + 1
    if n % 3 != 0:
        return _decided(label, True, m)
    r = n // 3
    kappa = k2 - k1
    conj = (kappa.denominator == 1 and abs(int(kappa)) < r
            and (abs(int(kappa)) % 2) != (r % 2))
    exact = not kappa_factor_at_critical(r).eval2(Rat(0), kappa)
    return VerySingularResult(label, conj, m if conj else None, "kappa", True, exact, kappa)


def finite_dim_table(label: str, k1, k2) -> dict:
    """Closed-form finiteness for every irreducible lowest weight: one-
    dimensional characters reduce to the trivial one at twisted
    couplings; higher-dimensional ones never give finite quotients."""
    rs = build_root_system(label)
    k1, k2 = rat(k1), rat(k2)
    out = {}
    for rep in irreps(rs):
        if rep.dim != 1:
            out[rep.label] = _decided(label, False, None, "reflection-trace")
            continue
        t1, t2 = twist_couplings(rs, rep, k1, k2)
        out[rep.label] = very_singular(label, t1, t2)
    return out

