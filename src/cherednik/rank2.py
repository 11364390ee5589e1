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

Rows, products and kappa-factors have int coefficients over one known
denominator (1 for A2 and B2 rows, 9^n for G2 row n, 3^p for kappa-factor
p) and are rows over hbar: a tuple of int lists, list j the coefficients
in hbar of k1^j on B2 and of kappa^j on G2, one list on A2.  A factor
(hbar + c) is one multiply-add per list, a factor k1 or kappa prepends a
list, and they become ParamPoly only when returned.  The recursion keeps
the last row raised per type, the product formulas the last product per
(type, r), each extended one step at a time; a kappa-factor call holds
two, and the check evaluates them at hbar = -(3r - 1) by Horner's rule.
The direct route works on x-polynomials (MPoly): its normalization (Q, c)
is read off the integer lowerings by Kronecker substitution (f_chain of
the symbolic triv module), and each E^a and Q^r is built once per type.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache, reduce
from operator import add, sub

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

_TABLE_TYPES = ("A2", "B2", "G2")


def _max_r(label: str, n: int) -> int:
    return n // 2 if label == "B2" else n // 3


def _param(rows, den: int = 1, inner: int = 0) -> ParamPoly:
    """Integer rows over their denominator as a ParamPoly: rows[j][i] is the
    coefficient of x^i y^j, x in slot inner (hbar, or kappa alone), y in the other."""
    coef = QuadExt if den == 1 else (lambda c: QuadExt._of(c, 0, den))
    return ParamPoly._of({(j, i) if inner else (i, j): coef(c)
                          for j, row in enumerate(rows) for i, c in enumerate(row) if c})


def _hb(p, c: int, s: int = 1) -> tuple:
    """p (s hbar + c)."""
    return tuple([*map(add, [c * a for a in row] + [0], [0] + [s * a for a in row])]
                 if row else [] for row in p)


def _scale(p, c: int) -> tuple:
    return tuple([c * a for a in row] for row in p)


def _sum(*ps) -> tuple:
    """Sum of rows over hbar (() is zero, [] a zero list, ([],) + p is k1 or kappa times p)."""
    return tuple([*map(sum, itertools.zip_longest(*rows, fillvalue=0))]
                 for rows in itertools.zip_longest(*ps, fillvalue=()))


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
        return row[r] if 0 <= r < len(row) else ()

    out = []
    for r in range(_max_r(label, n + 1) + 1):
        if label == "A2":
            a, t = n + 1 - 3 * r, get(r - 1)
            out.append(_sum(_scale(t, r * (2 * r - 1)), _hb(get(r), -a * (n + 3 * r), -a)))
        elif label == "B2":  # -2r (2 k1 + 2r-1) row[r-1] - (n+1-2r) (hbar + n+2r) row[r]
            a, t = n + 1 - 2 * r, get(r - 1)
            out.append(_sum(([],) + _scale(t, -4 * r), _scale(t, -2 * r * (2 * r - 1)),
                            _hb(get(r), -a * (n + 2 * r), -a)))
        else:  # G2: 9 (kappa r row[r-1] - (n+1-3r) (hbar + n+3r) row[r]) - r (r-1) row[r-2]
            a = 9 * (n + 1 - 3 * r)
            out.append(_sum(_hb(get(r), -a * (n + 3 * r), -a), ([],) + _scale(get(r - 1), 9 * r),
                            _scale(get(r - 2), -r * (r - 1))))
    return out


# label -> [n, row n]: the last row of label's recursion raised, which _row moves
_ROWS = {}


def _row(label: str, n: int) -> tuple:
    """Row n of the recursion in integer rows over hbar (G2 rows times 9^n),
    raised one step at a time from the row _ROWS holds, or from row 0 when
    n is below it; only the last row raised is kept."""
    held = _ROWS.setdefault(label, [0, (([1],),)])
    if n < held[0]:
        held[:] = 0, (([1],),)
    while held[0] < n:
        held[:] = held[0] + 1, tuple(_step(label, held[1], held[0]))
    return held[1]


def f_power_image(label: str, n: int, r: int) -> ParamPoly:
    """Recursion route to the (n, r) entry; out-of-triangle indices are
    zero by convention."""
    if not _in_triangle(label, n, r):
        return _PZERO
    return _param(_row(label, n)[r], 9 ** n if label == "G2" else 1, label == "B2")


# (label, r) -> [n, product n]: the last product of _product, which it extends
_PRODUCTS = {}


def _product(label: str, n: int, r: int) -> tuple:
    """The (n, r) product formula without its constant: prod_{j<n} (hbar + j)
    with the skipped factors left out, not divided out (B2 skips the odd
    j <= 2r - 1, A2 and G2 the j = 2 mod 3 with j <= 3r - 1), times
    prod_{i<=r} (2 k1 + 2i - 1) on B2 and 3^r kappa-factor r on G2; extended
    one factor at a time from the product _PRODUCTS holds, or from n = 0."""
    held = _PRODUCTS.get((label, r))
    if held is None or n < held[0]:
        p = _nth(_kappas(), r) if label == "G2" else ([1],)
        for i in range(1, r + 1 if label == "B2" else 1):
            p = _sum(([],) + _scale(p, 2), _scale(p, 2 * i - 1))
        held = _PRODUCTS[label, r] = [0, p]
    while held[0] < n:
        j = held[0]
        skip = j < 2 * r and j % 2 if label == "B2" else j < 3 * r and j % 3 == 2
        held[:] = j + 1, held[1] if skip else _hb(held[1], j)
    return held[1]


def f_power_image_closed(label: str, n: int, r: int) -> ParamPoly:
    """Product-formula route: _product times the combinatorial constant."""
    if not _in_triangle(label, n, r):
        return _PZERO
    c = (-1) ** n * math.factorial(n)
    if label == "B2":
        return _param(_scale(_product(label, n, r), c), 1, 1)
    if label == "A2":  # times (2r - 1)!!
        c *= math.factorial(2 * r) // (2 ** r * math.factorial(r))
    return _param(_scale(_product(label, n, r), (-1) ** r * c), (3 if label == "A2" else 9) ** r)


# -- kappa-factor sequence (G2) --------------------------------------------------

def _kappas():
    """3^p times the kappa-factors, p = 0, 1, 2, ...: integer rows over hbar
    with K'(p) = 3 kappa K'(p-1) + 3 (p-1) (hbar + 3p - 4) K'(p-2).  Only
    the last two are held, so a deep index needs no more memory than its own."""
    prev, cur = ([1],), ([], [3])
    yield prev
    for p in itertools.count(2):
        yield cur
        prev, cur = cur, _sum(([],) + _scale(cur, 3),
                              _hb(prev, 3 * (p - 1) * (3 * p - 4), 3 * (p - 1)))


def _nth(seq, p: int):
    """Entry p of an index sequence (_kappas, _conjectures)."""
    if p < 0:
        raise ValueError("index must be nonnegative")
    return next(itertools.islice(seq, p, None))


def kappa_factor(p: int) -> ParamPoly:
    """The G2 factor sequence in (hbar, kappa): the part of the table
    entries not explained by the grading products."""
    return _param(_nth(_kappas(), p), 3 ** p)


def _critical(r: int, k) -> list:
    """k (3^r kappa-factor r) at hbar = h = -(3r-1) by Horner's rule: kappa-coefficients."""
    h = -(3 * r - 1)
    return [reduce(lambda acc, c: acc * h + c, reversed(row), 0) for row in k]


def kappa_factor_at_critical(r: int) -> ParamPoly:
    """The kappa-factor specialized to the grading value -(3r-1), a
    polynomial in kappa alone; its vanishing decides the G2
    equal-grading branch."""
    return _param((_critical(r, _nth(_kappas(), r)),), 3 ** r, 1)


def _conjectures():
    """The conjectured kappa-factors r = 0, 1, 2, ..., int lists in kappa:
    conj(r) = conj(r - 2) (kappa^2 - (r - 1)^2), conj(0) = 1, conj(1) = kappa."""
    prev, cur = [1], [0, 1]
    yield prev
    for r in itertools.count(2):
        yield cur
        prev, cur = cur, [*map(sub, [0, 0] + prev, [(r - 1) ** 2 * a for a in prev] + [0, 0])]


def kappa_factor_conjectured(r: int) -> ParamPoly:
    """The conjectured factorization: products of (kappa^2 - j^2) over
    odd j below r for even r, over even j below r (with a kappa factor)
    for odd r."""
    return _param((_nth(_conjectures(), r),), 1, 1)


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
        if _critical(r, k) != _scale((conj,), 3 ** r)[0]:
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

