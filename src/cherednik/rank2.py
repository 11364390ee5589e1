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
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import InvariantViolation
from .polynomials import ParamPoly, PP_K1, PP_K2
from .scalars import QuadExt, Rat, is_nonneg_int, rat
from .linalg import dot, mat_vec
from .rootsystem import build_root_system
from .wrep import get_irrep, irreps, twist_couplings
from .dunkl import f_matrix, poly_coords
from .verma import VermaModule

_PZERO = ParamPoly.const(Rat(0))
_PONE = ParamPoly.const(Rat(1))

_TABLE_TYPES = ("A2", "B2", "G2")


def _max_r(label: str, n: int) -> int:
    return n // 2 if label == "B2" else n // 3


def _check_entry(label: str, n: int):
    """The argument check shared by the three routes to the (n, r) entry."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if label not in _TABLE_TYPES:
        raise ValueError(f"no such table family: {label!r}")


def _step(label: str, row, n: int):
    """One recursion step: row n -> row n+1."""

    def get(r):
        return row[r] if 0 <= r < len(row) else _PZERO

    out = []
    if label == "A2":
        hb = PP_K1
        for r in range(_max_r(label, n + 1) + 1):
            t = get(r - 1) * Rat(r * (2 * r - 1))
            u = get(r) * (hb + Rat(n + 3 * r)) * Rat(n + 1 - 3 * r)
            out.append(t - u)
    elif label == "B2":
        k1v, hb = PP_K1, PP_K2
        for r in range(_max_r(label, n + 1) + 1):
            t = get(r - 1) * (k1v * Rat(2) + Rat(2 * r - 1)) * Rat(-2 * r)
            u = get(r) * (hb + Rat(n + 2 * r)) * Rat(n + 1 - 2 * r)
            out.append(t - u)
    else:  # G2
        hb, kap = PP_K1, PP_K2
        for r in range(_max_r(label, n + 1) + 1):
            t = get(r) * (hb + Rat(n + 3 * r)) * Rat(-(n + 1 - 3 * r))
            u = get(r - 1) * kap * Rat(r)
            v = get(r - 2) * Rat(r * (r - 1), 9)
            out.append(t + u - v)
    return out


@lru_cache(maxsize=None)
def _row(label: str, n: int) -> tuple:
    """Row n of the recursion, raised from row n - 1.  A miss first fills
    the rows below in ascending order, so the recursion stays shallow."""
    if n == 0:
        return (_PONE,)
    for i in range(1, n):
        _row(label, i)
    return tuple(_step(label, _row(label, n - 1), n - 1))


def f_power_image(label: str, n: int, r: int) -> ParamPoly:
    """Recursion route to the (n, r) entry; out-of-triangle indices are
    zero by convention."""
    _check_entry(label, n)
    if r < 0 or r > _max_r(label, n):
        return _PZERO
    return _row(label, n)[r]


def _product(factors):
    acc = _PONE
    for f in factors:
        acc = acc * f
    return acc


def f_power_image_closed(label: str, n: int, r: int) -> ParamPoly:
    """Product-formula route: numerator product divided exactly by the
    skipped factors, scaled by the combinatorial constant."""
    _check_entry(label, n)
    if r < 0 or r > _max_r(label, n):
        return _PZERO
    if label == "A2":
        hb = PP_K1
        num = _product(hb + Rat(j) for j in range(n))
        den = _product(hb + Rat(3 * i + 2) for i in range(r))
        quot = num.divexact(den)
        odd = 1
        for i in range(1, r + 1):
            odd *= 2 * i - 1
        c = Rat((-1) ** (n + r) * math.factorial(n) * odd, 3 ** r)
        return quot * c
    if label == "B2":
        k1v, hb = PP_K1, PP_K2
        num = _product(k1v * Rat(2) + Rat(2 * i - 1) for i in range(1, r + 1))
        num = num * _product(hb + Rat(j) for j in range(n))
        den = _product(hb + Rat(2 * i - 1) for i in range(1, r + 1))
        quot = num.divexact(den)
        return quot * Rat((-1) ** n * math.factorial(n))
    hb = PP_K1  # G2
    num = _product(hb + Rat(i) for i in range(n))
    den = _product(hb + Rat(2 + 3 * j) for j in range(r))
    quot = num.divexact(den)
    c = Rat((-1) ** (n + r) * math.factorial(n), 3 ** r)
    return kappa_factor(r) * quot * c


# -- kappa-factor sequence (G2) --------------------------------------------------

@lru_cache(maxsize=None)
def kappa_factor(p: int) -> ParamPoly:
    """The G2 factor sequence in (hbar, kappa): the part of the table
    entries not explained by the grading products."""
    if p < 0:
        raise ValueError("index must be nonnegative")
    if p == 0:
        return _PONE
    if p == 1:
        return PP_K2
    for i in range(2, p):  # ascending, so the recursion stays shallow
        kappa_factor(i)
    hb, kap = PP_K1, PP_K2
    return (kap * kappa_factor(p - 1)
            + kappa_factor(p - 2) * (hb + Rat(3 * p - 4)) * Rat(p - 1, 3))


def kappa_factor_at_critical(r: int) -> ParamPoly:
    """The kappa-factor specialized to the grading value -(3r-1), a
    polynomial in kappa alone; its vanishing decides the G2
    equal-grading branch."""
    return kappa_factor(r).eval2(Rat(-(3 * r - 1)), PP_K2)


def kappa_factor_conjectured(r: int) -> ParamPoly:
    """The conjectured factorization: products of (kappa^2 - j^2) over
    odd j below r for even r, over even j below r (with a kappa factor)
    for odd r."""
    kap = PP_K2
    if r % 2 == 0:
        q = r // 2
        return _product(kap * kap - Rat((2 * j - 1) ** 2) for j in range(1, q + 1))
    q = (r - 1) // 2
    return kap * _product(kap * kap - Rat((2 * j) ** 2) for j in range(1, q + 1))


class FactorizationReport:
    """Outcome of comparing the critical kappa-factors against their
    conjectured product form."""

    def __init__(self, checked_up_to: int, first_failure):
        self.checked_up_to = checked_up_to
        self.first_failure = first_failure

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

    def __repr__(self):
        if self.all_verified:
            return f"FactorizationReport(verified through r = {self.checked_up_to})"
        return f"FactorizationReport(first failure at r = {self.first_failure})"


def check_kappa_factorization(max_q: int) -> FactorizationReport:
    """Compare the exact critical kappa-factors with the conjectured
    products for every index up to 2*max_q + 1."""
    top = 2 * max_q + 1
    for r in range(top + 1):
        if kappa_factor_at_critical(r) != kappa_factor_conjectured(r):
            return FactorizationReport(top, r)
    return FactorizationReport(top, None)


# -- direct Dunkl route -----------------------------------------------------------

@lru_cache(maxsize=8)
def _direct_module(label: str, k1, k2) -> VermaModule:
    rs = build_root_system(label)
    return VermaModule(rs, get_irrep(rs, "triv"), k1, k2)


@lru_cache(maxsize=None)
def _table_invariant(label: str):
    """The invariant Q whose r-th power enters the (n, r) entry, and the
    constant c with F(Q) = c * shape * E^(deg Q/2 - 1), where the shape is
    1 for A2, -2(2 k1 + 1) for B2 and kappa for G2 (the values forced by
    the recursions).  For A2, Q is the square of the cubic invariant,
    which itself lowers to zero."""
    rs = build_root_system(label)
    triv = get_irrep(rs, "triv")
    q = rs.invariant_gens[1]
    if label == "A2":
        for v in mat_vec(f_matrix(rs, triv, 3, PP_K1, PP_K2), poly_coords(q, 3, 2)):
            if ParamPoly.coerce(v):
                raise InvariantViolation("A2 cubic invariant should lower to zero")
        q, shape = q * q, _PONE
    elif label == "B2":
        shape = PP_K1 * Rat(-4) - Rat(2)
    else:  # G2
        shape = PP_K2 - PP_K1
    deg = q.degree()
    val = mat_vec(f_matrix(rs, triv, deg, PP_K1, PP_K2), poly_coords(q, deg, 2))
    epow = poly_coords(rs.e_poly ** (deg // 2 - 1), deg - 2, 2)
    lead, lead_coef = shape.leading()
    c = None
    for v, e in zip(val, epow):
        v = ParamPoly.coerce(v)
        if not e:
            if v:
                raise InvariantViolation(f"{label} normalization: not a quadric multiple")
            continue
        ratio = v / e
        cand = ratio.coefficient(*lead) / lead_coef
        if ratio != shape * ParamPoly.const(cand):
            raise InvariantViolation(f"{label} normalization has the wrong shape")
        if c is not None and cand != c:
            raise InvariantViolation(f"{label} normalization is not constant")
        c = cand
    if not c:
        raise InvariantViolation(f"{label} normalization vanished")
    return q, c


def f_power_image_direct(label: str, n: int, r: int, k1, k2):
    """Evaluate the (n, r) entry by genuinely composing Dunkl operators
    at numeric couplings.  Cost-guarded to n <= 6."""
    _check_entry(label, n)
    if n > 6:
        raise ValueError("direct route is cost-guarded to n <= 6")
    if r < 0 or r > _max_r(label, n):
        return QuadExt(0)
    vm = _direct_module(label, rat(k1), rat(k2))
    q, c = _table_invariant(label)
    poly = vm.rs.e_poly ** (n - (q.degree() // 2) * r) * q ** r
    val = dot(vm.f_chain(2 * n)[0], poly_coords(poly, 2 * n, vm.rs.rank))
    return QuadExt.coerce(val) * c.inv() ** r


def evaluate_at_couplings(label: str, poly: ParamPoly, k1, k2):
    """Evaluate a table polynomial at raw couplings, translating them to
    the type's natural parameters."""
    k1, k2 = rat(k1), rat(k2)
    if label == "A2":
        return poly.eval2(1 + 3 * k1, Rat(0))
    if label == "B2":
        return poly.eval2(k1, 1 + 2 * (k1 + k2))
    if label == "G2":
        return poly.eval2(1 + 3 * (k1 + k2), k2 - k1)
    raise ValueError(f"no such table family: {label!r}")


# -- closed-form classifiers ------------------------------------------------------

class VerySingularResult:
    """Closed-form finiteness decision for the trivial character.

    branch is "grading" when the graded shift alone decides (including
    every non-G2 type) and "kappa" when the G2 equal-grading branch is
    in play; in the latter case the decision follows the conjectured
    root pattern, conditional is True, and exact_decision carries the
    conjecture-free polynomial-vanishing verdict.
    """

    def __init__(self, label, finite, m, branch, conditional,
                 exact_decision=None, kappa=None):
        self.label = label
        self.finite = finite
        self.m = m
        self.branch = branch
        self.conditional = conditional
        self.exact_decision = finite if exact_decision is None else exact_decision
        self.kappa = kappa

    def as_dict(self):
        out = {
            "type": self.label,
            "very_singular": self.finite,
            "m": self.m,
            "branch": self.branch,
            "conditional": self.conditional,
        }
        if self.conditional:
            out["exact_decision"] = self.exact_decision
            out["kappa"] = str(self.kappa)
        return out

    def __repr__(self):
        tag = " (conditional)" if self.conditional else ""
        return (f"VerySingularResult({self.label}: finite={self.finite}, "
                f"m={self.m}{tag})")


def _hbar_value(label: str, k1, k2):
    rs = build_root_system(label)
    c1, c2 = rs.orbit_counts
    return Rat(rs.rank, 2) + k1 * c1 + k2 * c2


def very_singular(label: str, k1, k2) -> VerySingularResult:
    """Closed-form test for finite dimensionality of the simple quotient
    at the trivial character."""
    k1, k2 = rat(k1), rat(k2)
    hbar = _hbar_value(label, k1, k2)
    m0 = -hbar
    if not is_nonneg_int(m0):
        return VerySingularResult(label, False, None, "grading", False)
    m = int(m0)
    if label == "A1":
        return VerySingularResult(label, True, m, "grading", False)
    if label == "A2":
        fin = m % 3 != 2
        return VerySingularResult(label, fin, m if fin else None, "grading", False)
    if label == "B2":
        if m % 2 == 0:
            return VerySingularResult(label, True, m, "grading", False)
        t = -2 * k1
        fin = t.denominator == 1 and int(t) % 2 == 1 and 1 <= int(t) <= m
        return VerySingularResult(label, fin, m if fin else None, "grading", False)
    if label == "G2":
        n = m + 1
        if n % 3 != 0:
            return VerySingularResult(label, True, m, "grading", False)
        r = n // 3
        kappa = k2 - k1
        conj = (kappa.denominator == 1 and abs(int(kappa)) < r
                and (abs(int(kappa)) % 2) != (r % 2))
        exact = not kappa_factor_at_critical(r).eval2(Rat(0), kappa)
        return VerySingularResult(label, conj, m if conj else None, "kappa",
                                  True, exact_decision=exact, kappa=kappa)
    raise ValueError(f"unknown root system type {label!r}")


def finite_dim_table(label: str, k1, k2) -> dict:
    """Closed-form finiteness for every irreducible lowest weight: one-
    dimensional characters reduce to the trivial one at twisted
    couplings; higher-dimensional ones never give finite quotients."""
    rs = build_root_system(label)
    k1, k2 = rat(k1), rat(k2)
    out = {}
    for rep in irreps(rs):
        if rep.dim != 1:
            out[rep.label] = VerySingularResult(label, False, None,
                                                "reflection-trace", False)
            continue
        t1, t2 = twist_couplings(rs, rep, k1, k2)
        out[rep.label] = very_singular(label, t1, t2)
    return out

