"""The two theorems of `rank2`'s docstring, checked as polynomial identities.

(a) At hbar = -(3r - 1) the kappa recurrence is the leading-minor
recurrence of det(kappa I - T_r), T_r the Sylvester-Kac matrix, whose
eigenvalues are r - 1, r - 3, ..., -(r - 1).  So the critical kappa-factor
is the product of (kappa - j) over those j, and the G2 parity rule of
`very_singular` is its root set.
(b) The product formulas C(n, r) of `f_power_image_closed` satisfy the
recursions of `f_power_image` for every n, so the two routes agree
everywhere (induction from C(0, 0) = 1).  Each entry is its k-part (1 on
A2, prod_{i<=r} (2 k1 + 2i - 1) on B2, the kappa-factor K(r) on G2) times
a polynomial in hbar, and the entries one step touches are proportional to
polynomials read off the products.  Divided by C(n, r), each step is then a
polynomial identity in n, r, hbar, k1 or kappa and the symbols K, K1, K2
for the k-parts of index r, r - 1, r - 2; on B2 and G2 it holds exactly
when the k-parts' own recurrence does, on G2 the kappa recurrence.  At
r = 0 (and r = 1 on G2) an entry of negative index is zero, and so is the
step's coefficient of it.

The recursion coefficients are written once here, as functions of ints or
of polynomials, and checked to be the package's: `rank2._step` probed on
unit rows for n < 30 and `kappa_factor` for p <= 30.  The k-parts and the
proportionalities are checked on `f_power_image_closed` as exact ParamPoly
products for n <= 30; the identities themselves hold for every n and r.
What stays unproven is the recursion against the definition of the
tables, which the direct route checks for n <= 5 (acceptance item 10),
and for the r = 0 entries, which use no normalization, also for n <= 6
(`test_rank2::test_direct_route_unnormalized_entries_match_recursion`).
"""

import math

from cherednik import rank2
from cherednik.polynomials import MPoly, ParamPoly, PP_K1, PP_K2
from cherednik.rank2 import (f_power_image_closed, kappa_factor,
                             kappa_factor_at_critical, kappa_factor_conjectured,
                             very_singular)
from cherednik.scalars import Rat

TOP = 30
NAMES = ("n", "r", "hb", "k", "K", "K1", "K2", "p", "x", "a", "b")
n_, r_, hb_, k_, K_, K1_, K2_, p_, x_, a_, b_ = (MPoly.var(i, len(NAMES))
                                                 for i in range(len(NAMES)))
# the table variables as ParamPoly slots: (hbar, kappa) on A2 and G2, (k1, hbar) on B2
SLOTS = {"A2": (PP_K1, PP_K2), "B2": (PP_K2, PP_K1), "G2": (PP_K1, PP_K2)}


def max_r(label, n):
    return n // 2 if label == "B2" else n // 3


def step(label, n, r, hb, k):
    """The coefficients of T(n, r), T(n, r - 1), T(n, r - 2) in T(n + 1, r)."""
    if label == "A2":
        return -(n + 1 - 3 * r) * (hb + n + 3 * r), r * (2 * r - 1), 0
    if label == "B2":
        return -(n + 1 - 2 * r) * (hb + n + 2 * r), -2 * r * (2 * k + 2 * r - 1), 0
    return -(n + 1 - 3 * r) * (hb + n + 3 * r), k * r, -r * (r - 1) * Rat(1, 9)


def kappa_step(p, hb, kappa):
    """The coefficients of K(p - 1) and K(p - 2) in K(p)."""
    return kappa, (p - 1) * (hb + 3 * p - 4) * Rat(1, 3)


def k_defect(label, r, hb, k, K, K1, K2):
    """K minus what the recurrence of the k-parts makes of K1 and K2.  The
    k-part of C(n, r) is its factor in k1 on B2, prod_{i<=r} (2 k1 + 2i - 1),
    and in kappa on G2, the kappa-factor K(r)."""
    if label == "B2":
        return K - (2 * k + 2 * r - 1) * K1
    c1, c2 = kappa_step(r, hb, k)
    return K - c1 * K1 - c2 * K2


def entries(label, n, r, hb, k, K, K1, K2):
    """Polynomials proportional to C(n + 1, r), C(n, r), C(n, r - 1),
    C(n, r - 2), None where the step does not read the entry, with K, K1,
    K2 the k-parts of index r, r - 1, r - 2: at a generic step (n >= 3r, 2r
    on B2) and at the boundary n + 1 = 3r (2r on B2), where C(n, r) is
    outside the triangle."""
    up = -(n + 1) * (hb + n)  # C(n + 1, r) / C(n, r) once no skipped factor is left
    if label == "A2":
        return ((up * (2 * r - 1), 2 * r - 1, -3 * (hb + 3 * r - 1), None),
                (r * (2 * r - 1), 0, 1, None))
    if label == "B2":
        return (up * K, K, (hb + 2 * r - 1) * K1, None), (-2 * r * K, 0, K1, None)
    return ((up * K, K, -3 * (hb + 3 * r - 1) * K1, 9 * (hb + 3 * r - 1) * (hb + 3 * r - 4) * K2),
            (r * K, 0, K1, -3 * (hb + 3 * r - 4) * K2))


def boundary_n(label, r):
    return 2 * r - 1 if label == "B2" else 3 * r - 1


def test_recursion_coefficients_are_the_packages():
    # _step is linear in the row: on the unit row of T(n, j) it returns the
    # coefficients of T(n, j) in row n + 1 (times 9 on G2)
    for label in ("A2", "B2", "G2"):
        hb, k = SLOTS[label]
        for n in range(TOP):
            for j in range(max_r(label, n) + 1):
                unit = [([1],) if i == j else () for i in range(max_r(label, n) + 1)]
                out = rank2._step(label, unit, n)
                assert len(out) == max_r(label, n + 1) + 1
                for r, row in enumerate(out):
                    d = r - j
                    want = step(label, n, r, hb, k)[d] if 0 <= d <= 2 else 0
                    got = rank2._param(row, 9 if label == "G2" else 1, label == "B2")
                    assert got == want, (label, n, j, r)
    hb, kappa = SLOTS["G2"]
    ks = [kappa_factor(p) for p in range(TOP + 1)]
    assert (ks[0], ks[1]) == (1, kappa)
    for p in range(2, TOP + 1):
        c1, c2 = kappa_step(p, hb, kappa)
        assert ks[p] == c1 * ks[p - 1] + c2 * ks[p - 2], p


def test_proportionalities_hold_on_the_closed_route():
    for label in ("A2", "B2", "G2"):
        hb, k = SLOTS[label]
        top = max_r(label, TOP)
        # each column in increasing n, so that _product extends the one it holds
        closed = {(n, r): f_power_image_closed(label, n, r)
                  for r in range(top + 1) for n in range(TOP + 1)}
        assert closed[0, 0] == 1 == rank2.f_power_image(label, 0, 0)
        if label != "A2":  # C(n, r) over its k-part is a polynomial in hbar alone
            parts = [kappa_factor(r) for r in range(top + 1)] if label == "G2" else \
                [math.prod((2 * k + 2 * i - 1 for i in range(1, r + 1)), start=k ** 0)
                 for r in range(top + 1)]
            # the k-part has degree r in k and a constant leading coefficient, so
            # the quotient is the coefficient of k^r over it
            kslot = 0 if label == "B2" else 1
            for (n, r), c in closed.items():
                lead = parts[r].coefficient(*((r, 0) if kslot == 0 else (0, r)))
                u = ParamPoly({(e[0], 0) if kslot else (0, e[1]): v / lead
                               for e, v in c.terms.items() if e[kslot] == r})
                assert c == parts[r] * u, (label, n, r)
                closed[n, r] = u
        for n in range(TOP):
            for r in range(max_r(label, n + 1) + 1):
                generic, boundary = entries(label, n, r, hb, k, 1, 1, 1)
                got = [closed[n + 1, r]] + [closed[n, r - d] if r >= d else None
                                            for d in range(3)]
                if r <= max_r(label, n):
                    want, base = generic, 1
                else:
                    assert n == boundary_n(label, r)
                    want, base = boundary, 2
                assert got[base]
                for i, (c, v) in enumerate(zip(got, want)):
                    if c is not None and v is not None:
                        assert c * want[base] == got[base] * v, (label, n, r, i)


def test_each_step_is_a_polynomial_identity():
    # the defect of each step: zero on A2, and on B2 and G2 a multiple of the
    # k-parts' own defect, so the step holds exactly when their recurrence does
    scales = {("B2", 0): -2 * r_ * (hb_ + 2 * r_ - 1), ("B2", 1): -2 * r_,
              ("G2", 0): -3 * r_ * (hb_ + 3 * r_ - 1), ("G2", 1): r_}
    for label in ("A2", "B2", "G2"):
        for n, case in ((n_, 0), (boundary_n(label, r_), 1)):
            vec = entries(label, n, r_, hb_, k_, K_, K1_, K2_)[case]
            coef = step(label, n, r_, hb_, k_)
            rhs = sum(c * v for c, v in zip(coef, vec[1:]) if v is not None)
            assert all(c == 0 for c, v in zip(coef, vec[1:]) if v is None)
            defect = vec[0] - rhs
            if label == "A2":
                assert defect == 0, case
            else:
                assert defect == scales[label, case] * k_defect(label, r_, hb_, k_, K_, K1_, K2_), \
                    (label, case)


def operator(s, f):
    """The Sylvester-Kac operator of size s on a polynomial f in x: (s-1) x f - (x^2 - 1) f'."""
    x = MPoly.var(0, 1)
    return (s - 1) * x * f - (x * x - 1) * f.diff(0)


def test_critical_kappa_factors_are_sylvester_kac_determinants():
    # the recurrence at hbar = -(3r - 1), an identity in (p, r)
    c1, c2 = kappa_step(p_, -(3 * r_ - 1), k_)
    assert c1 == k_ and c2 == -(p_ - 1) * (r_ + 1 - p_)
    # (1+x)^a (1-x)^b has (1 - x^2) f'/f = a (1 - x) - b (1 + x), so the
    # operator of size a + b + 1 sends it to (a - b) times itself
    assert (a_ + b_) * x_ + a_ * (1 - x_) - b_ * (1 + x_) == a_ - b_
    x = MPoly.var(0, 1)
    kappa = PP_K2
    for s in range(1, 13):
        # on 1, x, ..., x^(s-1): tridiagonal, zero diagonal, pair products j (s - j)
        cols = [operator(s, x ** i).terms for i in range(s)]
        mat = [[col.get((j,), 0) for col in cols] for j in range(s)]
        assert all(mat[i][j] == 0 for i in range(s) for j in range(s) if abs(i - j) != 1)
        assert all(mat[j][j - 1] * mat[j - 1][j] == j * (s - j) for j in range(1, s))
        assert all(e < s for col in cols for (e,) in col)
        # the leading minors of det(kappa I - T_s) run the critical recurrence
        minors = [1, kappa]
        for p in range(2, s + 1):
            minors.append(kappa * minors[-1] - mat[p - 1][p - 2] * mat[p - 2][p - 1] * minors[-2])
        assert minors[s] == kappa_factor_at_critical(s)
        # the s eigenvectors, eigenvalues distinct: the determinant is their product
        roots = [2 * a - (s - 1) for a in range(s)]
        for a, root in zip(range(s), roots):
            f = (1 + x) ** a * (1 - x) ** (s - 1 - a)
            assert operator(s, f) == root * f
        assert math.prod((kappa - j for j in roots), start=PP_K2 ** 0) \
            == kappa_factor_conjectured(s) == kappa_factor_at_critical(s)
        # very_singular's parity rule is that root set; the lowest weight is
        # -(3s - 1) where k1 + k2 = -s
        for kap in [Rat(j) for j in range(-s - 2, s + 3)] + [Rat(1, 2), Rat(-s, 3)]:
            vs = very_singular("G2", (-s - kap) / 2, (-s + kap) / 2)
            assert vs.branch == "kappa" and vs.finite == (kap in roots), (s, kap)
            assert vs.m == (3 * s - 1 if vs.finite else None)
