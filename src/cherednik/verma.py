"""Lowest-weight (Verma-type) standard modules, the contravariant form,
and the finite-dimensionality classification of their simple quotients.

A standard module is polynomials tensored with an irreducible of the
reflection group; Dunkl operators lower the polynomial degree.  The
contravariant form pairs degree-n layers against themselves by moving
coordinate multiplications to Dunkl operators through the metric
transfer.  The form's radical cuts out the simple quotient, so layer
ranks are the quotient's graded dimensions.

The lowerings, Gram layers and raised rows are integer matrices with one
rational scale each, combined from the integer parts of LoweringParts, so
ranks are fraction-free integer eliminations.  A symbolic layer (or row) is
read off a numeric module at k = (B, B^(n+1)) by Kronecker substitution, one
coefficient per base-B digit, with B = 2^s sized by a product of the
lowerings' column norms.  It is ranked at the rational point _CERT_POINT
(a certificate), over ParamPoly only if it falls short of full rank there.

Two independent finiteness tests are run and cross-checked: vanishing
of the raised lowest-weight vector in the simple quotient, and a direct
scan of the form ranks.  A disagreement raises InvariantViolation.  The
raised-vector test pushes the rows of the degree-0 layer up the chain of
quadratic lowerings, applied through the cached Dunkl lowerings without
forming their matrices; the chain commutes with the group and ends in the
layer chi, so it already kills every isotypic component other than chi
(Berest-Etingof-Ginzburg, IMRN 2003; Etingof-Ma, arXiv:1001.0432).
"""

from __future__ import annotations

from math import lcm

from .errors import InvariantViolation
from .polynomials import PP_K1, PP_K2, ParamPoly, monomials
from .scalars import QuadExt, Rat, is_nonneg_int, rat
from .linalg import (bareiss_rank, identity, integer_scale, is_symmetric,
                     mat_mul, vec_mat)
from .rootsystem import RootSystem, build_root_system
from .wrep import Irrep, get_irrep
from .dunkl import (b_direction, b_lowering_parts, f_apply, f_coefficients,
                    lowering_matrix, lowest_weight_scalar, sl2_calibration)

DEFAULT_SCAN_BOUND = 10
_CERT_POINT = (Rat(3, 7), Rat(-5, 11))  # where symbolic layers are ranked first


def _value(rows, scale):
    """The true matrix scale * rows."""
    return [[QuadExt(v * scale) for v in row] for row in rows]


def _unpack(v: int, s: int, stride: int, den: int) -> ParamPoly:
    """The ParamPoly sum of (c_ij / den) k1^i k2^j from v, the sum of
    c_ij B^(i + stride j) with B = 2^s, i < stride and |c_ij| < B / 2:
    the c_ij are the balanced base-B digits of v."""
    terms, e, half, mask = {}, 0, 1 << (s - 1), (1 << s) - 1
    while v:
        c = ((v + half) & mask) - half
        if c:
            terms[e % stride, e // stride] = Rat(c, den)
        v, e = (v - c) >> s, e + 1
    return ParamPoly(terms)


class VermaModule:
    """One standard module M(chi) at fixed couplings, with cached
    per-degree operator matrices and Gram matrices."""

    def __init__(self, rs: RootSystem, rep: Irrep, k1, k2):
        sl2_calibration(rs)
        self.rs = rs
        self.rep = rep
        self.symbolic = (k1, k2) == (PP_K1, PP_K2)
        if not self.symbolic:
            k1, k2 = rat(k1), rat(k2)
        self.k1, self.k2 = k1, k2
        self._low = {}
        self._gram = {}
        self._cert = None  # symbolic: the numeric module at _CERT_POINT

    # -- layers and cached operators -------------------------------------------
    def layer_monomials(self, n: int):
        return monomials(self.rs.rank, n)

    def lowering(self, j: int, n: int):
        """Dunkl operator along the metric transfer of x_j, degree n -> n-1."""
        return lowering_matrix(self.rs, self.rep, b_direction(self.rs, j), n,
                               self.k1, self.k2)

    def _lowerings(self, n: int):
        """The degree-n lowerings along every transfer as int matrices, and
        their shared scale (cached).  With q the common denominator of k1,
        k2 and den that of the parts, each lowering times q * den is
        combined from its integer parts."""
        hit = self._low.get(n)
        if hit is None:
            parts = [b_lowering_parts(self.rs, self.rep, j, n)
                     for j in range(self.rs.rank)]
            k1, k2 = self.k1, self.k2
            q = lcm(k1.denominator, k2.denominator)
            den = lcm(*(p.den for p in parts))
            c1 = k1.numerator * (q // k1.denominator)
            c2 = k2.numerator * (q // k2.denominator)
            lows = []
            for p in parts:
                f = den // p.den
                lows.append(p.ints(q * f, c1 * f, c2 * f))
            hit = self._low[n] = lows, Rat(1, q * den)
        return hit

    def _f_rows(self, top: int):
        """The dim-chi rows of F(2) F(4) ... F(top), the product of the
        quadratic lowerings from layer top down to layer 0, as integer rows
        and one scale: the layer-0 identity rows pushed up through the
        cached lowerings."""
        coef, cs = integer_scale(f_coefficients(self.rs))
        rows, scale = integer_scale(identity(self.rep.dim))
        for cur in range(2, top + 1, 2):
            (low_m, sm), (low_n, sn) = self._lowerings(cur - 1), self._lowerings(cur)
            rows, s = integer_scale(f_apply(coef, rows, low_m, low_n))
            scale *= s * cs * sm * sn
        return rows, scale

    def f_chain(self, top: int):
        """The dim-chi rows of F(2) F(4) ... F(top) (see _f_rows)."""
        return self._unpacked(top, True) if self.symbolic else _value(*self._f_rows(top))

    # -- the contravariant form -------------------------------------------------
    def _layer(self, n: int):
        """The degree-n Gram matrix as (matrix, scale), cached per degree.

        Built one degree at a time: the row of x_i * u equals the row of
        u in the previous Gram matrix composed with the Dunkl lowering
        along the transfer of x_i (the form moves multiplication to a
        Dunkl operator).  Both lowerings of a degree share one scale, so
        the rows of a layer do too.
        """
        if n < 0:
            raise ValueError(f"degree must be nonnegative, got {n}")
        d = self.rep.dim
        grams = self._gram
        if not grams:
            grams[0] = integer_scale(identity(d))
        for deg in range(len(grams), n + 1):
            prev, scale = grams[deg - 1]
            lows, s = self._lowerings(deg)
            prod1 = mat_mul(prev, lows[0])
            rows = []
            for m in self.layer_monomials(deg):
                if m[0] > 0:
                    pidx = m[1] if self.rs.rank == 2 else 0
                    rows.extend(prod1[pidx * d:(pidx + 1) * d])
                else:
                    rows.extend(vec_mat(r, lows[1]) for r in prev[(deg - 1) * d:])
            if not is_symmetric(rows):
                raise InvariantViolation(
                    f"{self.rs.label}/{self.rep.label}: form is not "
                    f"symmetric at degree {deg}")
            rows, c = integer_scale(rows)
            grams[deg] = rows, scale * s * c
        return grams[n]

    def gram(self, n: int):
        """Gram matrix of the contravariant form on the degree-n layer."""
        return self._unpacked(n, False) if self.symbolic else _value(*self._layer(n))

    def _unpacked(self, n: int, chain: bool):
        """The degree-n layer, or with chain the rows of F(2) ... F(n), over
        ParamPoly, by Kronecker substitution: read off the numeric module at
        k = (B, B^(n+1)), B = 2^s.  Each entry is a polynomial of total
        degree <= n, and D times it, D the denominator of the product u of
        the coupling-free scales (parts and F coefficients), has integer
        coefficients c_ij: the balanced base-B digits of its packed value
        once B > 2 max |c_ij|.  Every row is a row one degree (or F step)
        down times an integer lowering (or F), and coefficient 1-norms are
        submultiplicative, so max |c_ij| is at most the numerator of u times
        the product of the lowerings' largest column norms (and of the
        1-norm of the integer F coefficients per step)."""
        steps = max(n, 0) // 2 if chain else 0
        coef, unit = integer_scale(f_coefficients(self.rs))
        unit **= steps
        bound = sum(abs(v) for row in coef for v in row) ** steps
        for d in range(1, 2 * steps + 1 if chain else n + 1):
            parts = [b_lowering_parts(self.rs, self.rep, j, d)
                     for j in range(self.rs.rank)]
            den = lcm(*(p.den for p in parts))
            unit /= den
            bound *= max(p.column_norm() * (den // p.den) for p in parts)
        den = unit.denominator
        s, stride = (2 * unit.numerator * bound).bit_length(), max(n, 0) + 1
        packed = VermaModule(self.rs, self.rep, 1 << s, 1 << s * stride)
        rows, scale = packed._f_rows(n) if chain else packed._layer(n)
        mult = den * scale
        if mult.denominator != 1:
            raise InvariantViolation(f"{self.rs.label}/{self.rep.label}: packed "
                                     f"degree-{n} values times {den} are not integers")
        return [[_unpack(v * mult.numerator, s, stride, den) for v in row]
                for row in rows]

    def gram_direct(self, n: int):
        """The same Gram matrix assembled monomial by monomial from
        composed Dunkl operators (slow; cross-check path)."""
        d = self.rep.dim
        basis = self.layer_monomials(n)
        rows = []
        for mono in basis:
            comp = None
            cur = n
            for j in range(self.rs.rank):
                for _ in range(mono[j]):
                    low = self.lowering(j, cur)
                    comp = low if comp is None else mat_mul(low, comp)
                    cur -= 1
            rows.extend(identity(d) if comp is None else comp)
        return rows

    def layer_rank(self, n: int) -> int:
        if not self.symbolic:
            return bareiss_rank(self._layer(n)[0])
        # minors are polynomials: full rank at a point proves it
        self._cert = self._cert or VermaModule(self.rs, self.rep, *_CERT_POINT)
        cert = self._cert._layer(n)[0]
        return len(cert) if bareiss_rank(cert) == len(cert) else bareiss_rank(self.gram(n))

    def graded_dims(self, max_degree: int):
        """Ranks of the form per degree = graded dimensions of the simple
        quotient."""
        return [self.layer_rank(n) for n in range(max_degree + 1)]

    # -- finiteness tests --------------------------------------------------------
    def epower_criterion(self):
        """Test whether the raised lowest-weight vector dies in the
        simple quotient.

        The lowest-weight scalar must be a nonpositive integer -m; then
        the (m+1)-st power of the raising quadric applied to the lowest
        weight space is in the radical iff the (m+1)-st power of the
        quadratic lowering, from layer 2m+2 to layer 0, vanishes on its
        chi-isotypic part.  That power commutes with the group and lands
        in layer 0, a copy of chi, so it is zero on every other isotypic
        component: the test is that its dim-chi rows, pushed up the
        chain from layer 0, are all zero.
        """
        if self.symbolic:
            raise ValueError("the raised-vector test needs numeric couplings")
        b = lowest_weight_scalar(self.rs, self.rep, self.k1, self.k2)
        m0 = -b
        if not is_nonneg_int(m0):
            return EPowerResult(False, None, False)
        m = int(m0)
        rows = self.f_chain(2 * m + 2)
        return EPowerResult(True, m, not any(v for row in rows for v in row))

    def classify(self, scan_bound: int | None = None):
        """Finite-dimensionality of the simple quotient, by both tests,
        cross-checked."""
        ep = self.epower_criterion()
        if scan_bound is None:
            bound = 2 * ep.m + 4 if ep.natural else DEFAULT_SCAN_BOUND
        else:
            bound = scan_bound
            if ep.natural:
                bound = max(bound, 2 * ep.m + 2)
        dims = []
        zero_at = None
        for n in range(bound + 1):
            r = self.layer_rank(n)
            if r == 0:
                zero_at = n
                break
            dims.append(r)
        gram_finite = zero_at is not None
        if gram_finite != ep.finite:
            raise InvariantViolation(
                f"{self.rs.label}/{self.rep.label} at k=({self.k1},{self.k2}): "
                f"the two finiteness tests disagree "
                f"(raised-vector: {ep.finite}, form scan: {gram_finite})")
        if gram_finite:
            top = zero_at - 1
            d = self.rep.dim
            ok = (ep.m is not None and top == 2 * ep.m
                  and dims[0] == d and dims[top] == d
                  and all(dims[i] == dims[top - i] for i in range(top + 1)))
            if not ok:
                raise InvariantViolation(
                    f"{self.rs.label}/{self.rep.label} at k=({self.k1},{self.k2}): "
                    f"graded dimensions {dims} break the finite-quotient shape")
            return ClassifyResult(self.rs.label, self.rep.label, self.k1, self.k2,
                                  True, ep.m, tuple(dims), sum(dims))
        return ClassifyResult(self.rs.label, self.rep.label, self.k1, self.k2,
                              False, None, tuple(dims), None)


class EPowerResult:
    """Outcome of the raised-vector finiteness test."""

    def __init__(self, natural: bool, m, finite: bool):
        self.natural = natural
        self.m = m
        self.finite = finite

    def __repr__(self):
        return f"EPowerResult(natural={self.natural}, m={self.m}, finite={self.finite})"


class ClassifyResult:
    """Classification of one simple quotient at fixed couplings."""

    def __init__(self, label, chi, k1, k2, finite, m, dims, total_dim):
        self.label = label
        self.chi = chi
        self.k1 = k1
        self.k2 = k2
        self.finite = finite
        self.m = m
        self.dims = dims
        self.total_dim = total_dim

    def as_dict(self):
        return {
            "type": self.label,
            "chi": self.chi,
            "k1": str(self.k1),
            "k2": str(self.k2),
            "finite": self.finite,
            "m": self.m,
            "graded_dims": list(self.dims) if self.finite else None,
            "dim": self.total_dim,
        }

    def __repr__(self):
        state = f"dim {self.total_dim}" if self.finite else "infinite"
        return (f"ClassifyResult({self.label}/{self.chi} at "
                f"k=({self.k1},{self.k2}): {state})")


def standard_module(label: str, chi: str, k1, k2) -> VermaModule:
    rs = build_root_system(label)
    return VermaModule(rs, get_irrep(rs, chi), k1, k2)


def classify(label: str, chi: str, k1, k2, scan_bound=None) -> ClassifyResult:
    return standard_module(label, chi, k1, k2).classify(scan_bound)
