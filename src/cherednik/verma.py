"""Lowest-weight (Verma-type) standard modules, the contravariant form,
and the finite-dimensionality classification of their simple quotients.

A standard module is polynomials tensored with an irreducible of the
reflection group; Dunkl operators lower the polynomial degree.  The
contravariant form pairs degree-n layers against themselves by moving
coordinate multiplications to Dunkl operators through the metric
transfer.  The form's radical cuts out the simple quotient, so layer
ranks are the quotient's graded dimensions.

At numeric couplings the lowerings of a degree, each Gram layer and the
raised rows are integer matrices with one rational scale each (the
lowerings are combined in integer arithmetic from the integer parts of
dunkl.LoweringParts), so ranks are fraction-free integer eliminations.  A
symbolic layer is ranked at the rational point _CERT_POINT first (a rank
certificate), then, if it falls short of full rank there, over ParamPoly.

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
from .polynomials import ParamPoly, monomials
from .scalars import QuadExt, Rat, is_nonneg_int, rat
from .linalg import (bareiss_rank, identity, integer_scale, is_symmetric,
                     mat_mul, vec_mat)
from .rootsystem import RootSystem, build_root_system
from .wrep import Irrep, get_irrep
from .dunkl import (b_lowering_matrix, b_lowering_parts, f_apply,
                    f_coefficients, lowest_weight_scalar, sl2_calibration)

DEFAULT_SCAN_BOUND = 10
_CERT_POINT = (Rat(3, 7), Rat(-5, 11))  # where symbolic layers are ranked first


class VermaModule:
    """One standard module M(chi) at fixed couplings, with cached
    per-degree operator matrices and Gram matrices."""

    def __init__(self, rs: RootSystem, rep: Irrep, k1, k2):
        sl2_calibration(rs)
        self.rs = rs
        self.rep = rep
        self.symbolic = isinstance(k1, ParamPoly) or isinstance(k2, ParamPoly)
        if not self.symbolic:
            k1, k2 = rat(k1), rat(k2)
        self.k1, self.k2 = k1, k2
        self._low = {}
        self._gram = {}

    # -- layers and cached operators -------------------------------------------
    def layer_monomials(self, n: int):
        return monomials(self.rs.rank, n)

    def _scaled(self, mat):
        """(matrix, scale) with mat == scale * matrix: an integer matrix
        without common content at numeric couplings, mat and 1 at symbolic."""
        return (mat, 1) if self.symbolic else integer_scale(mat)

    def _value(self, mat, scale):
        """The true matrix scale * mat."""
        if self.symbolic:
            return mat
        return [[QuadExt(v * scale) for v in row] for row in mat]

    def lowering(self, j: int, n: int):
        """Dunkl operator along the metric transfer of x_j, degree n -> n-1."""
        return b_lowering_matrix(self.rs, self.rep, j, n, self.k1, self.k2)

    def _lowerings(self, n: int):
        """The degree-n lowerings along every transfer, and their shared
        scale (cached).  At numeric couplings, with q the common
        denominator of k1, k2 and den that of the parts, each lowering
        times q * den is combined from its integer parts as an int matrix."""
        hit = self._low.get(n)
        if hit is None:
            parts = [b_lowering_parts(self.rs, self.rep, j, n)
                     for j in range(self.rs.rank)]
            if self.symbolic:
                hit = [p.at(self.k1, self.k2) for p in parts], 1
            else:
                k1, k2 = self.k1, self.k2
                q = lcm(k1.denominator, k2.denominator)
                den = lcm(*(p.den for p in parts))
                c1 = k1.numerator * (q // k1.denominator)
                c2 = k2.numerator * (q // k2.denominator)
                lows = []
                for p in parts:
                    f = den // p.den
                    lows.append(p.ints(q * f, c1 * f, c2 * f))
                hit = lows, Rat(1, q * den)
            self._low[n] = hit
        return hit

    def f_chain(self, top: int):
        """The dim-chi rows of F(2) F(4) ... F(top), the product of the
        quadratic lowerings from layer top down to layer 0: the layer-0
        identity rows pushed up through the cached lowerings, as integer
        rows with one scale at numeric couplings."""
        coef, cs = self._scaled(f_coefficients(self.rs))
        rows, scale = self._scaled(identity(self.rep.dim))
        for cur in range(2, top + 1, 2):
            (low_m, sm), (low_n, sn) = self._lowerings(cur - 1), self._lowerings(cur)
            rows, s = self._scaled(f_apply(coef, rows, low_m, low_n))
            scale *= s * cs * sm * sn
        return self._value(rows, scale)

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
            grams[0] = self._scaled(identity(d))
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
            rows, c = self._scaled(rows)
            grams[deg] = rows, scale * s * c
        return grams[n]

    def gram(self, n: int):
        """Gram matrix of the contravariant form on the degree-n layer."""
        return self._value(*self._layer(n))

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
        mat = self._layer(n)[0]
        if self.symbolic:  # minors are polynomials: full rank at a point proves it
            at = [[ParamPoly.coerce(v).eval2(*_CERT_POINT) for v in row] for row in mat]
            if bareiss_rank(integer_scale(at)[0]) == len(mat):
                return len(mat)
        return bareiss_rank(mat)

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
