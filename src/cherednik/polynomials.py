"""Sparse exact polynomials: one class for both polynomial rings.

MPoly is a sparse multivariate polynomial, exponent tuple -> coefficient.
In the coordinate functions x1..xn (n = 1 or 2 here) its coefficients
come from any ring of the scalar tower: QuadExt for evaluated couplings,
ParamPoly for symbolic ones.  ParamPoly is the two-variable subclass for
the couplings k1, k2 over Q(sqrt(3)): immutable, hashable, with QuadExt
coefficients.  An MPoly in x may carry ParamPoly coefficients, never the
reverse, so ParamPoly arithmetic defers to MPoly for any other MPoly.
Each ring lifts an operand once, by its _lift: MPoly any value as a
constant, ParamPoly a scalar only (ParamPoly.coerce: that lift or TypeError).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add, sub

from .errors import NonDivisibleError
from .scalars import QONE, QZERO, QuadExt, _lift, power


def _glex_key(e):
    return (sum(e), e)


class MPoly:
    """Sparse polynomial, exponent tuple -> coefficient, zeros dropped.

    A value that is not a polynomial of the same type is a scalar: a
    constant in + and ==, a factor of every coefficient in *.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[tuple(e)] = c
        self.terms = t

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars)

    @classmethod
    def var(cls, i: int, nvars: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): QONE})

    @classmethod
    def from_linear(cls, coeffs) -> "MPoly":
        n = len(coeffs)
        t = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * n
                e[i] = 1
                t[tuple(e)] = c
        return cls(n, t)

    # -- ring operations -------------------------------------------------------
    def _like(self, terms) -> "MPoly":
        out = object.__new__(type(self))
        object.__setattr__(out, "nvars", self.nvars)
        object.__setattr__(out, "terms", terms)
        return out

    def _lift(self, other):
        """other in this ring: a polynomial of this type as it is, anything
        else as a constant; None where this ring cannot hold it."""
        if type(other) is type(self):
            return other
        return self._like({(0,) * self.nvars: other} if other else {})

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e)
            s = c if s is None else s + c
            if s:
                t[e] = s
            elif e in t:
                del t[e]
        return self._like(t)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MPoly):
            other = self._lift(other)
            if other is None:
                return NotImplemented
            t = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(map(add, e1, e2))
                    p = c1 * c2
                    s = t.get(e)
                    s = p if s is None else s + p
                    if s:
                        t[e] = s
                    elif e in t:
                        del t[e]
            return self._like(t)
        # a scalar: no product of a field's nonzero elements is zero
        if not other:
            return self._like({})
        return self._like({e: c * other for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero scalar."""
        return self * (QONE / other)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        return power(self, n, self._lift(QONE))

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        raise TypeError("MPoly is not hashable")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return MPoly, (self.nvars, self.terms)

    def divexact(self, other: "MPoly") -> "MPoly":
        """Exact quotient self / other; NonDivisibleError if inexact.

        The loop cancels the graded-lex leading monomial of the remainder
        at every step, so it terminates; a leading monomial that the
        divisor's leading monomial does not divide certifies
        non-divisibility.
        """
        if not other:
            raise ZeroDivisionError("division by zero")
        le, lc = other.leading()
        # a monic divisor keeps the coefficient ring: int quotients stay int
        lc_inv = None if lc == 1 else QONE / lc
        rest = [(f, c) for f, c in other.terms.items() if f != le]
        rem = dict(self.terms)
        quot = {}
        while rem:
            e = max(rem, key=_glex_key)
            c = rem.pop(e)
            d = tuple(map(sub, e, le))
            if min(d) < 0:
                raise NonDivisibleError(f"{self} is not divisible by {other}")
            qc = c if lc_inv is None else c * lc_inv
            quot[d] = qc
            for f, fc in rest:
                g = tuple(map(add, d, f))
                v = qc * fc
                s = rem.get(g)
                s = -v if s is None else s - v
                if s:
                    rem[g] = s
                elif g in rem:
                    del rem[g]
        return self._like(quot)

    def __divmod__(self, other):
        """Exact (quotient, 0) for linalg.bareiss_rank; other may be a scalar."""
        return self.divexact(self._lift(other)), self._like({})

    # -- calculus / structure -----------------------------------------------
    def diff(self, i: int) -> "MPoly":
        t = {}
        for e, c in self.terms.items():
            if e[i]:
                f = list(e)
                f[i] -= 1
                t[tuple(f)] = c * e[i]
        return self._like(t)

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self):
        """(exponent, coefficient) that is largest in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_glex_key)
        return e, self.terms[e]

    def to_str(self, names=None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = tuple(f"x{i+1}" for i in range(self.nvars))
        parts = []
        for e in sorted(self.terms, key=_glex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                n if p == 1 else f"{n}^{p}" for n, p in zip(names, e) if p
            )
            cs = str(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = f"({cs})"
            if mono:
                term = mono if cs == "1" else (f"-{mono}" if cs == "-1" else f"{cs}*{mono}")
            else:
                term = cs
            parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"{type(self).__name__}<{self}>"


def _param_lift(x):
    """x in the coupling ring: a ParamPoly as it is, a scalar as the
    constant of its scalar _lift, None for anything else."""
    if type(x) is ParamPoly:
        return x
    c = _lift(x)
    return None if c is None else ParamPoly._of({(0, 0): c} if c else {})


class ParamPoly(MPoly):
    """Polynomial in the two couplings k1, k2 with QuadExt coefficients.

    The two slots are anonymous; callers attach meaning per context
    (coupling constants k1/k2, or derived quantities such as the lowest
    weight scalar and the coupling difference).  Immutable and hashable.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        t = {}
        if terms:
            for e, c in terms.items():
                c = QuadExt.coerce(c)
                if c:
                    t[(int(e[0]), int(e[1]))] = c
        object.__setattr__(self, "nvars", 2)
        object.__setattr__(self, "terms", t)

    @classmethod
    def _of(cls, terms) -> "ParamPoly":
        """A ParamPoly on terms that are already canonical, (int, int) ->
        nonzero QuadExt with Rat parts, unchecked and not copied: for
        callers that build the terms themselves."""
        out = object.__new__(cls)
        object.__setattr__(out, "nvars", 2)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("ParamPoly is immutable")

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __reduce__(self):  # the slots refuse assignment: rebuild from the terms
        return ParamPoly, (self.terms,)

    # -- constructors -------------------------------------------------------
    @classmethod
    def const(cls, c) -> "ParamPoly":
        return cls({(0, 0): QuadExt.coerce(c)})

    @classmethod
    def gen(cls, i: int) -> "ParamPoly":
        if i not in (0, 1):
            raise ValueError("generator index must be 0 or 1")
        return cls({(1, 0) if i == 0 else (0, 1): QONE})

    @classmethod
    def coerce(cls, x) -> "ParamPoly":
        out = _param_lift(x)
        if out is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to ParamPoly")
        return out

    _lift = staticmethod(_param_lift)

    # -- queries / evaluation / composition -----------------------------------
    def coefficient(self, e1: int, e2: int) -> QuadExt:
        return self.terms.get((e1, e2), QZERO)

    def eval2(self, v1, v2):
        """Substitute v1, v2 for the two slots: at scalars the QuadExt
        value, with a ParamPoly among them the composition.  The powers are
        kept for the length of one call."""
        ring = ParamPoly if any(isinstance(v, ParamPoly) for v in (v1, v2)) else QuadExt
        vals = ring.coerce(v1), ring.coerce(v2)
        powers = [ring.coerce(1)], [ring.coerce(1)]  # [slot][e]: vals[slot] ** e
        acc = ring.coerce(0)
        for e, c in self.terms.items():
            for v, pw, ej in zip(vals, powers, e):
                while len(pw) <= ej:
                    pw.append(pw[-1] * v)
                c = pw[ej] * c
            acc = acc + c
        return acc

    def to_str(self, names=("k1", "k2")) -> str:
        return super().to_str(names)


PP_K1 = ParamPoly.gen(0)
PP_K2 = ParamPoly.gen(1)


def monomials(nvars: int, degree: int) -> list[tuple]:
    """Degree-d exponent tuples in descending lex order: (d,0),(d-1,1),..."""
    if nvars == 1:
        return [(degree,)] if degree >= 0 else []
    return [(degree - i, i) for i in range(degree + 1)]


@lru_cache(maxsize=None)
def _monomial_image(mat: tuple, e: tuple) -> MPoly:
    """x^e under the substitution of weyl_act, for mat as a tuple of row
    tuples: the product of the images of its powers of single variables,
    x_j^d going to the d-th power of column form j, expanded by the
    binomial theorem (one or two variables, as everywhere here).
    Memoized per (group element, exponent); MPoly values are never changed
    in place, so every caller may share one."""
    nv = len(e)
    support = [j for j in range(nv) if e[j]]
    if len(support) != 1:
        img = MPoly(nv, {(0,) * nv: QONE})
        for j in support:
            img = img * _monomial_image(mat, tuple(e[j] if i == j else 0 for i in range(nv)))
        return img
    j = support[0]
    d = e[j]
    pows = []  # pows[i][k] = mat[i][j] ** k
    for i in range(nv):
        pw = [QONE]
        for _ in range(d):
            pw.append(pw[-1] * mat[i][j])
        pows.append(pw)
    terms = {}
    for m in monomials(nv, d):
        c = QONE * comb(d, m[0])
        for pw, k in zip(pows, m):
            c = c * pw[k]
        terms[m] = c
    return MPoly(nv, terms)


def weyl_act(mat, p: MPoly) -> MPoly:
    """Substitute x_j -> sum_i mat[i][j] * x_i (the group action on P).

    mat is the matrix of the group element on the span of the x_i, its
    columns giving the images of the generators.  This is an algebra map,
    so each monomial goes to the product of powers of the column forms.
    """
    key = tuple(map(tuple, mat))
    t = {}
    for e, c in p.terms.items():
        for f, a in _monomial_image(key, e).terms.items():
            s = t.get(f)
            t[f] = a * c if s is None else s + a * c
    return MPoly(p.nvars, t)
