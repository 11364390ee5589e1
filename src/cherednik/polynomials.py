"""Polynomials on the reflection representation.

MPoly is a sparse multivariate polynomial in the coordinate functions
x1..xn (n = 1 or 2 here), with coefficients in any ring of the scalar
tower (QuadExt for evaluated couplings, ParamPoly for symbolic ones).
Coefficient rings interoperate through the coercion protocol, so a
polynomial may safely acquire ParamPoly coefficients when multiplied by
a symbolic scalar.
"""

from __future__ import annotations

from math import comb

from .errors import NonDivisibleError
from .scalars import QONE, QuadExt


def _glex_key(e):
    return (sum(e), e)


class MPoly:
    """Sparse polynomial, exponent tuple -> coefficient, zeros dropped."""

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
    def const(cls, nvars: int, c) -> "MPoly":
        return cls(nvars, {(0,) * nvars: c})

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
        out = MPoly.__new__(MPoly)
        out.nvars = self.nvars
        out.terms = terms
        return out

    def __add__(self, other):
        if not isinstance(other, MPoly):
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

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e)
            s = -c if s is None else s - c
            if s:
                t[e] = s
            elif e in t:
                del t[e]
        return self._like(t)

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MPoly):
            t = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    p = c1 * c2
                    s = t.get(e)
                    s = p if s is None else s + p
                    if s:
                        t[e] = s
                    elif e in t:
                        del t[e]
            return self._like(t)
        # scalar
        if not other:
            return self._like({})
        return self._like({e: c * other for e, c in self.terms.items()})

    def __rmul__(self, other):
        if not other:
            return self._like({})
        return self._like({e: other * c for e, c in self.terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = MPoly.const(self.nvars, QONE)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(other.terms[e] == c for e, c in self.terms.items())

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        raise TypeError("MPoly is not hashable")

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
        return f"MPoly<{self}>"


def monomials(nvars: int, degree: int) -> list[tuple]:
    """Degree-d exponent tuples in descending lex order: (d,0),(d-1,1),..."""
    if nvars == 1:
        return [(degree,)]
    return [(degree - i, i) for i in range(degree + 1)]


def _linform_pow(col, n: int):
    """Expansion of (col[0]*x1 + col[1]*x2)^n  (or col[0]*x1 for 1 var)."""
    if len(col) == 1:
        return {(n,): col[0] ** n}
    a, b = col
    out = {}
    if not b:
        out[(n, 0)] = a ** n
        return out
    if not a:
        out[(0, n)] = b ** n
        return out
    ai = QONE
    bpow = [QONE]
    for _ in range(n):
        bpow.append(bpow[-1] * b)
    for i in range(n + 1):
        out[(i, n - i)] = comb(n, i) * ai * bpow[n - i]
        ai = ai * a
    return out


def weyl_act(mat, p: MPoly) -> MPoly:
    """Substitute x_j -> sum_i mat[i][j] * x_i (the group action on P).

    mat is the matrix of the group element on the span of the x_i, its
    columns giving the images of the generators.  This is an algebra map,
    so it is computed monomial by monomial from powers of linear forms.
    """
    nv = p.nvars
    cols = [tuple(mat[i][j] for i in range(nv)) for j in range(nv)]
    out = {}
    for e, c in p.terms.items():
        img = {(0,) * nv: QONE}
        for j, ej in enumerate(e):
            if not ej:
                continue
            pw = _linform_pow(cols[j], ej)
            nxt = {}
            for e1, c1 in img.items():
                for e2, c2 in pw.items():
                    f = tuple(a + b for a, b in zip(e1, e2))
                    pr = c1 * c2
                    s = nxt.get(f)
                    s = pr if s is None else s + pr
                    if s:
                        nxt[f] = s
                    elif f in nxt:
                        del nxt[f]
            img = nxt
        for f, q in img.items():
            s = out.get(f)
            v = c * q
            s = v if s is None else s + v
            if s:
                out[f] = s
            elif f in out:
                del out[f]
    return MPoly(nv, out)


def div_linear(p: MPoly, lin) -> MPoly:
    """Exact quotient p / (lin[0]*x1 + ... ); NonDivisibleError if inexact.

    The loop cancels the graded-lex leading monomial at every step, so it
    terminates; a leading monomial without the pivot variable certifies
    non-divisibility.
    """
    nv = p.nvars
    pivot = None
    for i, c in enumerate(lin):
        if c:
            pivot = i
            break
    if pivot is None:
        raise ZeroDivisionError("division by zero")
    pc = lin[pivot]
    pc_inv = pc.inv() if hasattr(pc, "inv") else 1 / pc
    rest = [(i, c) for i, c in enumerate(lin) if c and i != pivot]
    rem = dict(p.terms)
    quot = {}
    while rem:
        e = max(rem, key=_glex_key)
        c = rem.pop(e)
        if not e[pivot]:
            raise NonDivisibleError("polynomial is not divisible by the linear form")
        d = list(e)
        d[pivot] -= 1
        d = tuple(d)
        qc = c * pc_inv
        quot[d] = qc
        for i, lc in rest:
            f = list(d)
            f[i] += 1
            f = tuple(f)
            s = rem.get(f)
            v = qc * lc
            s = -v if s is None else s - v
            if s:
                rem[f] = s
            elif f in rem:
                del rem[f]
    return MPoly(nv, quot)


def reynolds(elements, p: MPoly) -> MPoly:
    """Group average of p over a list of element matrices (no 1/|G| factor)."""
    out = MPoly.zero(p.nvars)
    for m in elements:
        out = out + weyl_act(m, p)
    return out


def clear_content(p: MPoly) -> MPoly:
    """Divide by the gcd of all rational components; leading coeff made positive.

    Assumes QuadExt coefficients.  Used to fix a canonical scale for
    invariant generators.
    """
    from math import gcd

    if not p.terms:
        return p
    nums, dens = [], []
    for c in p.terms.values():
        q = QuadExt.coerce(c)
        for part in (q.a, q.b):
            if part:
                nums.append(abs(int(part.numerator)))
                dens.append(int(part.denominator))
    g = 0
    for n in nums:
        g = gcd(g, n)
    l = 1
    for d in dens:
        l = l * d // gcd(l, d)
    from .scalars import Rat

    scale = QuadExt(Rat(l, g if g else 1))
    q = p * scale
    _, lead = q.leading()
    if QuadExt.coerce(lead).sign() < 0:
        q = -q
    return q
