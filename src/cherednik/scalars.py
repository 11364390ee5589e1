"""Exact scalar arithmetic: rationals, the field Q(s3) with s3 = sqrt(3),
and polynomials in the two coupling parameters k1, k2 over that field.

Everything here is immutable and hashable where it makes sense; no floats
ever enter the tower.
"""

from __future__ import annotations

try:  # gmpy2 is an optional accelerator; fractions.Fraction is the fallback
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat

from .errors import NonDivisibleError

RatType = type(Rat(0))
_INTLIKE = (int, RatType)


def rat(x) -> Rat:
    """Coerce an int, canonical "p/q" string, or rational to Rat."""
    if isinstance(x, RatType):
        return x
    if isinstance(x, int):
        return Rat(x)
    if isinstance(x, str):
        return Rat(x.strip())
    raise TypeError(f"cannot coerce {type(x).__name__} to a rational")


def is_nonneg_int(q) -> bool:
    """True when a rational is an integer >= 0."""
    return q.denominator == 1 and q >= 0


class QuadExt:
    """Element a + b*s3 of Q(sqrt(3)), with exact rational parts."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", rat(a))
        object.__setattr__(self, "b", rat(b))

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    @classmethod
    def coerce(cls, x) -> "QuadExt":
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, _INTLIKE):
            return cls(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to QuadExt")

    # -- ring/field operations -------------------------------------------
    def __add__(self, other):
        if isinstance(other, QuadExt):
            return QuadExt(self.a + other.a, self.b + other.b)
        if isinstance(other, _INTLIKE):
            return QuadExt(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b)

    def __sub__(self, other):
        if isinstance(other, QuadExt):
            return QuadExt(self.a - other.a, self.b - other.b)
        if isinstance(other, _INTLIKE):
            return QuadExt(self.a - other, self.b)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _INTLIKE):
            return QuadExt(other - self.a, -self.b)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QuadExt):
            a, b, c, d = self.a, self.b, other.a, other.b
            if not b:  # rational fast paths matter: B2/A1 data stay rational
                return QuadExt(a * c, a * d)
            if not d:
                return QuadExt(a * c, b * c)
            return QuadExt(a * c + 3 * b * d, a * d + b * c)
        if isinstance(other, _INTLIKE):
            return QuadExt(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def inv(self) -> "QuadExt":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("division by zero")
        return QuadExt(self.a / n, -self.b / n)

    def __truediv__(self, other):
        if isinstance(other, QuadExt):
            if not other.b:
                if not other.a:
                    raise ZeroDivisionError("division by zero")
                return QuadExt(self.a / other.a, self.b / other.a)
            return self * other.inv()
        if isinstance(other, _INTLIKE):
            if not other:
                raise ZeroDivisionError("division by zero")
            return QuadExt(self.a / other, self.b / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _INTLIKE):
            return QuadExt(other) / self
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        out = QuadExt(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure ---------------------------------------------------------
    def norm(self) -> Rat:
        """Field norm a^2 - 3*b^2; zero exactly on the zero element."""
        return self.a * self.a - 3 * self.b * self.b

    def conj(self) -> "QuadExt":
        return QuadExt(self.a, -self.b)

    def sign(self) -> int:
        """Exact sign under the real embedding s3 -> +sqrt(3)."""
        a, b = self.a, self.b
        if not b:
            return (a > 0) - (a < 0)
        if not a:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        n = a * a - 3 * b * b  # sign of a+b*s3 = sign(a) * sign(norm) here
        s = (n > 0) - (n < 0)
        return s if a > 0 else -s

    @property
    def is_rational(self) -> bool:
        return not self.b

    def rational(self) -> Rat:
        if self.b:
            raise ValueError(f"{self} is not rational")
        return self.a

    # -- comparisons/hashing ------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.a == other.a and self.b == other.b
        if isinstance(other, _INTLIKE):
            return not self.b and self.a == other
        return NotImplemented

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b))

    def __str__(self):
        a, b = self.a, self.b
        if not b:
            return str(a)
        if b == 1:
            bs = "s3"
        elif b == -1:
            bs = "-s3"
        else:
            bs = f"{b}*s3"
        if not a:
            return bs
        return f"{a}+{bs}" if bs[0] != "-" else f"{a}{bs}"

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r})"


QZERO = QuadExt(0)
QONE = QuadExt(1)
SQRT3 = QuadExt(0, 1)
HALF = QuadExt(Rat(1, 2))


def _glex_key(e):
    return (e[0] + e[1], e)


class ParamPoly:
    """Polynomial in two parameters with QuadExt coefficients.

    The two slots are anonymous; callers attach meaning per context
    (coupling constants k1/k2, or derived quantities such as the lowest
    weight scalar and the coupling difference).  Zero coefficients are
    never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for e, c in terms.items():
                c = QuadExt.coerce(c)
                if c:
                    t[(int(e[0]), int(e[1]))] = c
        object.__setattr__(self, "terms", t)

    def __setattr__(self, name, value):
        raise AttributeError("ParamPoly is immutable")

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
        if isinstance(x, ParamPoly):
            return x
        if isinstance(x, (QuadExt,) + _INTLIKE):
            return cls.const(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to ParamPoly")

    # -- ring operations -----------------------------------------------------
    def __add__(self, other):
        try:
            other = ParamPoly.coerce(other)
        except TypeError:
            return NotImplemented
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e)
            s = c if s is None else s + c
            if s:
                t[e] = s
            elif e in t:
                del t[e]
        out = ParamPoly.__new__(ParamPoly)
        object.__setattr__(out, "terms", t)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = ParamPoly.__new__(ParamPoly)
        object.__setattr__(out, "terms", {e: -c for e, c in self.terms.items()})
        return out

    def __sub__(self, other):
        try:
            other = ParamPoly.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        out = ParamPoly.__new__(ParamPoly)
        if isinstance(other, (QuadExt,) + _INTLIKE):
            # a scalar: no product of a field's nonzero elements is zero
            t = {e: c * other for e, c in self.terms.items()} if other else {}
            object.__setattr__(out, "terms", t)
            return out
        if not isinstance(other, ParamPoly):
            return NotImplemented
        t = {}
        for (a1, a2), c in self.terms.items():
            for (b1, b2), d in other.terms.items():
                e = (a1 + b1, a2 + b2)
                p = c * d
                s = t.get(e)
                s = p if s is None else s + p
                if s:
                    t[e] = s
                elif e in t:
                    del t[e]
        object.__setattr__(out, "terms", t)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a scalar (QuadExt or rational) only."""
        if isinstance(other, (QuadExt,) + _INTLIKE):
            other = QuadExt.coerce(other)
            if not other:
                raise ZeroDivisionError("division by zero")
            inv = other.inv()
            return ParamPoly({e: c * inv for e, c in self.terms.items()})
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = ParamPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- queries -------------------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        try:
            other = ParamPoly.coerce(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def leading(self):
        """(exponent, coefficient) that is largest in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_glex_key)
        return e, self.terms[e]

    def coefficient(self, e1: int, e2: int) -> QuadExt:
        return self.terms.get((e1, e2), QZERO)

    # -- evaluation / composition ---------------------------------------------
    def eval2(self, v1, v2) -> QuadExt:
        """Evaluate at scalar values of the two slots."""
        v1 = QuadExt.coerce(v1)
        v2 = QuadExt.coerce(v2)
        p1, p2 = {0: QONE}, {0: QONE}
        out = QZERO
        for (e1, e2), c in self.terms.items():
            if e1 not in p1:
                m = max(p1)
                for j in range(m + 1, e1 + 1):
                    p1[j] = p1[j - 1] * v1
            if e2 not in p2:
                m = max(p2)
                for j in range(m + 1, e2 + 1):
                    p2[j] = p2[j - 1] * v2
            out = out + c * p1[e1] * p2[e2]
        return out

    def subst(self, q1: "ParamPoly", q2: "ParamPoly") -> "ParamPoly":
        """Compose: substitute polynomials for the two slots."""
        out = ParamPoly()
        for (e1, e2), c in self.terms.items():
            out = out + ParamPoly.const(c) * q1 ** e1 * q2 ** e2
        return out

    def divexact(self, other: "ParamPoly") -> "ParamPoly":
        """Exact division; raises NonDivisibleError on a nonzero remainder."""
        other = ParamPoly.coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero")
        le, lc = other.leading()
        lc_inv = lc.inv()
        rem = self
        quot = {}
        while rem:
            e, c = rem.leading()
            d = (e[0] - le[0], e[1] - le[1])
            if d[0] < 0 or d[1] < 0:
                raise NonDivisibleError(f"{self} is not divisible by {other}")
            qc = c * lc_inv
            quot[d] = qc
            piece = ParamPoly({(d[0] + f[0], d[1] + f[1]): qc * fc
                               for f, fc in other.terms.items()})
            rem = rem - piece
        return ParamPoly(quot)

    # -- printing --------------------------------------------------------------
    def to_str(self, names=("k1", "k2")) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_glex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                n if p == 1 else f"{n}^{p}"
                for n, p in zip(names, e) if p
            )
            cs = str(c)
            if mono:
                if cs == "1":
                    term = mono
                elif cs == "-1":
                    term = f"-{mono}"
                else:
                    if ("+" in cs[1:]) or ("-" in cs[1:]):
                        cs = f"({cs})"
                    term = f"{cs}*{mono}"
            else:
                term = cs if not (("+" in cs[1:]) or ("-" in cs[1:])) else f"({cs})"
            parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"ParamPoly<{self}>"


PP_K1 = ParamPoly.gen(0)
PP_K2 = ParamPoly.gen(1)
