"""Exact scalar arithmetic: rationals and the field Q(s3) with s3 = sqrt(3).

Everything here is immutable and hashable; no floats ever enter the
tower.  QuadExt lifts every operand once, by _lift: an int or rational
becomes the rational QuadExt, and anything else gets NotImplemented (a
polynomial then acts, a float or str raises TypeError).  Polynomials over
this field, in the coordinates or the couplings k1, k2, live in polynomials.
"""

from __future__ import annotations

try:  # gmpy2 is an optional accelerator; fractions.Fraction is the fallback
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat

RatType = type(Rat(0))
_RZERO = Rat(0)  # the default part: one zero, not a new one per QuadExt


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


def power(x, n: int, one):
    """x ** n for an integer n >= 0 by square-and-multiply, one the unit of
    x's ring."""
    out = one
    while n:
        if n & 1:
            out = out * x
        x = x * x
        n >>= 1
    return out


class QuadExt:
    """Element a + b*s3 of Q(sqrt(3)), with exact rational parts."""

    __slots__ = ("a", "b")

    def __init__(self, a=_RZERO, b=_RZERO):
        object.__setattr__(self, "a", rat(a))
        object.__setattr__(self, "b", rat(b))

    @classmethod
    def _of(cls, a, b=_RZERO) -> "QuadExt":
        """a + b*s3 from parts that are already Rat, unchecked: for callers
        that build the parts themselves."""
        out = _new(cls)
        _set_a(out, a)
        _set_b(out, b)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    @classmethod
    def coerce(cls, x) -> "QuadExt":
        out = _lift(x)
        if out is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to QuadExt")
        return out

    # -- ring/field operations -------------------------------------------
    def __add__(self, other):
        o = _lift(other)
        return NotImplemented if o is None else QuadExt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._of(-self.a, -self.b if self.b else self.b)

    def __sub__(self, other):
        o = _lift(other)
        return NotImplemented if o is None else QuadExt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = _lift(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.a, self.b, o.a, o.b
        if not b:  # rational fast paths: most factors have one nonzero part
            return QuadExt(a * c, a * d)
        if not d:
            return QuadExt(a * c, b * c)
        return QuadExt(a * c + 3 * b * d, a * d + b * c)

    __rmul__ = __mul__

    def inv(self) -> "QuadExt":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("division by zero")
        return QuadExt(self.a / n, -self.b / n)

    def __truediv__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        if not o.b:
            if not o.a:
                raise ZeroDivisionError("division by zero")
            return QuadExt(self.a / o.a, self.b / o.a)
        return self * o.inv()

    def __rtruediv__(self, other):
        o = _lift(other)
        return NotImplemented if o is None else o / self

    def __divmod__(self, other):
        """(self / other, 0): Q(s3) is a field (linalg.bareiss_rank)."""
        return self / other, QZERO

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return power(self.inv(), -n, QONE)
        return power(self, n, QONE)

    # -- structure ---------------------------------------------------------
    def norm(self) -> Rat:
        """Field norm a^2 - 3*b^2; zero exactly on the zero element."""
        return self.a * self.a - 3 * self.b * self.b

    def sign(self) -> int:
        """The sign of a rational value; a sqrt(3) part raises ValueError."""
        a = self.rational()
        return (a > 0) - (a < 0)

    @property
    def is_rational(self) -> bool:
        return not self.b

    def rational(self) -> Rat:
        if self.b:
            raise ValueError(f"{self} is not rational")
        return self.a

    # -- comparisons/hashing ------------------------------------------------
    def __eq__(self, other):
        o = _lift(other)
        return NotImplemented if o is None else (self.a == o.a and self.b == o.b)

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


def _lift(x):
    """x in Q(sqrt(3)): a QuadExt as it is, an int or rational as the
    rational QuadExt, None for anything else."""
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, (int, RatType)):
        return QuadExt._of(rat(x))
    return None


_new = object.__new__
_set_a, _set_b = QuadExt.a.__set__, QuadExt.b.__set__

QZERO = QuadExt(0)
QONE = QuadExt(1)
SQRT3 = QuadExt(0, 1)
HALF = QuadExt(Rat(1, 2))

