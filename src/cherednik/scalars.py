"""Exact scalar arithmetic: rationals and the field Q(s3) with s3 = sqrt(3).

Everything here is immutable and hashable; no floats ever enter the
tower.  A QuadExt is three ints (p, q, d), the value (p + q*s3) / d, in
canonical form: d > 0 and gcd(p, q, d) = 1, so zero is (0, 0, 1) and two
values are equal exactly when their triples are.  Each of + - * /, inv,
==, bool and hash is a few int products and at most one gcd or modular
inverse, and builds no Rat (a value hashes as its Rat parts would,
_hash_ratio).  A Rat is built only where a rational part is read (.a, .b,
rational(), norm(), sign(), str and repr) and where QuadExt(a, b) is given
a part that is not an int.  Copies and pickles rebuild a value through
QuadExt._of, as the slots refuse assignment.  QuadExt lifts every operand
once, by _lift: an int or rational becomes the rational QuadExt, and
anything else gets NotImplemented (a polynomial then acts, a float or str
raises TypeError).  Polynomials over this field, in the coordinates or the
couplings k1, k2, live in polynomials.
"""

from __future__ import annotations

from fractions import Fraction as Rat
from math import gcd
from sys import hash_info

_RZERO = Rat(0)  # .b of a rational value: one zero, not a new one per read


def rat(x) -> Rat:
    """Coerce an int, canonical "p/q" string, or rational to Rat."""
    if isinstance(x, Rat):
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
    """Element a + b*s3 of Q(sqrt(3)), stored as the canonical ints (p, q,
    d) of (p + q*s3) / d (module docstring); a and b are read as Rat."""

    __slots__ = ("_p", "_q", "_d")

    def __new__(cls, a=0, b=0):
        if type(a) is int and type(b) is int:
            return _make(a, b, 1)
        a, b = rat(a), rat(b)
        return _reduce(a.numerator * b.denominator, b.numerator * a.denominator,
                       a.denominator * b.denominator)

    @classmethod
    def _of(cls, p: int, q: int = 0, d: int = 1) -> "QuadExt":
        """(p + q*s3) / d from ints with d > 0, reduced by their gcd: for
        callers that hold the value as ints."""
        return _reduce(p, q, d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    @classmethod
    def coerce(cls, x) -> "QuadExt":
        out = _lift(x)
        if out is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to QuadExt")
        return out

    # -- the rational parts ------------------------------------------------
    @property
    def a(self) -> Rat:
        return Rat(self._p, self._d)

    @property
    def b(self) -> Rat:
        return Rat(self._q, self._d) if self._q else _RZERO

    # -- ring/field operations -------------------------------------------
    def __add__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        p, q, d, r, s, e = self._p, self._q, self._d, o._p, o._q, o._d
        if d == e:
            return _reduce(p + r, q + s, d)
        return _reduce(p * e + r * d, q * e + s * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._p, -self._q, self._d)

    def __sub__(self, other):
        o = _lift(other)
        return NotImplemented if o is None else self + -o

    def __rsub__(self, other):
        o = _lift(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        p, q, r, s = self._p, self._q, o._p, o._q
        return _reduce(p * r + 3 * q * s, p * s + q * r, self._d * o._d)

    __rmul__ = __mul__

    def inv(self) -> "QuadExt":
        return QONE / self

    def __truediv__(self, other):
        """(p + q s3)/d over (r + s s3)/e is (p + q s3)(r - s s3) e over
        d (r^2 - 3 s^2), and (p + q s3) e over d r when s = 0."""
        o = _lift(other)
        if o is None:
            return NotImplemented
        p, q, r, s, e = self._p, self._q, o._p, o._q, o._d
        if s:
            p, q, r = p * r - 3 * q * s, q * r - p * s, r * r - 3 * s * s
        if not r:  # r^2 = 3 s^2 only at zero: s3 is irrational
            raise ZeroDivisionError("division by zero")
        if r < 0:
            p, q, r = -p, -q, -r
        return _reduce(p * e, q * e, self._d * r)

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
        p, q, d = self._p, self._q, self._d
        return Rat(p * p - 3 * q * q, d * d)

    def sign(self) -> int:
        """The sign of a rational value; a sqrt(3) part raises ValueError."""
        a = self.rational()
        return (a > 0) - (a < 0)

    @property
    def is_rational(self) -> bool:
        return not self._q

    def rational(self) -> Rat:
        if self._q:
            raise ValueError(f"{self} is not rational")
        return Rat(self._p, self._d)

    # -- comparisons/hashing ------------------------------------------------
    def __eq__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return self._p == o._p and self._q == o._q and self._d == o._d

    def __bool__(self):
        return bool(self._p or self._q)

    def __hash__(self):
        """hash(a) for a rational value, else hash((a, b)), from the ints:
        an int hashes as its Rat, and so does p / d by _hash_ratio."""
        p, q, d = self._p, self._q, self._d
        if d == 1:
            return hash((p, q)) if q else hash(p)
        return hash((_hash_ratio(p, d), _hash_ratio(q, d))) if q else _hash_ratio(p, d)

    def __reduce__(self):  # copy and pickle rebuild the value from its ints
        return QuadExt._of, (self._p, self._q, self._d)

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


def _make(p: int, q: int, d: int) -> QuadExt:
    """The QuadExt of a triple already canonical, unchecked."""
    out = _new(QuadExt)
    _set_p(out, p)
    _set_q(out, q)
    _set_d(out, d)
    return out


def _reduce(p: int, q: int, d: int) -> QuadExt:
    """The QuadExt of (p + q*s3) / d, d > 0, put in canonical form."""
    g = gcd(p, q, d)
    return _make(p, q, d) if g == 1 else _make(p // g, q // g, d // g)


def _hash_ratio(p: int, d: int, _P=hash_info.modulus) -> int:
    """hash(p / d), d > 0, by the numeric-hash rule of the Python docs."""
    while not p % _P and not d % _P:
        p, d = p // _P, d // _P
    h = abs(p) % _P * pow(d, -1, _P) % _P if d % _P else hash_info.inf
    return -2 if p < 0 and h == 1 else -h if p < 0 else h


def _lift(x):
    """x in Q(sqrt(3)): a QuadExt as it is, an int or rational as the
    rational QuadExt, None for anything else."""
    if type(x) is QuadExt:
        return x
    if isinstance(x, int):
        return _make(x, 0, 1)
    if isinstance(x, Rat):
        return _make(x.numerator, 0, x.denominator)
    return None


_new = object.__new__
_set_p, _set_q, _set_d = QuadExt._p.__set__, QuadExt._q.__set__, QuadExt._d.__set__

QZERO = QuadExt(0)
QONE = QuadExt(1)
SQRT3 = QuadExt(0, 1)
HALF = QuadExt(Rat(1, 2))
