"""Small exact linear algebra over the scalar tower: every matrix and
vector helper of the package lives here.

Matrices are plain lists of row lists.  Entries are ints (lowerings and
Gram layers, the packed symbolic ones too; see integer_scale), QuadExt, or
ParamPoly (unpacked symbolic layers, F matrices).  Ranks are proven, never
guessed.  An int matrix, square or tall, whose columns are independent
modulo the prime PRIME has independent columns over Q, since a minor that
is 0 over Z is 0 mod every prime (nonsingular_mod_p, the one elimination
mod p: verma's lowering blocks and stacks).  Otherwise
the rank is exact fraction-free Bareiss elimination, in each of these
rings (Bareiss, Math. Comp. 22, 1968).  Over ParamPoly Bareiss runs only
as the fallback of verma's rank certificate at one rational point.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import InvariantViolation, NonDivisibleError
from .polynomials import ParamPoly
from .scalars import QuadExt, Rat

# below 2^30, so every residue is a single CPython digit
PRIME = 1_073_741_789


def _exact_div(x, y):
    if isinstance(x, int) and isinstance(y, int):
        q, r = divmod(x, y)
        if r:
            raise NonDivisibleError(f"Bareiss step: {y} does not divide {x}")
        return q
    if isinstance(x, ParamPoly) or isinstance(y, ParamPoly):
        return ParamPoly.coerce(x).divexact(ParamPoly.coerce(y))
    return x / y


def mat_mul(a, b):
    assert len(b) == len(a[0])
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dot(x, y):
    """Sum of x[i] * y[i]; also the pairing of a*-coordinates with
    a-coordinates."""
    acc = None
    for a, b in zip(x, y):
        if a and b:
            p = a * b
            acc = p if acc is None else acc + p
    return acc if acc is not None else x[0] - x[0]


def mat_vec(a, v):
    return [dot(row, v) for row in a]


def vec_mat(v, a):
    """Row vector times matrix."""
    return [dot(v, col) for col in zip(*a)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[QuadExt(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_inv(a):
    """Inverse of a 1x1 or 2x2 matrix over QuadExt."""
    if len(a) == 1:
        return [[a[0][0].inv()]]
    (p, q), (r, s) = a
    det = p * s - q * r
    return [[s / det, -q / det], [-r / det, p / det]]


def kron_identity(a, d):
    """a tensor the d x d identity: entry (i, j) of a on the diagonal of
    block (i, j)."""
    if d == 1:
        return [row[:] for row in a]
    rows, cols = len(a), len(a[0])
    out = [[QuadExt(0)] * (cols * d) for _ in range(rows * d)]
    for i in range(rows):
        for j in range(cols):
            v = a[i][j]
            if not v:
                continue
            for s in range(d):
                out[i * d + s][j * d + s] = v
    return out


def freeze(a):
    """The matrix as a tuple of row tuples, usable as a dict key."""
    return tuple(map(tuple, a))


def integer_scale(mat):
    """An integer matrix without common content and a rational scale s
    with mat == s * ints entrywise (s = 1 for the zero matrix).  Entries
    are ints, rationals or QuadExt; a QuadExt with a nonzero sqrt(3) part
    has no such form and raises InvariantViolation."""
    vals = []
    for row in mat:
        for x in row:
            if isinstance(x, QuadExt):
                if x.b:
                    raise InvariantViolation(f"{x} has a sqrt(3) part: no integer form")
                x = x.a
            vals.append(x)
    den = lcm(*(x.denominator for x in vals))
    vals = [x.numerator * (den // x.denominator) for x in vals]
    g = gcd(*vals) or 1
    it = (v // g for v in vals)
    return [[next(it) for _ in row] for row in mat], Rat(g, den)


def bareiss_rank(mat) -> int:
    """Rank over an integral domain, divisions kept exact (Bareiss)."""
    if not mat or not mat[0]:
        return 0
    m = [row[:] for row in mat]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = None
    for c in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][c]
        for i in range(rank + 1, nrows):
            row, pr = m[i], m[rank]
            f = row[c]
            for j in range(c + 1, ncols):
                num = p * row[j] - f * pr[j]
                row[j] = _exact_div(num, prev) if prev is not None else num
            row[c] = f - f
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def nonsingular_mod_p(mat) -> bool:
    """True when the columns of the int matrix, which has at least as many
    rows as columns, are independent modulo PRIME.  Then some maximal
    minor is nonzero mod PRIME, hence over Z, which proves the columns
    independent over Q (a square matrix nonsingular).  False is no verdict
    over Q: p may divide every nonzero maximal minor.  Gaussian elimination
    over GF(p), stopped at the first column with no pivot."""
    p = PRIME
    m = [[v % p for v in row] for row in mat]
    n = len(m)
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return False
        m[c], m[piv] = m[piv], m[c]
        pr = m[c][c + 1:]
        inv = pow(m[c][c], -1, p)
        for i in range(c + 1, n):
            f = m[i][c] * inv % p
            if f:
                m[i][c + 1:] = [(x - f * y) % p for x, y in zip(m[i][c + 1:], pr)]
    return True


def is_symmetric(mat) -> bool:
    n = len(mat)
    return all(mat[i][j] == mat[j][i] for i in range(n) for j in range(i + 1, n))
