"""Small exact linear algebra over the scalar tower: every matrix and
vector helper of the package lives here.

Matrices are plain lists of row lists.  Entries are ints (lowerings and
Gram layers, the packed symbolic ones too; see integer_scale), QuadExt, or
ParamPoly (unpacked symbolic layers, F matrices).  Ranks are proven, never
guessed; the package ranks int matrices only.  One, square or tall, whose
rank modulo the prime PRIME is its column count has independent columns
over Q, as a minor that is 0 over Z is 0 mod every prime (rank_mod_p: one
elimination mod p per verma lowering stack, over the rows verma yields,
each packed into one int and eliminated within its reflection class).
Otherwise bareiss_rank, fraction-free (Bareiss, Math. Comp. 22, 1968), ranks
it; the tests run it on QuadExt and ParamPoly matrices too, as references.
"""

from __future__ import annotations

from itertools import chain, compress
from math import gcd

from .errors import InvariantViolation, NonDivisibleError
from .scalars import QuadExt, Rat

# below 2^30, so every residue is a single CPython digit
PRIME = 1_073_741_789


def mat_mul(a, b):
    if len(b) != len(a[0]):
        raise InvariantViolation(f"mat_mul of {len(a[0])} columns by {len(b)} rows")
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


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


def freeze(a):
    """The matrix as a tuple of row tuples, usable as a dict key."""
    return tuple(map(tuple, a))


def integer_scale(mat):
    """An int matrix without common content and its content s as a Rat, with
    mat == s * ints entrywise (s = 1 for the zero matrix): one gcd pass over
    the int matrix mat (Gram layers, F rows)."""
    g = gcd(*chain.from_iterable(mat)) or 1
    return [[v // g for v in row] for row in mat], Rat(g)


def bareiss_rank(mat) -> int:
    """Rank over ints (the package) or QuadExt, ParamPoly (the tests), each
    divmod by the previous pivot exact (Bareiss), else NonDivisibleError."""
    if not mat or not mat[0]:
        return 0
    m = [row[:] for row in mat]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        p = pr[c]
        for i in range(rank + 1, nrows):
            row = m[i]
            f = row[c]
            for j in range(c + 1, ncols):
                num = p * row[j] - f * pr[j]
                q, r = divmod(num, prev)
                if r:
                    raise NonDivisibleError(f"Bareiss step: {prev} does not divide {num}")
                row[j] = q
            row[c] = 0
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def slot_width(ncols: int, p: int) -> int:
    """The bits of one cell of a row with ncols columns packed mod p (pack_rows)."""
    return 2 * p.bit_length() + ncols.bit_length() + 2


def pack_rows(mats, ncols, classes, p):
    """For rank_mod_p, lazily, per row of the int matrices mats, lists of
    rows of ncols cells all with the same number of rows, visiting only
    nonzero cells: (class c, one packed int per matrix), c (a tuple of slices
    of a row) holding every nonzero cell of the row in every matrix, and the
    cells of c mod p, the k-th in bits from k slot_width(ncols, p) on; (0, 0,
    ...) for a zero row.  Cells of one row in two classes raise
    InvariantViolation."""
    w, each, where = slot_width(ncols, p), range(ncols), [None] * ncols
    for c, cls in enumerate(classes):
        for k, i in enumerate(chain(*map(each.__getitem__, cls))):
            where[i] = 1 << c, k * w  # the class as a bit, the cell's shift
    for rows in zip(*mats):
        met, packed = 0, []  # met: the classes met, as bits
        for row in rows:
            acc = 0
            for col in compress(each, row):
                bit, shift = where[col]
                met, acc = met | bit, acc + (row[col] % p << shift)
            packed.append(acc)
        if met & met - 1:
            raise InvariantViolation("a row has nonzero cells across the classes")
        yield max(met.bit_length() - 1, 0), *packed


def rank_mod_p(rows, ncols, classes=((slice(None),),)) -> int:
    """Rank modulo PRIME of the int matrix with ncols columns whose rows the
    iterable rows yields packed in classes, as (class, packed) pairs (as
    pack_rows packs them mod PRIME).  At ncols some maximal minor is
    nonzero mod PRIME, hence over Z: the columns are independent over Q, also
    with each row scaled on its own by a nonzero rational (each minor scales
    by a nonzero factor).  A lower rank is only a lower bound over Q: p may
    divide every nonzero minor.  Gaussian elimination over GF(p), one row at
    a time against the pivots of its class, the rank being the pivot count:
    it stops once every column has a pivot, and skips a row whose class has
    every pivot.  Slot 0 at column c (w = slot_width(ncols, p) bits) is
    reduced by the tail of c's pivot, reduced once: r = (r >> w) + (p - f)
    tail, f = slot 0 mod p, adds under p^2 per slot in each of at most ncols
    steps; a slot enters below 3 p^2 (verma sums three products of
    residues), and (ncols + 3) p^2 < 2^w: none carries."""
    p, w = PRIME, slot_width(ncols, PRIME)
    mask, found = (1 << w) - 1, 0
    sizes = [sum(map(len, map(range(ncols).__getitem__, cls))) for cls in classes]
    pivots = [{} for _ in classes]  # per class: column -> packed tail
    for cls, r in rows:
        piv, c = pivots[cls], 0
        if len(piv) == sizes[cls]:
            continue  # its class has every pivot
        while r:
            f = r & mask
            if not f:  # skip to the lowest nonzero slot
                z = ((r & -r).bit_length() - 1) // w
                r, c = r >> z * w, c + z
                continue
            f %= p
            tail = piv.get(c)
            if f and tail is None:
                inv, r, tail, shift = pow(f, -1, p), r >> w, 0, 0
                while r:
                    tail |= (r & mask) * inv % p << shift
                    r, shift = r >> w, shift + w
                piv[c] = tail
                found += 1
                break
            r, c = (r >> w) + (p - f) * tail if f else r >> w, c + 1
        if found == ncols:
            break
    return found


def is_symmetric(mat) -> bool:
    n = len(mat)
    return all(mat[i][j] == mat[j][i] for i in range(n) for j in range(i + 1, n))
