"""Dunkl operators, their matrices on graded module layers, and the
hidden sl2 triple (quadratic raising operator, quadratic lowering
operator, grading element).

The reflection difference quotients are character- and coupling-free, so
they are kept in one list by degree per (root system, root), each degree
raised from the one below on integer columns over one denominator, in
working coordinates v = S x where every root and coroot is rational, for one
root of each pair that the reflection of root 0 swaps up to sign and for no
root on an axis (_root_pairs).  A lowering matrix is affine in the
couplings, L = D + k1*A + k2*B (Dunkl-de Jeu-Opdam, Trans. AMS 346, 1994).
_assemble writes D, A and B on ints straight into the public basis, each as
a rational and a sqrt(3) plane over one denominator: a cell's power of
sqrt(3) is fixed by its place, so each pair's quotient carries its powers of
3 (_quotient_classes), and the weights are int pairs computed once per (root
system, character, direction).  Along the transfers c e_j, two memos keep
them per (root system, character, direction, degree, first row; 0 for the
full parts), and a nonzero sqrt(3) plane raises InvariantViolation:
b_lowering_parts as sparse integer matrices over one denominator, and
b_lowering_residues as rows packed mod p per reflection class
(class_slices), read off the first memo's entry when it holds one; verma
forms a stack row at new couplings from them by three multiply-adds.
lowering_matrix (any direction) reads the same planes as QuadExt, so the
cross-checks built on it also cover the public conversion.  dunkl_apply
acts on polynomials through MPoly.divexact and weyl_act, sharing none of
it.  lowest_weight_scalar is the one formula for b(chi), and natural_m the
one test for its m (b(chi) = -m, m natural); verma, cli and rank2 read
these.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, namedtuple
from functools import lru_cache, update_wrapper
from itertools import accumulate, chain, compress, repeat
from operator import add, floordiv, mul, or_

from .errors import InvariantViolation
from .scalars import QZERO, SQRT3, QuadExt, Rat, is_nonneg_int
from .linalg import dot, identity, mat_mul, mat_vec, pack_rows
from .polynomials import MPoly, ParamPoly, PP_K1, PP_K2, monomials, weyl_act
from .rootsystem import RootSystem
from .wrep import get_irrep


# -- polynomial-layer matrices (character- and coupling-independent) -----------

def poly_coords(p: MPoly, degree: int, nvars: int):
    """Coordinates of a homogeneous polynomial in the monomial basis."""
    basis = monomials(nvars, degree)
    pos = {m: i for i, m in enumerate(basis)}
    vec = [QuadExt(0)] * len(basis)
    for m, c in p.terms.items():
        if m not in pos:
            raise InvariantViolation(f"expected a homogeneous degree-{degree} polynomial")
        vec[pos[m]] = c
    return vec


@lru_cache(maxsize=None)
def _root_pairs(rs: RootSystem):
    """The positive roots as (root, partner = eps s(root), eps, axis), s the
    reflection of root 0, v_0 -> -v_0, and axis the coordinate of a root that
    is its own partner.  Q_partner = eps (-1)^(a + b + 1) Q_root at (a, b), as
    v_0 has degree n - 1 - a in row a and n - b in column b; on axis i, Q(v^m)
    = c_i v^(m - e_i) for odd m_i, else 0.  InvariantViolation unless root 0
    is (1, 0) with coroot (2, 0), e_0 = 0 and s(root) is +- a positive root."""
    roots, coroots = rs.work_roots, rs.work_coroots
    if roots[0] != (1, 0)[:rs.rank] or coroots[0] != (2, 0)[:rs.rank] or rs.sqrt3_exp[0]:
        raise InvariantViolation(f"{rs.label}: root 0 is not (1, 0) with coroot (2, 0), v_0 = x_0")
    signed = {tuple(e * x for x in a): (r, e) for r, a in enumerate(roots) for e in (1, -1)}
    if any((-a[0], *a[1:]) not in signed for a in roots):
        raise InvariantViolation(f"{rs.label}: s_0 of a root is not +- a positive root")
    return [(r, partner, eps, int(not a[0]) if r == partner else None)
            for r, a in enumerate(roots) for partner, eps in [signed[-a[0], *a[1:]]]
            if r <= partner]


@lru_cache(maxsize=None)
def _quotient_layers(rs: RootSystem, root_idx: int):
    """The root's constants for _quotient_columns, computed once, and its
    (den, columns) by degree, a list that _quotient_columns extends on
    demand."""
    alpha, coroot = rs.work_roots[root_idx], rs.work_coroots[root_idx]
    # one degree up multiplies the denominator by step
    step = math.lcm(*(x.denominator for c in coroot for x in (c, *(c * a for a in alpha))))
    # Q(v_u p) step = sum_w x_w v_w Q(p) + c_u step p, x_w = step ([u = w] - c_u alpha_w)
    shifts = [[(w, x) for w, a in enumerate(alpha) for x in [int(step * ((u == w) - c * a))] if x]
              for u, c in enumerate(coroot)]
    return (step, [int(c * step) for c in coroot], shifts), [(1, [[]])]


def _quotient_columns(rs: RootSystem, root_idx: int, n: int):
    """The difference quotient Q on the degree-n layer in the working
    coordinates v of the root system, where the root alpha and its coroot c
    are rational: (den, columns), one integer column per source monomial,
    all over den.  Each degree is raised from Q one degree down: the
    reflection sends v_u to v_u - c_u alpha, so

        Q(v_u p) = v_u Q(p) + c_u (p - alpha Q(p)),

    with Q = 0 on degree 0, and the denominator grows by step.  In the order
    of `monomials`, v_u times the i-th monomial of one degree is the (i +
    u)-th monomial of the next.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    (step, coroot, shifts), layers = _quotient_layers(rs, root_idx)
    while len(layers) <= n:
        deg, (den, q_prev) = len(layers), layers[-1]
        size = len(monomials(rs.rank, deg - 1))
        cols = []
        for c, m in enumerate(monomials(rs.rank, deg)):
            u = 0 if m[0] else 1  # m = v_u times monomial c - u one degree down
            q = q_prev[c - u]
            col = [0] * size
            for w, x in shifts[u]:
                col[w:w + len(q)] = map(add, col[w:w + len(q)], map(x.__mul__, q))
            col[c - u] += coroot[u] * den
            cols.append(col)
        layers.append((den * step, cols))
    return layers[n]


@lru_cache(maxsize=4)  # the pairs of one degree, full and tail, for every direction
def _quotient_classes(rs: RootSystem, root_idx: int, n: int, first: int, shift: int):
    """(den, classes) of Q on the degree-n layer from row first, a cell (a,
    b) times 3^((a - b) // 2 + shift) if e = 1 (_assemble), classes[cls] the
    cells with b = a + cls mod 2 in row order, each row padded to odd length."""
    den, cols = _quotient_columns(rs, root_idx, n)
    cols = [c[first:] for c in cols] if first else cols
    if rs.sqrt3_exp[-1]:
        top, rows = first + 2 * shift, n - first  # top: the index of cell (first, 0)
        powers = list(accumulate(repeat(3, (top + rows) // 2), mul, initial=1))
        pow3 = list(chain.from_iterable(zip(powers, powers)))  # 3^(j // 2) at index j
        cols = [map(mul, c, pow3[top - b:top - b + rows]) for b, c in enumerate(cols)]
    cells = list(chain.from_iterable(zip(*cols, *[repeat(0)][len(cols) & 1:])))
    return den, (cells[first & 1::2], cells[~first & 1::2])


# -- Dunkl operators -----------------------------------------------------------

def dunkl_apply(rs: RootSystem, y, p: MPoly, k1, k2) -> MPoly:
    """Apply the Dunkl operator in direction y (a-coordinates) to a
    polynomial: directional derivative plus weighted reflection
    difference quotients."""
    nv = rs.rank
    out = MPoly.zero(nv)
    for i in range(nv):
        if y[i]:
            out = out + p.diff(i) * y[i]
    for a in range(rs.num_positive):
        alpha = rs.positive_roots[a]
        ay = dot(alpha, y)
        if not ay:
            continue
        c = rs.coupling_of_root(a, k1, k2) * ay
        if not c:
            continue
        diff = p - weyl_act(rs.elements[rs.reflection_element[a]], p)
        if diff:
            out = out + diff.divexact(MPoly.from_linear(alpha)) * c
    return out


@lru_cache(maxsize=None)
def _weights(rs: RootSystem, rep, y: tuple):
    """The weights of _assemble along y as int (numerator, denominator)
    pairs: (lcm of the denominators in cells, cells, pairs).  Root alpha
    weighs (plane 2 + 2 orbit + sigma, s, t) by the piece sigma of <alpha,
    y> rep(s_alpha)[s][t], sqrt(3)^k on cell (a, b), k = e (a - b) + sigma.
    cells: (i, public plane, s, t, k, w, axis), w m_i at (b - i, b) for y_i
    s_i (d/dx_i = s_i d/dv_i), or w c_i at odd m_i for a root on axis i;
    pairs: per group of _root_pairs, (root, vden, terms), a term ((public
    plane, s, t, cls), cls, f) weighing class cls by f = w_root + (-1)^(cls
    + 1) eps w_partner, times 3 for sigma = 1 on an odd k."""
    e = rs.sqrt3_exp[-1]

    def weights(r):
        ay = dot(rs.positive_roots[r], y)
        return {(2 + 2 * rs.orbit_of[r] + sg, s, t): v
                for s, row in enumerate(rep.matrices[rs.reflection_element[r]])
                for t, x in enumerate(row) for z in [ay * x]
                for sg, v in enumerate((z.a, z.b)) if v} if ay else {}

    cells = [(i, k & 1, s, s, k, v.numerator, v.denominator, False) for i in range(rs.rank)
             for z in [y[i] * SQRT3 ** rs.sqrt3_exp[i]] for sg, v in enumerate((z.a, z.b))
             if v for k in [sg - e * i] for s in range(rep.dim)]
    pairs = []
    for r, partner, eps, on in _root_pairs(rs):
        wr, wp = weights(r), weights(partner) if partner != r else {}
        if on is not None:
            cells += [(on, plane & ~1 | k & 1, s, t, k, x.numerator, x.denominator, True)
                      for (plane, s, t), v in wr.items()
                      for k, x in [((plane & 1) - e * on, v * rs.work_coroots[r][on])]]
        elif wr or wp:
            terms = [((plane ^ odd, s, t, cls), cls, f.numerator * 3 ** (plane & odd),
                      f.denominator) for plane, s, t in sorted(wr.keys() | wp.keys())
                     for cls in (0, 1) for odd in [e & cls] for f in [
                         wr.get((plane, s, t), 0)
                         + (2 * cls - 1) * eps * wp.get((plane, s, t), 0)] if f]
            pairs.append((r, math.lcm(*(t[-1] for t in terms)), terms))
    return math.lcm(*(c[6] for c in cells)), cells, pairs


def _assemble(rs: RootSystem, rep, y, n: int, first: int = 0):
    """The Dunkl operator in direction y on the degree-n layer of the
    standard module of rep, in the public basis: D = d_y (x) 1 and the
    orbit sums A, B of <alpha, y> Q_alpha (x) rep(s_alpha) over the short
    and the long positive roots, rows from degree-(n-1) monomial first.

    Q and d/dv act in the working coordinates, x^m = sqrt(3)^(-e m_1) v^m
    (e = 0 on A1 and B2), so a cell (a, b) is sqrt(3)^k times its v-value,
    k = e (a - b) + sigma (_weights), and is written where it is computed as
    3^(k // 2 + shift) times that on plane k mod 2, shift = e ((n - first)
    // 2 + 1) keeping powers whole.  Returns (rows, cols, den, planes),
    planes {index: row-major ints} of those written among D_0, D_1, A_0,
    A_1, B_0, B_1, a cell of part P being (P_0 + P_1 sqrt(3)) / den.
    """
    d, mono = rep.dim, monomials(rs.rank, n)
    width = len(mono)
    rows, cols = len(monomials(rs.rank, n - 1)[first:]) * d, width * d
    shift = rs.sqrt3_exp[-1] * ((n - first) // 2 + 1)
    wden, cells, pairs = _weights(rs, rep, tuple(y))
    quots = [_quotient_classes(rs, r, n, first, shift) for r, _, _ in pairs]
    den = math.lcm(wden, *(qden * vden for (qden, _), (_, vden, _) in zip(quots, pairs)))
    # built in blocks per s, rows padded to odd length W: one slice per class
    W, R, sums = width | 1, rows // d, {}
    for (qden, classes), (_, _, terms) in zip(quots, pairs):  # sum f Q per key
        for key, cls, num, f_den in terms:
            part = map((num * (den // (qden * f_den))).__mul__, classes[cls])
            acc = sums.get(key)
            sums[key] = list(part if acc is None else map(add, acc, part))
    planes = {p: [0] * (R * W * d * d) for p in {key[0] for key in sums} | {c[1] for c in cells}}
    for (plane, s, t, cls), acc in sums.items():
        planes[plane][(s * R * W + ((first + cls) & 1)) * d + t:(s + 1) * R * W * d:2 * d] = acc
    # d/dv_i: m_i at (b - i, b); an axis root: c_i there for odd m_i (_root_pairs)
    for i, plane, s, t, k, num, v_den, on_axis in cells:
        w, out = num * (den // v_den) * 3 ** (k // 2 + shift), planes[plane]
        for b in range(first + i, width):
            m = mono[b][i] & 1 if on_axis else mono[b][i]
            if m:
                out[((s * R + b - i - first) * W + b) * d + t] += w * m
    if (d, W) != (1, width):
        starts = [(s * R + a) * W * d for a in range(R) for s in range(d)]
        planes = {p: list(chain.from_iterable(v[o:o + cols] for o in starts))
                  for p, v in planes.items()}
    return rows, cols, den * 3 ** shift, planes


def _combine(rows, cols, parts, coefs, zero):
    """The dense rows x cols matrix sum_i coefs[i] * parts[i], each part
    given as (cell indices, values), with zero in the empty cells."""
    flat = [zero] * (rows * cols)
    for (idx, vals), c in zip(parts, coefs):
        if c:
            for i, v in zip(idx, vals):
                flat[i] = flat[i] + c * v
    return [flat[r * cols:(r + 1) * cols] for r in range(rows)]


class LoweringParts(namedtuple("LoweringParts", "rows cols den parts")):
    """The coupling-free parts of one Dunkl lowering on one layer,
    L = (D + k1*A + k2*B) / den, where D, A, B are sparse integer matrices
    over one shared denominator; each part is stored as its row-major cell
    indices (an array("I")) and its values.  Built by b_lowering_parts."""

    __slots__ = ()

    def ints(self, c0: int, c1: int, c2: int):
        """The dense integer matrix c0*D + c1*A + c2*B."""
        return _combine(self.rows, self.cols, self.parts, (c0, c1, c2), 0)

    def column_norm(self) -> int:
        """The largest column sum of |D| + |A| + |B|: no entry of the row
        v (D + k1*A + k2*B) has a coefficient 1-norm above this times the
        largest one among the entries of v."""
        sums = [0] * self.cols
        for idx, vals in self.parts:
            for i, v in zip(idx, vals):
                sums[i % self.cols] += abs(v)
        return max(sums)


def lowering_matrix(rs: RootSystem, rep, y, n: int, k1, k2):
    """Matrix of the Dunkl operator in direction y on the degree-n layer
    of the standard module with lowest-weight representation rep.  Any
    direction is allowed, so values may carry sqrt(3): each cell of the
    planes of `_assemble` is read as one QuadExt, without the integer form."""
    rows, cols, den, planes = _assemble(rs, rep, y, n)
    p0, p1 = ([planes.get(p, [0] * (rows * cols)) for p in range(sg, 6, 2)] for sg in (0, 1))
    parts = [(idx, [QuadExt._of(a[i], b[i], den) for i in idx]) for a, b in zip(p0, p1)
             for idx in [list(compress(range(rows * cols), map(or_, a, b)))]]
    return _combine(rows, cols, parts, (1, k1, k2), QZERO)


def b_direction(rs: RootSystem, j: int):
    """a-coordinates of the transfer of the j-th coordinate functional by
    the invariant form c I: c e_j, c = rs.metric_scale."""
    return tuple(rs.metric_scale if i == j else QZERO for i in range(rs.rank))


def _integer_planes(rs: RootSystem, rep, j: int, n: int, first: int):
    """(rows, cols, den, [D, A, B]) of _assemble along b_direction(rs, j),
    zeros for a plane not written; a nonzero sqrt(3) plane raises
    InvariantViolation."""
    rows, cols, den, planes = _assemble(rs, rep, b_direction(rs, j), n, first)
    if any(any(planes.get(p, ())) for p in (1, 3, 5)):
        raise InvariantViolation("a lowering part has a sqrt(3) part: no integer form")
    return rows, cols, den, [planes.get(i) or [0] * (rows * cols) for i in (0, 2, 4)]


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")  # lru_cache's fields


def _memo(fn):
    """functools.lru_cache(maxsize=None) over fn, whose entries a reader can
    look up without building one: memo.held, a dict by argument tuple."""
    held, count = {}, Counter()  # of hits (True) and misses (False)

    def memo(*key):
        count[key in held] += 1
        if key not in held:
            held[key] = fn(*key)
        return held[key]

    memo.held, memo.cache_clear = held, lambda: (held.clear(), count.clear())
    memo.cache_info = lambda: _CacheInfo(count[True], count[False], None, len(held))
    return update_wrapper(memo, fn)


@_memo
def b_lowering_parts(rs: RootSystem, rep, j: int, n: int, first: int) -> LoweringParts:
    """The coupling-free integer parts of the lowering along b_direction(rs,
    j) on the degree-n layer, rows from degree-(n-1) monomial first (0 for
    the full parts; in rank 2, n - 1 gives x_1^(n-1) alone), memoized: the
    rational planes of _assemble over its denominator in cell order, reduced
    by their gcd (_integer_planes)."""
    rows, cols, den, planes = _integer_planes(rs, rep, j, n, first)
    parts = [(array("I", compress(range(rows * cols), p)), list(compress(p, p))) for p in planes]
    g = math.gcd(den, *chain.from_iterable(vals for _, vals in parts))
    return LoweringParts(rows, cols, den // g, tuple(
        (idx, tuple(map(floordiv, vals, repeat(g)))) for idx, vals in parts))


@lru_cache(maxsize=None)
def b_lowering_residues(rs: RootSystem, rep, j: int, n: int, first: int, p: int):
    """Per row of b_lowering_parts(rs, rep, j, n, first), up to one nonzero
    factor: (class, D, A, B) packed mod p (linalg.pack_rows), memoized; read
    off the parts when their memo holds them, else off _assemble's planes
    with no gcd.  c0 D + c1 A + c2 B is a multiple of the lowering's row at
    (k1, k2) = (c1, c2) / c0.  The class check covers D, A and B apart, so
    no coupling can hide a crossed cell."""
    held = b_lowering_parts.held.get((rs, rep, j, n, first))
    if held is None:
        _, cols, _, planes = _integer_planes(rs, rep, j, n, first)
        mats = [[plane[o:o + cols] for o in range(0, len(plane), cols)] for plane in planes]
    else:
        cols, mats = held.cols, [held.ints(*e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    return tuple(pack_rows(mats, cols, class_slices(rs, rep, n), p))


@lru_cache(maxsize=None)
def reflection_parity(rs: RootSystem, base):
    """The parities [s_ii = -1] of s, the reflection of root 0, on the
    coordinates and p_t on base, where s must be a diagonal sign on each,
    memoized per (root system, base).  The transfer of x_j is c e_j, so
    flip_j = [s x_j = -x_j] is the parity of coordinate j."""
    w = rs.reflection_element[0]
    mats = rs.elements[w], base.matrices[w]
    par = [[int(row[i] == -1) for i, row in enumerate(m)] for m in mats]
    if any(v != (i == j) * (1 - 2 * p[i]) for m, p in zip(mats, par)
           for i, row in enumerate(m) for j, v in enumerate(row)):
        raise InvariantViolation(f"{rs.label}/{base.label}: the reflection "
                                 f"of root 0 is not a sign on the basis")
    return par


@lru_cache(maxsize=None)
def class_slices(rs: RootSystem, base, n: int):
    """The two reflection classes of degree n as tuples of slices of a row:
    column b d + t, x^m e_t with m = (n - b, b) (on A1, (n,)), is in class
    sum_i m_i flip_i + p_t = flip_0 n + alt b + p_t mod 2, alt = flip_0 ^
    flip_1.  Memoized per (root system, base, degree)."""
    flips, signs = reflection_parity(rs, base)
    alt, d, out = flips[0] ^ flips[-1], len(signs), ([], [])
    for j in range(d << alt):
        out[(flips[0] * n + alt * (j // d) + signs[j % d]) & 1].append(slice(j, None, d << alt))
    return tuple(map(tuple, out))


# -- the sl2 triple -------------------------------------------------------------

def e_mult_matrix(rs: RootSystem, rep, n: int):
    """Matrix of the raising operator (multiplication by the invariant
    quadric) from the degree-n layer to the degree-(n+2) layer: each quadric
    coefficient in its cell, per degree-n monomial and basis vector of chi."""
    d, low = rep.dim, monomials(rs.rank, n)
    pos = {m: i for i, m in enumerate(monomials(rs.rank, n + 2))}
    out = [[QuadExt(0)] * (len(low) * d) for _ in range(len(pos) * d)]
    for j, m in enumerate(low):
        for e, v in rs.e_poly.terms.items():
            i = pos[tuple(map(add, m, e))]
            for s in range(d):
                out[i * d + s][j * d + s] = v
    return out


def f_coefficient(rs: RootSystem) -> Rat:
    """The -1/(2c) of F = -(1/(2c)) sum_j L_j L_j (L_j along c e_j)."""
    return Rat(-1, 2) / rs.metric_scale.rational()


def f_apply(rows, low_m, low_n):
    """rows times sum_j L_j L_j on the degree-n layer as one product: rows
    times the low_m side by side (L_j on the degree-(n-1) layer) times the
    low_n stacked (L_j on the degree-n layer), the lowerings along the
    transfers.  Times f_coefficient this is rows F; F is never formed."""
    return mat_mul(mat_mul(rows, [list(chain(*r)) for r in zip(*low_m)]), list(chain(*low_n)))


def f_matrix(rs: RootSystem, rep, n: int, k1, k2):
    """Matrix of the quadratic lowering operator from the degree-n layer
    to the degree-(n-2) layer: f_apply on the identity rows."""
    if n < 2:
        raise ValueError("the quadratic lowering operator needs degree >= 2")
    low_m, low_n = ([lowering_matrix(rs, rep, b_direction(rs, j), d, k1, k2)
                     for j in range(rs.rank)] for d in (n - 1, n))
    fc = f_coefficient(rs)
    return [[v * fc for v in row] for row in f_apply(identity(len(low_m[0])), low_m, low_n)]


@lru_cache(maxsize=None)
def _orbit_weights(rs: RootSystem, rep):
    """Per root orbit, its number of positive roots times the normalized
    character value at a reflection in it, as Rat: memoized per (root
    system, irrep)."""
    return tuple(c.rational() / rep.dim * count
                 for c, count in zip(rep.refl_char, rs.orbit_counts))


def reflection_sum_scalar(rs: RootSystem, rep, k1, k2):
    """The weighted reflection sum acting on the lowest-weight space:
    sum over orbits of (coupling) * (number of positive roots in the
    orbit) * (normalized character value at a reflection)."""
    return dot((k1, k2), _orbit_weights(rs, rep))


def lowest_weight_scalar(rs: RootSystem, rep, k1, k2):
    """b(chi), the grading element's eigenvalue on the lowest-weight space."""
    return reflection_sum_scalar(rs, rep, k1, k2) + Rat(rs.rank, 2)


def natural_m(rs: RootSystem, rep, k1, k2):
    """m when b(chi) = -m for a natural number m (0 included), else None."""
    m = -lowest_weight_scalar(rs, rep, k1, k2)
    return int(m) if is_nonneg_int(m) else None


@lru_cache(maxsize=None)
def sl2_calibration(rs: RootSystem):
    """One-time consistency check of the sl2 triple, with symbolic couplings.

    Confirms that the lowering operator applied to the raising quadric in
    the polynomial module returns minus the lowest-weight scalar of the
    trivial character.  Both operators read the scale c of the invariant
    form c I, which RootSystem checks when it is built: E multiplies by sum
    x_i^2 / (2c) and F = -(1/(2c)) sum_j L_j L_j, L_j along c e_j.  Memoized
    per root system; a failed check raises and is not memoized, so it runs
    again on the next call.
    """
    triv = get_irrep(rs, "triv")
    evec = poly_coords(rs.e_poly, 2, rs.rank)
    fmat = f_matrix(rs, triv, 2, PP_K1, PP_K2)
    got = ParamPoly.coerce(mat_vec(fmat, evec)[0])
    if got != -lowest_weight_scalar(rs, triv, PP_K1, PP_K2):
        raise InvariantViolation(
            f"{rs.label}: sl2 calibration failed (F of the quadric is {got.to_str()})")
