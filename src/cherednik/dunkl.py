"""Dunkl operators, their matrices on graded module layers, and the
hidden sl2 triple (quadratic raising operator, quadratic lowering
operator, grading element).

The reflection difference quotients do not depend on the character or on
the couplings, so they are cached on the root system, each degree raised
from the one below.  A lowering matrix is affine in the couplings,
L = D + k1*A + k2*B (Dunkl-de Jeu-Opdam, Trans. AMS 346, 1994).  Along the
metric transfers the parts D, A, B are rational, so each character caches
them once as sparse integer matrices over one denominator (a sqrt(3) part
raises InvariantViolation when they are built); a module at new couplings
pays one integer combination per layer.  True QuadExt or ParamPoly
matrices (lowering_matrix, along any direction) are combined from the maps
of _assemble without the integer parts, so the cross-checks built on them
also cover the integer conversion.
"""

from __future__ import annotations

import math
from array import array

from .errors import InvariantViolation
from .scalars import QZERO, QuadExt, Rat
from .linalg import (dot, identity, kron_identity, mat_add, mat_mul,
                     mat_vec, transpose)
from .polynomials import MPoly, ParamPoly, PP_K1, PP_K2, monomials, weyl_act
from .rootsystem import RootSystem, hbar_poly


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


def quotient_matrix(rs: RootSystem, root_idx: int, n: int):
    """Matrix of p -> (p - r.p)/alpha on the degree-n layer, for one
    positive root (a reflection difference quotient)."""
    return transpose(_quotient_columns(rs, root_idx, n))


def _quotient_columns(rs: RootSystem, root_idx: int, n: int):
    """Columns of the difference quotient Q on the degree-n layer, one per
    source monomial, raised from Q one degree down: the reflection sends
    x_v to x_v - c_v alpha (c the coroot), so

        Q(x_v p) = x_v Q(p) + c_v (p - alpha Q(p)).

    Every degree is cached; a degree above the cached ones is raised from
    the highest of them, or from Q = 0 on degree 0.
    """
    cache = rs._quot_cache
    deg = n
    while deg > 0 and (root_idx, deg) not in cache:
        deg -= 1
    nv = rs.rank
    q_cols = cache[(root_idx, deg)] if deg else [[QZERO] * len(monomials(nv, -1))]
    alpha, coroot = rs.positive_roots[root_idx], rs.coroots[root_idx]
    # -c_v alpha_u, the coefficient of x_u Q(p) in Q(x_v p)
    lin = [[(u, -(c * a)) for u, a in enumerate(alpha) if a] if c else []
           for c in coroot]
    while deg < n:
        deg += 1
        q_cols = cache[(root_idx, deg)] = _raise_quotient(
            nv, deg, q_cols, coroot, lin, rs._pool)
    return q_cols


def _raise_quotient(nv, deg, q_prev, coroot, lin, pool):
    """Q on the degree-deg layer from its columns one degree down, with
    its values interned in pool.  In the order of `monomials`, x_v times
    the i-th monomial of one degree is the (i + v)-th monomial of the
    next."""
    size = len(monomials(nv, deg - 1))
    cols = []
    for c, m in enumerate(monomials(nv, deg)):
        v = 0 if m[0] else 1  # m = x_v times monomial c - v one degree down
        q = q_prev[c - v]
        col = [QZERO] * size
        if coroot[v]:
            col[c - v] = coroot[v]
        for u, w in lin[v]:
            for t, x in enumerate(q, u):
                if x:
                    col[t] = col[t] + w * x
        for t, x in enumerate(q, v):
            if x:
                col[t] = col[t] + x
        cols.append([pool.setdefault(x, x) if x else QZERO for x in col])
    return cols


def mult_matrix(rs: RootSystem, q: MPoly, n: int):
    """Matrix of multiplication by a homogeneous q from degree n up."""
    nv = rs.rank
    d = q.degree()
    src = monomials(nv, n)
    cols = [poly_coords(q * MPoly(nv, {m: QuadExt(1)}), n + d, nv) for m in src]
    return [[cols[c][r] for c in range(len(src))]
            for r in range(len(monomials(nv, n + d)))]


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


def _assemble(rs: RootSystem, rep, y, n: int):
    """The Dunkl operator in direction y on the degree-n layer of the
    standard module of rep, split into D = d_y (x) 1 and the orbit sums
    A, B of <alpha, y> Q_alpha (x) rep(s_alpha) over the short and the long
    positive roots: (rows, cols, (D, A, B)), each part a {row-major cell
    index: value} map."""
    nv, d = rs.rank, rep.dim
    rows, cols = len(monomials(nv, n - 1)) * d, len(monomials(nv, n)) * d
    parts = ({}, {}, {})
    # d/dx_i sends monomial b to m_i times monomial b - i
    for b, m in enumerate(monomials(nv, n)):
        for i in range(nv):
            if y[i] and m[i]:
                v = y[i] * m[i]
                for s in range(d):
                    parts[0][((b - i) * d + s) * cols + b * d + s] = v
    for ridx in range(rs.num_positive):
        ay = dot(rs.positive_roots[ridx], y)
        if not ay:
            continue
        part = parts[1 + rs.orbit_of[ridx]]
        rm = rep.matrix(rs.reflection_element[ridx])
        weights = [(s * cols + t, ay * rm[s][t])
                   for s in range(d) for t in range(d) if rm[s][t]]
        for b, qcol in enumerate(_quotient_columns(rs, ridx, n)):
            for a, qv in enumerate(qcol):
                if qv:
                    for off, w in weights:
                        idx = a * d * cols + b * d + off
                        part[idx] = part[idx] + qv * w if idx in part else qv * w
    return rows, cols, parts


def _combine(rows, cols, parts, coefs, zero):
    """The dense rows x cols matrix sum_i coefs[i] * parts[i], each part
    given as (cell indices, values), with zero in the empty cells."""
    flat = [zero] * (rows * cols)
    for (idx, vals), c in zip(parts, coefs):
        if c:
            for i, v in zip(idx, vals):
                flat[i] = flat[i] + c * v
    return [flat[r * cols:(r + 1) * cols] for r in range(rows)]


class LoweringParts:
    """The coupling-free parts of one Dunkl lowering on one layer,
    L = (D + k1*A + k2*B) / den, where D, A, B are sparse integer matrices
    over one shared denominator; each part is stored as its row-major cell
    indices and its values.

    Built from the {cell: value} maps of `_assemble`; a value with a
    sqrt(3) part has no integer form and raises InvariantViolation, so the
    check runs once per part set, for every coupling at once.
    """

    __slots__ = ("rows", "cols", "den", "parts")

    def __init__(self, rows: int, cols: int, parts):
        self.rows, self.cols = rows, cols
        rational = []
        for part in parts:
            rp = {}
            for i, v in sorted(part.items()):
                if v.b:
                    raise InvariantViolation(
                        f"lowering part value {v} has a sqrt(3) part: no integer form")
                if v.a:
                    rp[i] = v.a
            rational.append(rp)
        den = math.lcm(*(v.denominator for rp in rational for v in rp.values()))
        self.den = den
        self.parts = tuple(
            (array("I", rp), tuple(v.numerator * (den // v.denominator)
                                   for v in rp.values()))
            for rp in rational)

    def ints(self, c0: int, c1: int, c2: int):
        """The dense integer matrix c0*D + c1*A + c2*B."""
        return _combine(self.rows, self.cols, self.parts, (c0, c1, c2), 0)

    def norms(self, c: int):
        """c * (|D| + |A| + |B|) as a dense int matrix: c * the coefficient
        1-norms of the entries of D + k1*A + k2*B."""
        parts = [(idx, map(abs, vals)) for idx, vals in self.parts]
        return _combine(self.rows, self.cols, parts, (c, c, c), 0)


def lowering_matrix(rs: RootSystem, rep, y, n: int, k1, k2):
    """Matrix of the Dunkl operator in direction y on the degree-n layer
    of the standard module with lowest-weight representation rep.  Any
    direction is allowed, so values may carry sqrt(3): the parts of
    `_assemble` are combined exactly, without the integer form."""
    rows, cols, parts = _assemble(rs, rep, y, n)
    return _combine(rows, cols, [(p.keys(), p.values()) for p in parts],
                    (1, k1, k2), QZERO)


def b_direction(rs: RootSystem, j: int):
    """a-coordinates of the metric transfer of the j-th coordinate functional."""
    return rs.metric.gram[j]


def b_lowering_parts(rs: RootSystem, rep, j: int, n: int) -> LoweringParts:
    """The integer parts of the lowering along b_direction(rs, j) on the
    degree-n layer, cached on rep."""
    parts = rep._parts.get((j, n))
    if parts is None:
        parts = rep._parts[(j, n)] = LoweringParts(
            *_assemble(rs, rep, b_direction(rs, j), n))
    return parts


# -- the sl2 triple -------------------------------------------------------------

def e_mult_matrix(rs: RootSystem, rep, n: int):
    """Matrix of the raising operator (multiplication by the invariant
    quadric) from the degree-n layer to the degree-(n+2) layer."""
    base = mult_matrix(rs, rs.e_poly, n)
    return kron_identity(base, rep.dim)


def f_coefficients(rs: RootSystem):
    """The c_{jl} = -(1/2) g^{jl} of F = sum c_{jl} L_j L_l (L_j along the
    metric transfers)."""
    return [[v * Rat(-1, 2) for v in row] for row in rs.metric.inv]


def f_apply(coef, rows, low_m, low_n):
    """rows times sum_{j,l} coef[j][l] L_j L_l on the degree-n layer, from
    the lowerings along the metric transfers: low_m[j] on the degree-(n-1)
    layer and low_n[l] on the degree-n layer.  With coef from
    f_coefficients this is rows F; F itself is never formed:

        rows F = sum_l (sum_j c_{jl} rows L_j) L_l.
    """
    lowered = [mat_mul(rows, low) for low in low_m]
    acc = None
    for l, low in enumerate(low_n):
        comb = None
        for j, part in enumerate(lowered):
            s = coef[j][l]
            if s:
                term = [[v * s for v in row] for row in part]
                comb = term if comb is None else mat_add(comb, term)
        if comb is not None:
            prod = mat_mul(comb, low)
            acc = prod if acc is None else mat_add(acc, prod)
    return acc


def f_matrix(rs: RootSystem, rep, n: int, k1, k2):
    """Matrix of the quadratic lowering operator from the degree-n layer
    to the degree-(n-2) layer: f_apply on the identity rows."""
    if n < 2:
        raise ValueError("the quadratic lowering operator needs degree >= 2")
    low_m, low_n = ([lowering_matrix(rs, rep, b_direction(rs, j), d, k1, k2)
                     for j in range(rs.rank)] for d in (n - 1, n))
    return f_apply(f_coefficients(rs), identity(len(low_m[0])), low_m, low_n)


def reflection_sum_scalar(rs: RootSystem, rep, k1, k2):
    """The weighted reflection sum acting on the lowest-weight space:
    sum over orbits of (coupling) * (number of positive roots in the
    orbit) * (normalized character value at a reflection)."""
    acc = None
    for orbit in (0, 1):
        count = rs.orbit_counts[orbit]
        if not count:
            continue
        k = k1 if orbit == 0 else k2
        ratio = rep.refl_char[orbit].rational() / rep.dim
        term = k * (ratio * count)
        acc = term if acc is None else acc + term
    return acc if acc is not None else Rat(0)


def lowest_weight_scalar(rs: RootSystem, rep, k1, k2):
    """Eigenvalue of the grading element on the lowest-weight space."""
    return reflection_sum_scalar(rs, rep, k1, k2) + Rat(rs.rank, 2)


def _rat_sqrt(r):
    """Exact square root of a nonnegative rational, or None."""
    num, den = r.numerator, r.denominator
    sn, sd = math.isqrt(int(num)), math.isqrt(int(den))
    if sn * sn == num and sd * sd == den:
        return Rat(sn, sd)
    return None


def _quad_sqrt(v: QuadExt):
    """Square root of a rational value inside the quadratic extension."""
    if not v.is_rational:
        return None
    r = v.rational()
    if r < 0:
        return None
    s = _rat_sqrt(r)
    if s is not None:
        return QuadExt(s)
    s = _rat_sqrt(r / 3)
    if s is not None:
        return QuadExt(0, s)
    return None


def sl2_calibration(rs: RootSystem):
    """One-time consistency check of the sl2 triple, with symbolic couplings.

    Confirms that the lowering operator applied to the raising quadric in
    the polynomial module returns minus the lowest-weight scalar of the
    trivial character, and (in rank 2, where the metric admits an exact
    orthonormal frame) that the frame-built raising and lowering
    operators agree with the inverse-metric contraction.
    """
    if rs._sl2_checked:
        return
    from .wrep import get_irrep

    triv = get_irrep(rs, "triv")
    evec = poly_coords(rs.e_poly, 2, rs.rank)
    fmat = f_matrix(rs, triv, 2, PP_K1, PP_K2)
    got = ParamPoly.coerce(mat_vec(fmat, evec)[0])
    if got != -hbar_poly(rs):
        raise InvariantViolation(
            f"{rs.label}: sl2 calibration failed (F of the quadric is {got.to_str()})")
    if rs.rank == 2:
        _frame_check(rs, triv)
    rs._sl2_checked = True


def _frame_check(rs: RootSystem, triv):
    """Cross-check the sl2 pair against an exact orthonormal frame."""
    frame = _orthonormal_frame(rs)
    if frame is None:
        raise InvariantViolation(f"{rs.label}: no exact orthonormal frame")
    nv = rs.rank
    half = Rat(1, 2)
    e_alt = MPoly.zero(nv)
    for f in frame:
        lf = MPoly.from_linear(f)
        e_alt = e_alt + lf * lf * half
    if e_alt != rs.e_poly:
        raise InvariantViolation(f"{rs.label}: frame quadric mismatch")
    # frame form of the lowering operator: -(1/2) the sum of squared
    # Dunkl operators along the frame directions
    for n in (2, 3):
        direct = f_matrix(rs, triv, n, PP_K1, PP_K2)
        alt = None
        for f in frame:
            y = rs.b_map(f)
            dn = lowering_matrix(rs, triv, y, n, PP_K1, PP_K2)
            dm = lowering_matrix(rs, triv, y, n - 1, PP_K1, PP_K2)
            prod = mat_mul(dm, dn)
            alt = prod if alt is None else mat_add(alt, prod)
        for r in range(len(alt)):
            for c in range(len(alt[0])):
                v = alt[r][c] * half
                if ParamPoly.coerce(direct[r][c]) != ParamPoly.coerce(-v if v else v):
                    raise InvariantViolation(f"{rs.label}: frame lowering mismatch")


def _orthonormal_frame(rs: RootSystem):
    """The frame of the invariant form along the coordinate axes of a rank-2
    system: exact when the form is diagonal with square roots inside the
    quadratic extension, None otherwise."""
    (g00, g01), (_, g11) = rs.metric.gram
    s1, s2 = _quad_sqrt(g00), _quad_sqrt(g11)
    if g01 or s1 is None or s2 is None:
        return None
    return ((s1.inv(), QZERO), (QZERO, s2.inv()))
