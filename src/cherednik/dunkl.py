"""Dunkl operators, their matrices on graded module layers, and the
hidden sl2 triple (quadratic raising operator, quadratic lowering
operator, grading element).

The reflection difference quotients do not depend on the character or on
the couplings, so _quotient_columns memoizes them per (root system, root,
degree), each degree raised from the one below.  They are raised in the
working coordinates v = S x of the root system (see rootsystem), where every
root and coroot is rational, as integer columns over one denominator.  A
lowering matrix is affine in the couplings, L = D + k1*A + k2*B
(Dunkl-de Jeu-Opdam, Trans. AMS 346, 1994).  _assemble builds D, A and B in
the v-coordinates on ints, each weight split into a rational and a sqrt(3)
piece; a cell reaches the public basis through one power of sqrt(3).  Along
the metric transfers every nonzero cell lands on an even power, so
b_lowering_parts memoizes the parts per (root system, character, direction,
degree) as sparse integer matrices over one denominator (an odd power raises
InvariantViolation when they are built); a module at new couplings pays
one integer combination per layer.  True QuadExt or ParamPoly matrices
(lowering_matrix, along any direction) finish the same assembly in QuadExt
without the integer parts, so the cross-checks built on them also cover the
integer conversion.  dunkl_apply acts on polynomials through
MPoly.divexact and weyl_act and shares none of this.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from itertools import chain

from .errors import InvariantViolation
from .scalars import QZERO, SQRT3, QuadExt, Rat
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


def _sqrt3_powers(rs: RootSystem, n: int, d: int = 1):
    """h(m) = sum_i e_i m_i for each monomial m of degree n, each repeated d
    times (one per basis vector of a d-dimensional rep): x^m = sqrt(3)^(-h(m))
    v^m, so a v-basis matrix entry (r, c) is sqrt(3)^(h(r) - h(c)) times the
    public one's."""
    return [dot(rs.sqrt3_exp, m) for m in monomials(rs.rank, n) for _ in range(d)]


def _to_public(q, k: int) -> QuadExt:
    """The rational q times sqrt(3)^k."""
    x = q * Rat(3) ** (k // 2)
    return QuadExt(0, x) if k % 2 else QuadExt(x)


@lru_cache(maxsize=None)
def _quotient_columns(rs: RootSystem, root_idx: int, n: int):
    """The difference quotient Q on the degree-n layer in the working
    coordinates v of the root system, where the root alpha and its coroot c
    are rational: (den, columns), one integer column per source monomial,
    all over den.  Each degree is raised from Q one degree down: the
    reflection sends v_u to v_u - c_u alpha, so

        Q(v_u p) = v_u Q(p) + c_u (p - alpha Q(p)),

    with Q = 0 on degree 0.  A miss first fills the degrees below in
    ascending order, so the recursion is at most two levels deep at any
    degree.
    """
    nv = rs.rank
    if n == 0:
        return 1, [[0] * len(monomials(nv, -1))]
    for d in range(1, n):
        _quotient_columns(rs, root_idx, d)
    den, q_cols = _quotient_columns(rs, root_idx, n - 1)
    alpha, coroot = rs.work_roots[root_idx], rs.work_coroots[root_idx]
    # one degree up multiplies the denominator by step
    step = math.lcm(*(x.denominator for c in coroot for x in (c, *(c * a for a in alpha))))
    co = [int(c * step) for c in coroot]
    # -c_u alpha_w step, the coefficient of v_w Q(p) in Q(v_u p) step
    lin = [[(w, int(-c * a * step)) for w, a in enumerate(alpha) if a] if c else []
           for c in coroot]
    return _raise_quotient(nv, n, den, q_cols, step, co, lin)


def _raise_quotient(nv, deg, den, q_prev, step, coroot, lin):
    """(den * step, columns) of Q on the degree-deg layer from (den,
    columns) one degree down.  In the order of `monomials`, v_u times the
    i-th monomial of one degree is the (i + u)-th monomial of the next."""
    size = len(monomials(nv, deg - 1))
    cols = []
    for c, m in enumerate(monomials(nv, deg)):
        u = 0 if m[0] else 1  # m = v_u times monomial c - u one degree down
        q = q_prev[c - u]
        col = [0] * size
        col[c - u] = coroot[u] * den
        for w, x in lin[u]:
            for t, qv in enumerate(q, w):
                col[t] += x * qv
        for t, qv in enumerate(q, u):
            col[t] += step * qv
        cols.append(col)
    return den * step, cols


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


def _split(w: QuadExt):
    """The nonzero pieces (sigma, w_sigma) of w = w_0 + w_1 sqrt(3)."""
    return [(sg, v) for sg, v in enumerate((w.a, w.b)) if v]


def _assemble(rs: RootSystem, rep, y, n: int):
    """The Dunkl operator in direction y on the degree-n layer of the
    standard module of rep, in the working coordinates: D = d_y (x) 1 and
    the orbit sums A, B of <alpha, y> Q_alpha (x) rep(s_alpha) over the
    short and the long positive roots.

    Each weight (y_i s_i for D, since d/dx_i = s_i d/dv_i, and
    <alpha, y> rep(s_alpha)[s][t] for A and B) is split as
    w_0 + w_1 sqrt(3), so each part P is a pair of integer matrices P_0, P_1
    over one denominator den, and its public cell (r, c) is
    sum_sigma P_sigma[r][c] / den * sqrt(3)^(h(r) - h(c) + sigma), h from
    _sqrt3_powers.  Returns (rows, cols, den, cells): per part, its nonzero
    entries as (row-major cell index, value, power of sqrt(3)).
    """
    nv, d = rs.rank, rep.dim
    mono = monomials(nv, n)
    rows, cols = len(monomials(nv, n - 1)) * d, len(mono) * d
    size = rows * cols
    dw = [(i, sg, v) for i in range(nv)
          for sg, v in _split(y[i] * SQRT3 ** rs.sqrt3_exp[i])]
    roots = []  # ((den, columns) of Q_alpha, [(flat offset, weight piece)])
    for ridx in range(rs.num_positive):
        ay = dot(rs.positive_roots[ridx], y)
        if ay:
            base = (2 + 2 * rs.orbit_of[ridx]) * size
            rm = rep.matrix(rs.reflection_element[ridx])
            ws = [(base + sg * size + s * cols + t, v) for s in range(d)
                  for t in range(d) for sg, v in _split(ay * rm[s][t])]
            roots.append((_quotient_columns(rs, ridx, n), ws))
    den = math.lcm(*(v.denominator for _, _, v in dw),
                   *(qden * v.denominator for (qden, _), ws in roots for _, v in ws))
    flat = [0] * (6 * size)
    # d/dv_i sends monomial b to m_i times monomial b - i
    for i, sg, v in dw:
        w = v.numerator * (den // v.denominator)
        for b, m in enumerate(mono):
            if m[i]:
                for s in range(d):
                    flat[sg * size + ((b - i) * d + s) * cols + b * d + s] = w * m[i]
    for (qden, qcols), ws in roots:
        wi = [(off, v.numerator * (den // (qden * v.denominator))) for off, v in ws]
        for b, qcol in enumerate(qcols):
            for a, qv in enumerate(qcol):
                if qv:
                    cell = a * d * cols + b * d
                    for off, w in wi:
                        flat[cell + off] += qv * w
    hr, hc = _sqrt3_powers(rs, n - 1, d), _sqrt3_powers(rs, n, d)
    return rows, cols, den, [
        [(i, v, hr[i // cols] - hc[i % cols] + sg) for sg in (0, 1)
         for i, v in enumerate(flat[(2 * p + sg) * size:(2 * p + sg + 1) * size]) if v]
        for p in range(3)]


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
    indices and its values.  Built by _integer_parts."""

    __slots__ = ("rows", "cols", "den", "parts")

    def __init__(self, rows: int, cols: int, den: int, parts):
        self.rows, self.cols, self.den, self.parts = rows, cols, den, parts

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


def _integer_parts(rs: RootSystem, rep, y, n: int) -> LoweringParts:
    """The parts of _assemble in the public basis over the least common
    denominator.  A nonzero entry with an odd power of sqrt(3) has no
    integer form and raises InvariantViolation, so the check runs once per
    part set, for every coupling at once."""
    rows, cols, den, parts = _assemble(rs, rep, y, n)
    for i, _, k in chain.from_iterable(parts):
        if k % 2:
            raise InvariantViolation(
                f"lowering part cell {i} has a sqrt(3) part: no integer form")
    # value * 3^(k/2) / den, over den * 3^shift
    shift = max([0] + [-k // 2 for _, _, k in chain.from_iterable(parts)])
    ints = [sorted((i, v * 3 ** (k // 2 + shift)) for i, v, k in cells)
            for cells in parts]
    den *= 3 ** shift
    g = math.gcd(den, *(v for _, v in chain.from_iterable(ints)))
    return LoweringParts(rows, cols, den // g, tuple(
        (array("I", (i for i, _ in cells)), tuple(v // g for _, v in cells))
        for cells in ints))


def lowering_matrix(rs: RootSystem, rep, y, n: int, k1, k2):
    """Matrix of the Dunkl operator in direction y on the degree-n layer
    of the standard module with lowest-weight representation rep.  Any
    direction is allowed, so values may carry sqrt(3): the parts of
    `_assemble` are taken to the public basis in QuadExt, without the
    integer form."""
    rows, cols, den, cells_by_part = _assemble(rs, rep, y, n)
    parts = []
    for cells in cells_by_part:
        vals = {}
        for i, v, k in cells:
            vals[i] = vals.get(i, QZERO) + _to_public(Rat(v, den), k)
        parts.append((vals.keys(), vals.values()))
    return _combine(rows, cols, parts, (1, k1, k2), QZERO)


def b_direction(rs: RootSystem, j: int):
    """a-coordinates of the metric transfer of the j-th coordinate functional."""
    return rs.metric.gram[j]


@lru_cache(maxsize=None)
def b_lowering_parts(rs: RootSystem, rep, j: int, n: int) -> LoweringParts:
    """The integer parts of the lowering along b_direction(rs, j) on the
    degree-n layer, memoized per (root system, character, direction,
    degree): they do not depend on the couplings."""
    return _integer_parts(rs, rep, b_direction(rs, j), n)


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


@lru_cache(maxsize=None)
def sl2_calibration(rs: RootSystem):
    """One-time consistency check of the sl2 triple, with symbolic couplings.

    Confirms that the lowering operator applied to the raising quadric in
    the polynomial module returns minus the lowest-weight scalar of the
    trivial character, and (in rank 2, where the metric admits an exact
    orthonormal frame) that the frame-built raising and lowering
    operators agree with the inverse-metric contraction.  Memoized per
    root system; a failed check raises and is not memoized, so it runs
    again on the next call.
    """
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
