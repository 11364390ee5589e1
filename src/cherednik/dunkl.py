"""Dunkl operators, their matrices on graded module layers, and the
hidden sl2 triple (quadratic raising operator, quadratic lowering
operator, grading element).

Polynomial-layer data (partial derivatives, difference quotients,
multiplication by the quadric) does not depend on the character or on the
couplings, so those matrices are cached on the root system and shared
by every module and every coupling value.
"""

from __future__ import annotations

import math

from .errors import InvariantViolation
from .scalars import ParamPoly, PP_K1, PP_K2, QuadExt, Rat
from .linalg import mat_mul, mat_vec
from .polynomials import MPoly, div_linear, monomials, weyl_act
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


def coords_poly(vec, degree: int, nvars: int) -> MPoly:
    basis = monomials(nvars, degree)
    terms = {m: c for m, c in zip(basis, vec) if c}
    return MPoly(nvars, terms)


def deriv_matrix(rs: RootSystem, i: int, n: int):
    """Matrix of d/dx_i from the degree-n layer to the degree-(n-1) layer."""
    key = ("d", i, n)
    hit = rs._quot_cache.get(key)
    if hit is not None:
        return hit
    nv = rs.rank
    src = monomials(nv, n)
    dst = {m: r for r, m in enumerate(monomials(nv, n - 1))}
    out = [[QuadExt(0)] * len(src) for _ in range(len(dst))]
    for c, m in enumerate(src):
        if m[i]:
            down = tuple(e - (1 if j == i else 0) for j, e in enumerate(m))
            out[dst[down]][c] = QuadExt(m[i])
    rs._quot_cache[key] = out
    return out


def quotient_matrix(rs: RootSystem, root_idx: int, n: int):
    """Matrix of p -> (p - r.p)/alpha on the degree-n layer, for one
    positive root (a reflection difference quotient)."""
    key = ("q", root_idx, n)
    hit = rs._quot_cache.get(key)
    if hit is not None:
        return hit
    nv = rs.rank
    alpha = rs.positive_roots[root_idx]
    refl = rs.elements[rs.reflection_element[root_idx]]
    src = monomials(nv, n)
    cols = []
    for m in src:
        p = MPoly(nv, {m: QuadExt(1)})
        diff = p - weyl_act(refl, p)
        if diff:
            cols.append(poly_coords(div_linear(diff, alpha), n - 1, nv))
        else:
            cols.append([QuadExt(0)] * len(monomials(nv, n - 1)))
    out = [[cols[c][r] for c in range(len(src))]
           for r in range(len(monomials(nv, n - 1)))]
    rs._quot_cache[key] = out
    return out


def mult_matrix(rs: RootSystem, q: MPoly, n: int, cache_key=None):
    """Matrix of multiplication by a homogeneous q from degree n up."""
    key = ("m", cache_key, n)
    if cache_key is not None:
        hit = rs._quot_cache.get(key)
        if hit is not None:
            return hit
    nv = rs.rank
    d = q.degree()
    src = monomials(nv, n)
    cols = [poly_coords(q * MPoly(nv, {m: QuadExt(1)}), n + d, nv) for m in src]
    out = [[cols[c][r] for c in range(len(src))]
           for r in range(len(monomials(nv, n + d)))]
    if cache_key is not None:
        rs._quot_cache[key] = out
    return out


# -- Dunkl operators -----------------------------------------------------------

def pairing(x, y):
    """Pairing of dual coordinates with a-coordinates (plain dot)."""
    acc = None
    for a, b in zip(x, y):
        v = a * b
        acc = v if acc is None else acc + v
    return acc


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
        ay = pairing(alpha, y)
        if not ay:
            continue
        c = rs.coupling_of_root(a, k1, k2) * ay
        if not c:
            continue
        diff = p - weyl_act(rs.elements[rs.reflection_element[a]], p)
        if diff:
            out = out + div_linear(diff, alpha) * c
    return out


def lowering_matrix(rs: RootSystem, rep, y, n: int, k1, k2):
    """Matrix of the Dunkl operator in direction y on the degree-n layer
    of the standard module with lowest-weight representation rep."""
    nv, d = rs.rank, rep.dim
    src = monomials(nv, n)
    dst = monomials(nv, n - 1)
    rows, cols = len(dst) * d, len(src) * d
    out = [[QuadExt(0)] * cols for _ in range(rows)]
    for i in range(nv):
        yi = y[i]
        if not yi:
            continue
        dm = deriv_matrix(rs, i, n)
        for a in range(len(dst)):
            drow = dm[a]
            for b in range(len(src)):
                v = drow[b]
                if not v:
                    continue
                v = v * yi
                for s in range(d):
                    out[a * d + s][b * d + s] = out[a * d + s][b * d + s] + v
    for ridx in range(rs.num_positive):
        alpha = rs.positive_roots[ridx]
        ay = pairing(alpha, y)
        if not ay:
            continue
        c = ay * rs.coupling_of_root(ridx, k1, k2)
        if not c:
            continue
        qm = quotient_matrix(rs, ridx, n)
        rm = rep.matrix(rs.reflection_element[ridx])
        for a in range(len(dst)):
            qrow = qm[a]
            for b in range(len(src)):
                qv = qrow[b]
                if not qv:
                    continue
                for s in range(d):
                    for t in range(d):
                        rv = rm[s][t]
                        if not rv:
                            continue
                        cell = out[a * d + s][b * d + t]
                        out[a * d + s][b * d + t] = cell + (qv * rv) * c
    return out


def b_direction(rs: RootSystem, j: int):
    """a-coordinates of the metric transfer of the j-th coordinate functional."""
    return rs.metric.gram[j]


def b_lowering_matrix(rs: RootSystem, rep, j: int, n: int, k1, k2):
    return lowering_matrix(rs, rep, b_direction(rs, j), n, k1, k2)


# -- the sl2 triple -------------------------------------------------------------

def e_mult_matrix(rs: RootSystem, rep, n: int):
    """Matrix of the raising operator (multiplication by the invariant
    quadric) from the degree-n layer to the degree-(n+2) layer."""
    base = mult_matrix(rs, rs.e_poly, n, cache_key="e")
    return _kron_identity(base, rep.dim)


def _kron_identity(base, d):
    if d == 1:
        return [row[:] for row in base]
    rows, cols = len(base), len(base[0])
    out = [[QuadExt(0)] * (cols * d) for _ in range(rows * d)]
    for a in range(rows):
        for b in range(cols):
            v = base[a][b]
            if not v:
                continue
            for s in range(d):
                out[a * d + s][b * d + s] = v
    return out


def f_contract(rs: RootSystem, low_n, low_m):
    """The quadratic lowering operator -(1/2) sum g^{jl} L_j L_l, from
    the lowerings along the metric transfers: low_n[l] on the degree-n
    layer and low_m[j] on the degree-(n-1) layer."""
    ginv = rs.metric.inv
    acc = None
    for l in range(rs.rank):
        for j in range(rs.rank):
            g = ginv[j][l]
            if not g:
                continue
            prod = mat_mul(low_m[j], low_n[l])
            scale = g * Rat(-1, 2)
            for prow in prod:
                for c, v in enumerate(prow):
                    if v:
                        prow[c] = v * scale
            if acc is None:
                acc = prod
            else:
                for arow, prow in zip(acc, prod):
                    for c, v in enumerate(prow):
                        if v:
                            arow[c] = arow[c] + v
    return acc


def f_matrix(rs: RootSystem, rep, n: int, k1, k2):
    """Matrix of the quadratic lowering operator from the degree-n layer
    to the degree-(n-2) layer."""
    if n < 2:
        raise ValueError("the quadratic lowering operator needs degree >= 2")
    low_n, low_m = ([b_lowering_matrix(rs, rep, j, d, k1, k2) for j in range(rs.rank)]
                    for d in (n, n - 1))
    return f_contract(rs, low_n, low_m)


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
            alt = prod if alt is None else [
                [a + b for a, b in zip(ra, rb)] for ra, rb in zip(alt, prod)]
        for r in range(len(alt)):
            for c in range(len(alt[0])):
                v = alt[r][c] * half
                if ParamPoly.coerce(direct[r][c]) != ParamPoly.coerce(-v if v else v):
                    raise InvariantViolation(f"{rs.label}: frame lowering mismatch")


def _orthonormal_frame(rs: RootSystem):
    """Gram-Schmidt frame for the invariant form, if it stays inside the
    quadratic extension."""
    g = rs.metric.gram
    if rs.rank == 1:
        s = _quad_sqrt(g[0][0])
        return ((s.inv(),),) if s is not None else None
    if g[0][1]:
        b01 = g[0][1] / g[0][0]
        u2 = (-b01, QuadExt(1))
        u2_len = g[1][1] - g[0][1] * b01
    else:
        u2 = (QuadExt(0), QuadExt(1))
        u2_len = g[1][1]
    s1 = _quad_sqrt(g[0][0])
    s2 = _quad_sqrt(u2_len)
    if s1 is None or s2 is None:
        return None
    i1, i2 = s1.inv(), s2.inv()
    return ((i1, QuadExt(0)), (u2[0] * i2, u2[1] * i2))
