import copy
import random

import pytest

from cherednik.errors import InvariantViolation
from cherednik.scalars import SQRT3, QuadExt, Rat
from cherednik.polynomials import (MPoly, ParamPoly, PP_K1, PP_K2, monomials,
                                   weyl_act)
from cherednik.rootsystem import Metric, RootSystem, build_root_system, hbar_poly
from cherednik.wrep import Irrep, _build_irreps, get_irrep, irreps
from cherednik.dunkl import (b_direction, b_lowering_parts,
                             dunkl_apply, e_mult_matrix,
                             f_matrix, lowering_matrix, lowest_weight_scalar,
                             poly_coords, reflection_sum_scalar,
                             sl2_calibration)
from cherednik.dunkl import (_frame_check, _integer_parts, _orthonormal_frame,
                             _quotient_columns, _sqrt3_powers, _to_public)
from cherednik.linalg import dot, mat_inv, mat_mul, mat_vec, transpose

RNG = random.Random(505)
TYPES = ("A1", "A2", "B2", "G2")


def rand_poly(nvars, maxdeg):
    p = MPoly.zero(nvars)
    for _ in range(5):
        e = tuple(RNG.randint(0, maxdeg) for _ in range(nvars))
        if sum(e) > maxdeg:
            continue
        p = p + MPoly(nvars, {e: Rat(RNG.randint(-5, 5))})
    return p


def rand_k():
    return Rat(RNG.randint(-6, 6), RNG.choice((1, 2, 3)))


def rand_dir(n):
    return [Rat(RNG.randint(-3, 3)) for _ in range(n)]


def coords_poly(vec, degree, nvars):
    """The polynomial with coordinates vec in the degree-d monomial basis."""
    return MPoly(nvars, {m: c for m, c in zip(monomials(nvars, degree), vec) if c})


def act_a(rs, w, y):
    """Action of group element w on a-coordinates (inverse transpose)."""
    return mat_vec(transpose(mat_inv(rs.elements[w])), y)


def test_reduces_to_derivative_at_zero_coupling():
    for label in TYPES:
        rs = build_root_system(label)
        for _ in range(4):
            p = rand_poly(rs.rank, 4)
            y = rand_dir(rs.rank)
            want = MPoly.zero(rs.rank)
            for i in range(rs.rank):
                if y[i]:
                    want = want + p.diff(i) * y[i]
            assert dunkl_apply(rs, y, p, Rat(0), Rat(0)) == want


def test_commutativity_numeric():
    for label in TYPES:
        rs = build_root_system(label)
        k1, k2 = rand_k(), rand_k()
        for _ in range(6):
            y1, y2 = rand_dir(rs.rank), rand_dir(rs.rank)
            p = rand_poly(rs.rank, 4)
            a = dunkl_apply(rs, y2, dunkl_apply(rs, y1, p, k1, k2), k1, k2)
            b = dunkl_apply(rs, y1, dunkl_apply(rs, y2, p, k1, k2), k1, k2)
            assert a == b


def test_covariance_under_group():
    # w T_y w^{-1} = T_{w(y)}
    for label in TYPES:
        rs = build_root_system(label)
        k1, k2 = rand_k(), rand_k()
        for _ in range(5):
            w = RNG.randrange(len(rs.elements))
            wi = rs.inverse[w]
            y = rand_dir(rs.rank)
            p = rand_poly(rs.rank, 3)
            lhs = weyl_act(rs.elements[w],
                           dunkl_apply(rs, y, weyl_act(rs.elements[wi], p),
                                       k1, k2))
            wy = act_a(rs, w, [QuadExt.coerce(c) for c in y])
            rhs = dunkl_apply(rs, wy, p, k1, k2)
            assert lhs == rhs


def test_commutator_with_coordinate():
    # [T_y, x_j] = <y, x_j> + sum_a k_a <alpha, y> <alpha-check, x_j> r_a
    for label in TYPES:
        rs = build_root_system(label)
        k1, k2 = rand_k(), rand_k()
        for _ in range(4):
            y = rand_dir(rs.rank)
            j = RNG.randrange(rs.rank)
            xj = MPoly.var(j, rs.rank)
            p = rand_poly(rs.rank, 3)
            lhs = (dunkl_apply(rs, y, xj * p, k1, k2)
                   - xj * dunkl_apply(rs, y, p, k1, k2))
            rhs = p * y[j]
            for a in range(rs.num_positive):
                alpha = rs.positive_roots[a]
                co = rs.coroots[a]
                c = rs.coupling_of_root(a, k1, k2) * dot(alpha, y) * co[j]
                if not c:
                    continue
                refl = weyl_act(rs.elements[rs.reflection_element[a]], p)
                rhs = rhs + refl * c
            assert lhs == rhs


def quotient_oracle(rs, ridx, n):
    """Matrix of p -> (p - r.p)/alpha built monomial by monomial."""
    nv = rs.rank
    alpha = rs.positive_roots[ridx]
    refl = rs.elements[rs.reflection_element[ridx]]
    cols = []
    for m in monomials(nv, n):
        p = MPoly(nv, {m: QuadExt(1)})
        diff = p - weyl_act(refl, p)
        q = diff.divexact(MPoly.from_linear(alpha)) if diff else MPoly.zero(nv)
        cols.append(poly_coords(q, n - 1, nv))
    return [list(row) for row in zip(*cols)]


def quotient_matrix(rs, root_idx, n):
    """Matrix of p -> (p - r.p)/alpha on the degree-n layer, for one
    positive root (a reflection difference quotient): the integer columns
    of _quotient_columns taken to the public basis."""
    den, cols = _quotient_columns(rs, root_idx, n)
    hr, hc = _sqrt3_powers(rs, n - 1), _sqrt3_powers(rs, n)
    return [[_to_public(Rat(col[a], den), h - hc[b]) for b, col in enumerate(cols)]
            for a, h in enumerate(hr)]


def test_quotient_matrix_matches_definition():
    for label in TYPES:
        rs = RootSystem(label)  # fresh caches: every degree comes from the recursion
        for ridx in range(rs.num_positive):
            for n in range(1, 13):
                assert quotient_matrix(rs, ridx, n) == quotient_oracle(rs, ridx, n)
        # with the cached layers gone, a lower degree restarts from degree 0
        _quotient_columns.cache_clear()
        for ridx in range(rs.num_positive):
            assert quotient_matrix(rs, ridx, 5) == quotient_oracle(rs, ridx, 5)


def test_cold_deep_quotient_recurses_shallowly():
    # a miss fills the degrees below in ascending order, so a cold call far
    # above the interpreter's recursion limit returns; on A1, Q(v^n) is
    # 2 v^(n-1) / alpha for odd n and 0 for even n
    rs = build_root_system("A1")
    _quotient_columns.cache_clear()
    assert _quotient_columns(rs, 0, 3000)[1] == [[0]]
    assert quotient_matrix(rs, 0, 2999) == quotient_matrix(rs, 0, 1) != [[0]]


def direct_action(rs, rep, y, p, t, k1, k2):
    """The Dunkl operator on p (x) e_t in M(rep), one polynomial per basis
    vector of rep: d_y p (x) e_t + sum k <alpha, y> Q_alpha(p) (x) rep(s_alpha) e_t."""
    out = []
    for s in range(rep.dim):
        acc = MPoly.zero(rs.rank)
        if s == t:
            for i in range(rs.rank):
                if y[i]:
                    acc = acc + p.diff(i) * y[i]
        for a in range(rs.num_positive):
            alpha = rs.positive_roots[a]
            rv = rep.matrix(rs.reflection_element[a])[s][t]
            c = dot(alpha, y) * rv
            if not c:
                continue
            diff = p - weyl_act(rs.elements[rs.reflection_element[a]], p)
            if diff:
                acc = acc + (diff.divexact(MPoly.from_linear(alpha))
                             * (rs.coupling_of_root(a, k1, k2) * c))
        out.append(acc)
    return out


def test_lowering_matrix_matches_direct_action():
    for label in TYPES:
        rs = build_root_system(label)
        for rep in irreps(rs):
            d = rep.dim
            for k1, k2 in ((rand_k(), rand_k()), (PP_K1, PP_K2)):
                for n in (1, 2, 3):
                    for j in range(rs.rank):
                        mat = lowering_matrix(rs, rep, b_direction(rs, j), n, k1, k2)
                        for b, mono in enumerate(monomials(rs.rank, n)):
                            p = MPoly(rs.rank, {mono: Rat(1)})
                            for t in range(d):
                                want = direct_action(rs, rep, b_direction(rs, j),
                                                     p, t, k1, k2)
                                col = [row[b * d + t] for row in mat]
                                for s in range(d):
                                    got = coords_poly(col[s::d], n - 1, rs.rank)
                                    assert got == want[s]
            # the general-direction path, along a direction with sqrt(3) parts
            y = [QuadExt(RNG.randint(-3, 3), RNG.randint(-3, 3))
                 for _ in range(rs.rank)]
            k1, k2 = rand_k(), rand_k()
            n = 3
            mat = lowering_matrix(rs, rep, y, n, k1, k2)
            for b, mono in enumerate(monomials(rs.rank, n)):
                p = MPoly(rs.rank, {mono: Rat(1)})
                for t in range(d):
                    want = direct_action(rs, rep, y, p, t, k1, k2)
                    col = [row[b * d + t] for row in mat]
                    for s in range(d):
                        assert coords_poly(col[s::d], n - 1, rs.rank) == want[s]
        triv = get_irrep(rs, "triv")
        k1, k2 = rand_k(), rand_k()
        mat = lowering_matrix(rs, triv, b_direction(rs, 0), 2, k1, k2)
        for mono in monomials(rs.rank, 2):
            p = MPoly(rs.rank, {mono: Rat(1)})
            got = coords_poly(mat_vec(mat, poly_coords(p, 2, rs.rank)), 1, rs.rank)
            assert got == dunkl_apply(rs, b_direction(rs, 0), p, k1, k2)


def test_lowering_parts_split_by_orbit():
    def dense(parts, part):
        flat = [0] * (parts.rows * parts.cols)
        for i, v in zip(*part):
            flat[i] = v
        return [flat[r * parts.cols:(r + 1) * parts.cols] for r in range(parts.rows)]

    for label in TYPES:
        rs = build_root_system(label)
        for rep in irreps(rs):
            d = rep.dim
            k1, k2 = rand_k(), rand_k()
            for n in (1, 3):
                for j in range(rs.rank):
                    parts = b_lowering_parts(rs, rep, j, n)
                    dm, am, bm = (dense(parts, p) for p in parts.parts)
                    want = lowering_matrix(rs, rep, b_direction(rs, j), n, k1, k2)
                    assert [[(x + a * k1 + b * k2) / parts.den
                             for x, a, b in zip(*rows)]
                            for rows in zip(dm, am, bm)] == want
                    # D is d_y (x) 1; B is empty on the one-orbit types
                    assert all(not v for r, row in enumerate(dm)
                               for c, v in enumerate(row) if r % d != c % d)
                    if not rs.orbit_counts[1]:
                        assert not any(v for row in bm for v in row)


def test_cold_lowering_parts_match_direct_action():
    # a fresh root system and fresh irreps: every quotient and part of the
    # degree-7 layer is built from nothing, then checked against the
    # polynomial-side operator at a random rational point
    n = 7
    for label in TYPES:
        rs = RootSystem(label)
        for rep in _build_irreps(rs):
            d = rep.dim
            k1, k2 = rand_k(), rand_k()
            for j in range(rs.rank):
                parts = b_lowering_parts(rs, rep, j, n)
                flat = [Rat(0)] * (parts.rows * parts.cols)
                for (idx, vals), c in zip(parts.parts, (1, k1, k2)):
                    for i, v in zip(idx, vals):
                        flat[i] += c * Rat(v, parts.den)
                y = b_direction(rs, j)
                for b, mono in enumerate(monomials(rs.rank, n)):
                    p = MPoly(rs.rank, {mono: Rat(1)})
                    for t in range(d):
                        want = direct_action(rs, rep, y, p, t, k1, k2)
                        col = flat[b * d + t::parts.cols]
                        for s in range(d):
                            assert coords_poly(col[s::d], n - 1, rs.rank) == want[s]


def test_lowering_parts_reject_sqrt3_part():
    # a one-dimensional "rep" of A2 whose matrices are sqrt(3): the A part of
    # each lowering has entries with a sqrt(3) part, which have no integer form
    rs = RootSystem("A2")
    bad = Irrep(rs, "sqrt3", [((SQRT3,),)] * len(rs.elements))
    k1, k2 = rand_k(), rand_k()
    for j in range(rs.rank):
        with pytest.raises(InvariantViolation, match=r"sqrt\(3\) part"):
            b_lowering_parts(rs, bad, j, 2)
        # the general path finishes the same assembly in Q(sqrt(3))
        mat = lowering_matrix(rs, bad, b_direction(rs, j), 2, k1, k2)
        assert any(v.b for row in mat for v in row)


def test_cold_lowering_parts_make_no_quadext_products_per_cell():
    # the quotients and the part assembly run on ints: a cold build makes the
    # same few QuadExt products (the weights) at every degree
    def count_products(n):
        rs = RootSystem("G2")
        std = next(rep for rep in _build_irreps(rs) if rep.label == "std")
        calls = [0]
        mul = QuadExt.__mul__

        def counting(self, other):
            calls[0] += 1
            return mul(self, other)

        QuadExt.__mul__ = QuadExt.__rmul__ = counting
        try:
            for j in range(rs.rank):
                b_lowering_parts(rs, std, j, n)
        finally:
            QuadExt.__mul__ = QuadExt.__rmul__ = mul
        return calls[0]

    assert count_products(12) == count_products(4)


def test_numeric_lowering_is_symbolic_evaluated():
    for label in TYPES:
        rs = build_root_system(label)
        for rep in irreps(rs):
            k1, k2 = rand_k(), rand_k()
            for n in range(1, 5):
                for j in range(rs.rank):
                    y = b_direction(rs, j)
                    num = lowering_matrix(rs, rep, y, n, k1, k2)
                    sym = lowering_matrix(rs, rep, y, n, PP_K1, PP_K2)
                    assert num == [[ParamPoly.coerce(e).eval2(k1, k2) for e in row]
                                   for row in sym]


def test_hand_built_irrep_gets_its_own_parts():
    # a rep whose label matches a stock one but whose matrices do not
    rs = build_root_system("G2")
    std, std_tau = get_irrep(rs, "std"), get_irrep(rs, "std_tau")
    impostor = Irrep(rs, "std", std_tau.matrices)
    for n in (1, 2, 3):
        for j in range(rs.rank):
            b_lowering_parts(rs, std, j, n)  # fill the stock cache first
            got = b_lowering_parts(rs, impostor, j, n).parts
            assert got == b_lowering_parts(rs, std_tau, j, n).parts
            assert got != b_lowering_parts(rs, std, j, n).parts


def test_lowering_parts_follow_a_copied_root_system():
    # a copy of B2 with another metric has other transfer directions, so
    # other parts, even when the stock parts of the same irrep are memoized
    stock = build_root_system("B2")
    rs = copy.copy(stock)
    rs.metric = Metric(((QuadExt(24), QuadExt(0)), (QuadExt(0), QuadExt(24))))
    for rep in irreps(stock):
        for j in range(rs.rank):
            for n in (1, 2, 3):
                b_lowering_parts(stock, rep, j, n)
                got = b_lowering_parts(rs, rep, j, n)
                want = _integer_parts(rs, rep, b_direction(rs, j), n)
                assert (got.den, got.parts) == (want.den, want.parts)


def test_degree_zero_layer_shapes():
    # the degree -1 layer is empty in every rank: no rows below degree 0
    for label in TYPES:
        rs = build_root_system(label)
        assert quotient_matrix(rs, 0, 0) == []
        for rep in irreps(rs):
            for j in range(rs.rank):
                parts = b_lowering_parts(rs, rep, j, 0)
                assert (parts.rows, parts.cols) == (0, rep.dim)
                low = lowering_matrix(rs, rep, b_direction(rs, j), 0, rand_k(), rand_k())
                assert low == []


def test_sl2_calibration_all_types():
    for label in TYPES:
        sl2_calibration(build_root_system(label))  # raises on failure


def test_frame_check_rejects_a_non_diagonal_metric():
    # the frame is exact along the coordinate axes only; a metric with an
    # off-diagonal entry (here one with an exact Gram-Schmidt frame) has none
    rs = copy.copy(build_root_system("A2"))
    rs.metric = Metric(((QuadExt(12), QuadExt(6)), (QuadExt(6), QuadExt(12))))
    assert _orthonormal_frame(rs) is None
    with pytest.raises(InvariantViolation, match="no exact orthonormal frame"):
        _frame_check(rs, get_irrep(rs, "triv"))


def test_commutator_ef_is_graded_scalar():
    # [E, F] acts on the degree-n layer of M(triv) by (hbar + n)
    for label in TYPES:
        rs = build_root_system(label)
        triv = get_irrep(rs, "triv")
        hb = hbar_poly(rs)
        for n in (0, 1, 2, 3):
            dim = len(monomials(rs.rank, n))
            ef = None
            if n >= 2:
                ef = mat_mul(e_mult_matrix(rs, triv, n - 2),
                             f_matrix(rs, triv, n, PP_K1, PP_K2))
            fe = mat_mul(f_matrix(rs, triv, n + 2, PP_K1, PP_K2),
                         e_mult_matrix(rs, triv, n))
            want = hb + Rat(n)
            for i in range(dim):
                for j in range(dim):
                    v = ParamPoly.coerce(fe[i][j])
                    if ef is not None:
                        v = ParamPoly.coerce(ef[i][j]) - v
                    else:
                        v = -v
                    assert v == (want if i == j else ParamPoly())


def test_lowest_weight_scalars():
    a2 = build_root_system("A2")
    k = Rat(2, 3)
    assert lowest_weight_scalar(a2, get_irrep(a2, "triv"), k, k) == 1 + 3 * k
    assert lowest_weight_scalar(a2, get_irrep(a2, "sgn"), k, k) == 1 - 3 * k
    assert reflection_sum_scalar(a2, get_irrep(a2, "std"), k, k) == 0
    g2 = build_root_system("G2")
    k1, k2 = Rat(1, 2), Rat(-1, 3)
    assert (lowest_weight_scalar(g2, get_irrep(g2, "triv"), k1, k2)
            == 1 + 3 * (k1 + k2))
    assert (lowest_weight_scalar(g2, get_irrep(g2, "tau"), k1, k2)
            == 1 + 3 * (k1 - k2))
    assert lowest_weight_scalar(g2, get_irrep(g2, "std"), k1, k2) == 1
