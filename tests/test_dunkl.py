import copy
import math
import random
from fractions import Fraction
from itertools import chain

import pytest

from cherednik.errors import InvariantViolation
from cherednik import scalars
from cherednik.scalars import SQRT3, QuadExt, Rat
from cherednik.polynomials import (MPoly, ParamPoly, PP_K1, PP_K2, monomials,
                                   weyl_act)
from cherednik.rootsystem import RootSystem, build_root_system
from cherednik.wrep import Irrep, _build_irreps, get_irrep, irreps
from cherednik.dunkl import (b_direction, b_lowering_parts, b_lowering_residues,
                             dunkl_apply, e_mult_matrix, f_apply, f_coefficient,
                             f_matrix, lowering_matrix, lowest_weight_scalar,
                             natural_m, poly_coords, reflection_sum_scalar,
                             sl2_calibration)
from cherednik import dunkl
from cherednik.dunkl import _quotient_columns, _quotient_layers, _root_pairs
from cherednik.linalg import PRIME, dot, identity, mat_mul, mat_vec
from cherednik.verma import VermaModule, classify

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
    of _quotient_columns taken to the public basis, where x^m =
    sqrt(3)^(-h(m)) v^m with h(m) = sum_i e_i m_i."""
    den, cols = _quotient_columns(rs, root_idx, n)
    hr, hc = ([sum(e * k for e, k in zip(rs.sqrt3_exp, m)) for m in monomials(rs.rank, d)]
              for d in (n - 1, n))
    return [[QuadExt(Rat(col[a], den)) * SQRT3 ** (h - hc[b]) for b, col in enumerate(cols)]
            for a, h in enumerate(hr)]


def test_quotient_matrix_matches_definition():
    for label in TYPES:
        rs = RootSystem(label)  # fresh caches: every degree is raised from the one below
        for ridx in range(rs.num_positive):
            for n in range(1, 13):
                assert quotient_matrix(rs, ridx, n) == quotient_oracle(rs, ridx, n)
        # with the kept degrees gone, a lower degree restarts from degree 0
        _quotient_layers.cache_clear()
        for ridx in range(rs.num_positive):
            assert quotient_matrix(rs, ridx, 5) == quotient_oracle(rs, ridx, 5)


def test_cold_deep_quotient_recurses_shallowly():
    # the missing degrees are appended in a loop, so a cold call far above
    # the interpreter's recursion limit returns; on A1, Q(v^n) is
    # 2 v^(n-1) / alpha for odd n and 0 for even n
    rs = build_root_system("A1")
    _quotient_layers.cache_clear()
    assert _quotient_columns(rs, 0, 3000)[1] == [[0]]
    assert quotient_matrix(rs, 0, 2999) == quotient_matrix(rs, 0, 1) != [[0]]


def test_negative_degree_quotient_raises():
    # a negative index would read the kept list from its end
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        _quotient_columns(rs, 0, -1)
    with pytest.raises(ValueError):
        lowering_matrix(rs, get_irrep(rs, "triv"), [Rat(1), Rat(0)], -1, Rat(1), Rat(1))


def test_poly_coords_refuses_a_non_homogeneous_polynomial():
    p = MPoly(2, {(2, 0): QuadExt(1), (0, 1): QuadExt(1)})
    with pytest.raises(InvariantViolation, match="homogeneous degree-2"):
        poly_coords(p, 2, 2)


def test_f_matrix_needs_degree_two():
    rs = build_root_system("A2")
    with pytest.raises(ValueError, match="degree >= 2"):
        f_matrix(rs, get_irrep(rs, "triv"), 1, Rat(1), Rat(1))


def test_quotients_do_not_depend_on_request_order():
    for label in TYPES:
        rs = RootSystem(label)
        want = {(r, n): _quotient_columns(rs, r, n)
                for r in range(rs.num_positive) for n in range(16)}
        _quotient_layers.cache_clear()
        keys = list(want)
        random.Random(7).shuffle(keys)
        for r, n in keys:
            assert _quotient_columns(rs, r, n) == want[r, n], (label, r, n)


def test_quotient_memo_traffic_is_linear(monkeypatch):
    # one call per part build, none from inside: a scan to degree 600 made
    # about 180,000 calls when each degree re-read every degree below.  The
    # A1 root is an axis root, read in closed form, so only the A2 scan
    # raises a quotient, that of its one pair
    calls = []
    inner = dunkl._quotient_columns

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(dunkl, "_quotient_columns", counted)
    _quotient_layers.cache_clear()
    b_lowering_parts.cache_clear()
    assert not classify("A1", "sgn", Rat(1, 3), Rat(1, 3), scan_bound=600).finite
    assert not calls
    assert not classify("A2", "triv", Rat(1, 7), Rat(1, 7), scan_bound=60).finite
    assert {args[1] for args in calls} == {1}
    assert 60 <= len(calls) <= 3 * 60


def recursive_quotients(rs, root_idx):
    """(den, columns) of Q on degrees 0, 1, ... for any root, each degree
    raised from the one below by Q(v_u p) = v_u Q(p) + c_u (p - alpha Q(p))
    cell by cell, with no pairing and no closed form: the reference for
    _quotient_columns and for the relations _assemble relies on."""
    alpha, coroot = rs.work_roots[root_idx], rs.work_coroots[root_idx]
    step = math.lcm(*(x.denominator for c in coroot for x in (c, *(c * a for a in alpha))))
    den, cols, deg = 1, [[]], 0
    while True:
        yield den, cols
        deg, size, prev, cols = deg + 1, len(monomials(rs.rank, deg)), cols, []
        for c, m in enumerate(monomials(rs.rank, deg)):
            u = 0 if m[0] else 1
            q, col = prev[c - u], [0] * size
            col[c - u] = int(coroot[u] * step) * den
            for w, a in enumerate(alpha):
                for t, qv in enumerate(q, w):
                    col[t] += int(-coroot[u] * a * step) * qv
            for t, qv in enumerate(q, u):
                col[t] += step * qv
            cols.append(col)
        den *= step


def test_quotients_of_a_pair_and_of_axis_roots():
    # every root's quotient equals the plain recursion; a partner's is
    # eps (-1)^(a + b + 1) times its root's at cell (a, b), and an axis
    # root's is c_i at the cells (b - i, b) with m_i odd
    for label in TYPES:
        rs = RootSystem(label)
        groups = _root_pairs(rs)
        assert sorted(chain.from_iterable(set(g[:2]) for g in groups)) == list(
            range(rs.num_positive))
        raised = [recursive_quotients(rs, r) for r in range(rs.num_positive)]
        for n, want in zip(range(31), zip(*raised)):
            assert [_quotient_columns(rs, r, n) for r in range(rs.num_positive)] == list(want), n
            for r, partner, eps, axis in groups:
                den, cols = want[r]
                if axis is None:
                    assert want[partner] == (den, [
                        [eps * (-1) ** (a + b + 1) * v for a, v in enumerate(col)]
                        for b, col in enumerate(cols)]), (label, r, n)
                    continue
                coroot = rs.work_coroots[r]
                assert partner == r and all(x == 0 for i, x in enumerate(coroot) if i != axis)
                c = coroot[axis]
                for b, (m, col) in enumerate(zip(monomials(rs.rank, n), cols)):
                    assert col == [c * den if a == b - axis and m[axis] % 2 else 0
                                   for a in range(len(col))], (label, r, n)


def test_root_pairing_is_checked_when_built():
    # root 0 must be (1, 0) with coroot (2, 0), and s_0 must permute the
    # positive roots up to sign
    rs = RootSystem("G2")
    rs.work_roots = rs.work_roots[1:] + rs.work_roots[:1]
    with pytest.raises(InvariantViolation, match="root 0"):
        _root_pairs(rs)
    rs = RootSystem("B2")
    rs.work_roots = rs.work_roots[:3] + [(Rat(1), Rat(-2))]
    with pytest.raises(InvariantViolation, match="not \\+- a positive root"):
        _root_pairs(rs)


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
            rv = rep.matrices[rs.reflection_element[a]][s][t]
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
                    parts = b_lowering_parts(rs, rep, j, n, 0)
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


def parts_at(parts, k1, k2):
    """The row-major cells of (D + k1 A + k2 B) / den as Rat."""
    flat = [Rat(0)] * (parts.rows * parts.cols)
    for (idx, vals), c in zip(parts.parts, (1, k1, k2)):
        for i, v in zip(idx, vals):
            flat[i] += c * Rat(v, parts.den)
    return flat


def test_cold_lowering_parts_match_direct_action():
    # a fresh root system and fresh irreps: every quotient and part of the
    # degree-7 and the degree-11 layers is built from nothing, then checked
    # against the polynomial-side operator at a random rational point
    for n in (7, 11):
        for label in TYPES:
            rs = RootSystem(label)
            for rep in _build_irreps(rs):
                d = rep.dim
                k1, k2 = rand_k(), rand_k()
                for j in range(rs.rank):
                    parts = b_lowering_parts(rs, rep, j, n, 0)
                    flat = parts_at(parts, k1, k2)
                    y = b_direction(rs, j)
                    for b, mono in enumerate(monomials(rs.rank, n)):
                        p = MPoly(rs.rank, {mono: Rat(1)})
                        for t in range(d):
                            want = direct_action(rs, rep, y, p, t, k1, k2)
                            col = flat[b * d + t::parts.cols]
                            for s in range(d):
                                assert coords_poly(col[s::d], n - 1, rs.rank) == want[s]


def test_parts_tails_and_sqrt3_lowerings_match_direct_action():
    # b_lowering_parts and lowering_matrix read the same public planes of
    # _assemble; the action on polynomials shares none of it.  On fresh A2
    # and G2 (the types with sqrt(3) coordinates), both stock bases: the
    # full parts and the one-row tails of both directions at degree 6, and
    # lowering_matrix along a direction with sqrt(3) parts at degree 5
    rng = random.Random(606)
    for label in ("A2", "G2"):
        rs = RootSystem(label)
        for rep in _build_irreps(rs):
            if rep.label not in ("triv", "std"):
                continue
            d = rep.dim
            k1, k2 = (Rat(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(2))
            sq = tuple(QuadExt(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rs.rank))
            for j, y, n in [(j, b_direction(rs, j), 6) for j in range(rs.rank)] + [(None, sq, 5)]:
                if j is None:
                    mat = lowering_matrix(rs, rep, y, n, k1, k2)
                    reads = [(0, [v for row in mat for v in row], len(mat[0]))]
                else:
                    reads = [(first, parts_at(parts, k1, k2), parts.cols) for first in (0, n - 1)
                             for parts in [b_lowering_parts(rs, rep, j, n, first)]]
                for b, mono in enumerate(monomials(rs.rank, n)):
                    for t in range(d):
                        want = direct_action(rs, rep, y, MPoly(rs.rank, {mono: Rat(1)}), t, k1, k2)
                        for first, flat, cols in reads:
                            col = flat[b * d + t::cols]
                            for s in range(d):
                                assert col[s::d] == poly_coords(want[s], n - 1, rs.rank)[first:], (
                                    label, rep.label, y, first, b, t, s)


def test_warm_part_builds_construct_no_rational(monkeypatch):
    # once the weights and the quotient constants are warm, the parts of a
    # new degree are built on ints alone: no Rat by the name of the modules
    # that build them, and no Fraction at all
    bases = [(rs, rep) for rs in map(RootSystem, TYPES) for rep in _build_irreps(rs)
             if rep.label in ("triv", "std")]
    for rs, rep in bases:
        for j in range(rs.rank):
            b_lowering_parts(rs, rep, j, 1, 0)
    built = []
    rat_new = scalars.Rat

    def counting(*args):
        built.append(args)
        return rat_new(*args)

    monkeypatch.setattr(scalars, "Rat", counting)
    monkeypatch.setattr(dunkl, "Rat", counting)
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for rs, rep in bases:
        for j in range(rs.rank):
            for n in (5, 6):
                for first in sorted({0, n - 1}) if rs.rank == 2 else (0,):
                    b_lowering_parts(rs, rep, j, n, first)
    assert built == []


def test_lowering_parts_reject_sqrt3_part():
    # a one-dimensional "rep" of A2 whose matrices are sqrt(3): the A part of
    # each lowering has entries with a sqrt(3) part, which have no integer form
    rs = RootSystem("A2")
    bad = Irrep(rs, "sqrt3", [((SQRT3,),)] * len(rs.elements))
    k1, k2 = Rat(2, 7), Rat(-3, 5)  # k1 != 0, so that A shows
    for j in range(rs.rank):
        with pytest.raises(InvariantViolation, match=r"sqrt\(3\) part"):
            b_lowering_parts(rs, bad, j, 2, 0)
        # the tail alone runs the same check, and so do the packed residues
        for first in (0, 1):
            with pytest.raises(InvariantViolation, match=r"sqrt\(3\) part"):
                b_lowering_residues(rs, bad, j, 2, first, PRIME)
        with pytest.raises(InvariantViolation, match=r"sqrt\(3\) part"):
            b_lowering_parts(rs, bad, j, 2, 1)
        # the general path finishes the same assembly in Q(sqrt(3))
        mat = lowering_matrix(rs, bad, b_direction(rs, j), 2, k1, k2)
        assert any(v.b for row in mat for v in row)


def test_lowering_tail_is_the_last_rows_of_the_full_parts():
    # the tail (parts from the row of x_1^(n-1)) is built alone, over a
    # denominator of its own: as exact fractions it is the last dim-chi rows
    # of the full parts at any coupling
    couplings = [(1, 0, 0), (3, 2, -5), (7, -1, 4)]
    for label in TYPES:
        rs = build_root_system(label)
        for rep in irreps(rs):
            for j in range(rs.rank):
                for n in range(1, 21):
                    first = len(monomials(rs.rank, n - 1)) - 1
                    full = b_lowering_parts(rs, rep, j, n, 0)
                    tail = b_lowering_parts(rs, rep, j, n, first)
                    assert (tail.rows, tail.cols) == (rep.dim, full.cols)
                    for c in couplings:
                        want = [[Rat(v, full.den) for v in row]
                                for row in full.ints(*c)[-rep.dim:]]
                        assert [[Rat(v, tail.den) for v in row]
                                for row in tail.ints(*c)] == want, (label, rep.label, j, n)


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
                b_lowering_parts(rs, std, j, n, 0)
        finally:
            QuadExt.__mul__ = QuadExt.__rmul__ = mul
        return calls[0]

    assert count_products(12) == count_products(4)


def test_shared_parts_equal_direct_assembly_for_every_twist():
    # every stock irrep and each of its twists by a one-dimensional
    # character, the twist built by hand as a new Irrep object (its own
    # base): the memoized parts equal a direct assembly
    def key(parts):
        return parts.rows, parts.cols, parts.den, parts.parts

    for label in TYPES:
        rs = RootSystem(label)
        stock = irreps(rs)
        reps = list(stock) + [
            Irrep(rs, f"{rep.label}*{tau.label}",
                  [tuple(tuple(c * t[0][0] for c in row) for row in m)
                   for m, t in zip(rep.matrices, tau.matrices)])
            for rep in stock for tau in stock if tau.dim == 1]
        for rep in reps:
            for j in range(rs.rank):
                for n in range(9):
                    want = b_lowering_parts.__wrapped__(rs, rep, j, n, 0)
                    assert key(b_lowering_parts(rs, rep, j, n, 0)) == key(want)


def test_cold_parts_assemble_only_triv_and_std(monkeypatch):
    # every one-dimensional character is a sign twist of triv, and G2
    # std_tau one of std, so the modules of every character on a fresh root
    # system assemble only those, once per base, direction and degree
    assembled = []
    assemble = dunkl._assemble

    def counting(rs_, rep, y, n, first=0):
        assembled.append(rep.label)
        return assemble(rs_, rep, y, n, first)

    monkeypatch.setattr(dunkl, "_assemble", counting)
    for label in TYPES:
        rs = RootSystem(label)
        sl2_calibration(rs)  # assembles triv through lowering_matrix
        assembled.clear()
        for rep in irreps(rs):
            VermaModule(rs, rep, Rat(2, 7), Rat(-3, 5)).gram(4)
        want = ["triv"] if label == "A1" else ["std", "triv"]
        assert sorted(set(assembled)) == want, label
        assert len(assembled) == len(want) * rs.rank * 4, label


def test_twisted_modules_add_no_parts_memo_entries():
    # the memo holds parts of triv and std only: degrees 1-4, every direction
    for label, want in (("A1", 4), ("A2", 16), ("B2", 16), ("G2", 16)):
        rs = RootSystem(label)
        before = b_lowering_parts.cache_info().currsize
        for rep in irreps(rs):
            VermaModule(rs, rep, Rat(2, 7), Rat(-3, 5)).gram(4)
        assert b_lowering_parts.cache_info().currsize - before == want, label


def test_each_part_set_is_built_once(monkeypatch):
    # one memo key per part set: the full parts have first row 0, so the
    # degree-1 tail of L_1 that a generic rank proof reads, (1, 1, 0), is the
    # full degree-1 L_1 that the raised-vector chain of a finite point reads.
    # A generic point reads the residues of a part set off its integer parts
    # when those are held, so no part set is assembled twice
    rs = RootSystem("G2")
    sl2_calibration(rs)  # assembles triv through lowering_matrix
    built = []  # (j, n, first) of every part build
    assemble = dunkl._assemble

    def counting(rs_, rep, y, n, first=0):
        built.append(([b_direction(rs_, j) for j in range(rs_.rank)].index(y), n, first))
        return assemble(rs_, rep, y, n, first)

    monkeypatch.setattr(dunkl, "_assemble", counting)
    triv = get_irrep(rs, "triv")
    assert VermaModule(rs, triv, Rat(-1, 2), Rat(-1, 2)).classify().finite
    assert not VermaModule(rs, triv, Rat(2, 7), Rat(2, 7)).classify().finite
    assert built.count((1, 1, 0)) == 1
    assert len(built) == len(set(built))
    # a second generic point reads the residues built for the first
    built.clear()
    assert not VermaModule(rs, triv, Rat(3, 7), Rat(3, 7)).classify().finite and built == []
    # the memoized parts are values: no caller can change a shared entry
    parts = b_lowering_parts(rs, triv, 0, 2, 0)
    with pytest.raises(AttributeError):
        parts.den = 1


@pytest.mark.parametrize("value", [SQRT3, 1 + SQRT3])
def test_sqrt3_impostor_is_its_own_sign_class(value, monkeypatch):
    # a hand-built rep is its own base, so it reaches the full assembly and
    # its integer check; with 1 + sqrt(3) every cell of A has an entry on
    # each plane
    rs = RootSystem("A2")
    bad = Irrep(rs, "sqrt3", [((value,),)] * len(rs.elements))
    assert bad.base is bad
    assembled = []
    assemble = dunkl._assemble

    def counting(rs_, rep, y, n, first=0):
        assembled.append(rep)
        return assemble(rs_, rep, y, n, first)

    monkeypatch.setattr(dunkl, "_assemble", counting)
    with pytest.raises(InvariantViolation, match=r"sqrt\(3\) part"):
        b_lowering_parts(rs, bad, 0, 2, 0)
    assert assembled == [bad]


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
            b_lowering_parts(rs, std, j, n, 0)  # fill the stock cache first
            got = b_lowering_parts(rs, impostor, j, n, 0).parts
            assert got == b_lowering_parts(rs, std_tau, j, n, 0).parts
            assert got != b_lowering_parts(rs, std, j, n, 0).parts


def test_lowering_parts_follow_a_copied_root_system():
    # a copy of B2 with another form scale has other transfer directions, so
    # other parts, even when the stock parts of the same irrep are memoized
    stock = build_root_system("B2")
    rs = copy.copy(stock)
    rs.metric_scale = QuadExt(24)
    for rep in irreps(stock):
        for j in range(rs.rank):
            for n in (1, 2, 3):
                b_lowering_parts(stock, rep, j, n, 0)
                got = b_lowering_parts(rs, rep, j, n, 0)
                want = b_lowering_parts.__wrapped__(rs, rep, j, n, 0)
                assert (got.den, got.parts) == (want.den, want.parts)


def test_degree_zero_layer_shapes():
    # the degree -1 layer is empty in every rank: no rows below degree 0
    for label in TYPES:
        rs = build_root_system(label)
        assert quotient_matrix(rs, 0, 0) == []
        for rep in irreps(rs):
            for j in range(rs.rank):
                parts = b_lowering_parts(rs, rep, j, 0, 0)
                assert (parts.rows, parts.cols) == (0, rep.dim)
                low = lowering_matrix(rs, rep, b_direction(rs, j), 0, rand_k(), rand_k())
                assert low == []


def test_natural_m_at_its_edges():
    a1, a2 = build_root_system("A1"), build_root_system("A2")
    t1, t2 = get_irrep(a1, "triv"), get_irrep(a2, "triv")
    m = natural_m(a2, t2, Rat(-1, 3), Rat(0))  # b = 0
    assert m == 0 and type(m) is int
    assert natural_m(a1, t1, Rat(-5, 2), Rat(0)) == 2  # b = -2
    assert natural_m(a1, t1, Rat(-1), Rat(0)) is None  # b = -1/2
    assert natural_m(a1, t1, Rat(1), Rat(0)) is None  # b = 3/2
    for label in ("A2", "B2", "G2"):
        rs = build_root_system(label)
        std = get_irrep(rs, "std")
        for k1, k2 in ((Rat(-1, 3), Rat(0)), (Rat(-5, 2), Rat(7, 3)), (Rat(-9), Rat(-8))):
            assert lowest_weight_scalar(rs, std, k1, k2) == 1
            assert natural_m(rs, std, k1, k2) is None


def test_commutator_ef_is_graded_scalar():
    # [E, F] acts on the degree-n layer of M(chi) by (b(chi) + n), for the
    # one-dimensional triv and, on rank 2, the two-dimensional std
    for label in TYPES:
        rs = build_root_system(label)
        for chi in ("triv", "std")[:rs.rank]:  # A1 has no std
            rep = get_irrep(rs, chi)
            hb = lowest_weight_scalar(rs, rep, PP_K1, PP_K2)
            for n in (0, 1, 2, 3):
                dim = len(monomials(rs.rank, n)) * rep.dim
                ef = None
                if n >= 2:
                    ef = mat_mul(e_mult_matrix(rs, rep, n - 2),
                                 f_matrix(rs, rep, n, PP_K1, PP_K2))
                fe = mat_mul(f_matrix(rs, rep, n + 2, PP_K1, PP_K2),
                             e_mult_matrix(rs, rep, n))
                want = hb + Rat(n)
                for i in range(dim):
                    for j in range(dim):
                        v = ParamPoly.coerce(fe[i][j])
                        if ef is not None:
                            v = ParamPoly.coerce(ef[i][j]) - v
                        else:
                            v = -v
                        assert v == (want if i == j else ParamPoly()), (label, rep.label, n)


def _f_sum(rows, low_m, low_n):
    """sum_j rows L_j(n-1) L_j(n): each term by mat_mul, the terms added
    cell by cell."""
    terms = [mat_mul(mat_mul(rows, lm), ln) for lm, ln in zip(low_m, low_n)]
    out = terms[0]
    for term in terms[1:]:
        out = [[out[i][j] + term[i][j] for j in range(len(out[i]))] for i in range(len(out))]
    return out


def test_f_apply_is_the_sum_over_transfers():
    # f_apply states sum_j L_j(n-1) L_j(n) as one product; here it is the
    # sum, on the int lowerings of a module (A1: one direction) and, times
    # f_coefficient, the symbolic f_matrix
    for label in TYPES:
        rs = build_root_system(label)
        for chi in ("triv", "std")[:rs.rank]:  # A1 has no std
            rep = get_irrep(rs, chi)
            vm = VermaModule(rs, rep, Rat(2, 5), Rat(-3, 7))
            for n in range(2, 7):
                (low_m, _), (low_n, _) = vm._lowerings(n - 1), vm._lowerings(n)
                size = len(low_m[0])
                assert len(low_m) == rs.rank and size == len(monomials(rs.rank, n - 2)) * rep.dim
                rows = [[RNG.randint(-4, 4) for _ in range(size)] for _ in range(3)]
                rows += [[int(i == j) for j in range(size)] for i in range(size)]
                assert f_apply(rows, low_m, low_n) == _f_sum(rows, low_m, low_n), (label, chi, n)
            fc = f_coefficient(rs)
            for n in (2, 3, 4):
                low_m, low_n = ([lowering_matrix(rs, rep, b_direction(rs, j), d, PP_K1, PP_K2)
                                 for j in range(rs.rank)] for d in (n - 1, n))
                want = [[ParamPoly.coerce(v * fc) for v in row]
                        for row in _f_sum(identity(len(low_m[0])), low_m, low_n)]
                got = [list(map(ParamPoly.coerce, row)) for row in f_matrix(rs, rep, n, PP_K1, PP_K2)]
                assert got == want, (label, chi, n)


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
