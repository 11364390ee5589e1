import random

import pytest

from cherednik import linalg
from cherednik.errors import InvariantViolation, NonDivisibleError
from cherednik.scalars import QuadExt, Rat, SQRT3
from cherednik.polynomials import (MPoly, ParamPoly, PP_K1, PP_K2, _monomial_image,
                                   monomials, weyl_act)
from cherednik.linalg import (PRIME, bareiss_rank, dot, freeze, identity,
                              integer_scale, is_symmetric, mat_inv, mat_mul,
                              mat_vec, pack_rows, rank_mod_p, transpose)

RNG = random.Random(202)


def rand_mpoly(nvars, maxdeg, terms=4):
    p = MPoly.zero(nvars)
    for _ in range(terms):
        e = tuple(RNG.randint(0, maxdeg) for _ in range(nvars))
        if sum(e) > maxdeg:
            continue
        p = p + MPoly(nvars, {e: Rat(RNG.randint(-6, 6))})
    return p


def test_monomial_basis_order_and_count():
    ms = monomials(2, 3)
    assert ms == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert len(monomials(2, 7)) == 8
    assert monomials(1, 5) == [(5,)]


def test_no_monomial_has_negative_degree():
    assert monomials(1, -1) == monomials(2, -1) == []


def test_ring_axioms_random():
    for _ in range(40):
        p = rand_mpoly(2, 4)
        q = rand_mpoly(2, 4)
        r = rand_mpoly(2, 4)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert (p - q) + q == p


def test_diff_leibniz_random():
    for _ in range(25):
        p = rand_mpoly(2, 4)
        q = rand_mpoly(2, 4)
        for i in range(2):
            assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


def test_homogeneous_split():
    p = rand_mpoly(2, 5, terms=7)
    total = MPoly.zero(2)
    for d in range(6):
        part = MPoly(2, {e: c for e, c in p.terms.items() if sum(e) == d})
        if part:
            assert {sum(e) for e in part.terms} == {d} and part.degree() == d
        total = total + part
    assert total == p


def test_divexact_coordinate_ring():
    # (x1 + 2 x2) * q and q * (x1^2 + x2^2) recovered by division
    lin = MPoly.from_linear((Rat(1), Rat(2)))
    quad = MPoly(2, {(2, 0): Rat(1), (0, 2): Rat(1)})
    for _ in range(20):
        q = rand_mpoly(2, 3)
        assert (lin * q).divexact(lin) == q
        assert (q * quad).divexact(quad) == q
    # the remainder x2 has a leading monomial that x1^2 does not divide
    with pytest.raises(NonDivisibleError):
        (quad * lin + MPoly.var(1, 2)).divexact(quad)


def int_mpoly(maxdeg, terms=4):
    return MPoly(2, {(RNG.randint(0, maxdeg), RNG.randint(0, maxdeg)):
                     RNG.randint(-9, 9) for _ in range(terms)})


def test_divexact_over_the_integers_stays_integral():
    # monic divisors in y and in x; the quotient keeps int coefficients
    for den in (MPoly(2, {(0, 1): 1, (0, 0): -5}),
                MPoly(2, {(2, 0): 1, (1, 1): 3, (0, 0): -2})):
        for _ in range(20):
            q = int_mpoly(3)
            got = (q * den).divexact(den)
            assert got == q
            assert all(type(c) is int for c in got.terms.values())


def test_divexact_over_the_integers_refuses_a_remainder():
    den = MPoly(2, {(1, 0): 1, (0, 0): 3})
    num = MPoly(2, {(2, 1): 1, (0, 0): 7}) * den + 1
    with pytest.raises(NonDivisibleError):
        num.divexact(den)


@pytest.mark.parametrize("p, one", [
    (MPoly(2, {(1, 0): QuadExt(2), (0, 1): SQRT3, (0, 0): QuadExt(-1)}),
     MPoly(2, {(0, 0): QuadExt(1)})),
    (PP_K1 * Rat(3) - PP_K2 + ParamPoly.const(Rat(1, 2)), ParamPoly.const(1)),
], ids=["MPoly", "ParamPoly"])
def test_powers_are_repeated_products(p, one):
    prod = one
    for n in range(5):
        assert p ** n == prod and type(p ** n) is type(p)
        prod = prod * p
    for n in (-1, 1.5):
        with pytest.raises(ValueError):
            p ** n


def test_mixed_ring_products():
    # an MPoly in x takes ParamPoly coefficients, a ParamPoly never MPoly ones
    x1 = MPoly.var(0, 2)
    left, right = PP_K1 * x1, x1 * PP_K1
    for p in (left, right):
        assert type(p) is MPoly and p.terms == {(1, 0): PP_K1}
    assert left == right
    assert repr(left) == "MPoly<k1*x1>"
    # a sum or difference defers from ParamPoly to the MPoly in x
    total, diff = PP_K1 + x1, PP_K1 - x1
    assert type(total) is type(diff) is MPoly
    assert total.terms == {(1, 0): 1, (0, 0): PP_K1}
    assert diff.terms == {(1, 0): -1, (0, 0): PP_K1}
    assert ParamPoly.const(3) == QuadExt(3)


def test_weyl_act_is_multiplicative():
    # substitution by a matrix product equals successive substitution
    m1 = ((QuadExt(0), QuadExt(-1)), (QuadExt(1), QuadExt(0)))   # rotation
    m2 = ((QuadExt(1), QuadExt(0)), (QuadExt(0), QuadExt(-1)))   # reflection
    prod = tuple(tuple(sum((m1[i][l] * m2[l][j] for l in range(2)),
                           QuadExt(0)) for j in range(2)) for i in range(2))
    for _ in range(10):
        p = rand_mpoly(2, 3)
        assert weyl_act(prod, p) == weyl_act(m1, weyl_act(m2, p))


def test_cold_weyl_act_of_a_high_power():
    # a missing image is built without recursing through the memo per
    # degree, so a cold call far above the interpreter's recursion limit
    # returns
    _monomial_image.cache_clear()
    p = MPoly(2, {(3001, 0): QuadExt(1), (1, 2): QuadExt(5)})
    assert weyl_act(((QuadExt(-1), QuadExt(0)), (QuadExt(0), QuadExt(1))), p) == -p


def rand_matrix(n, m):
    return [[Rat(RNG.randint(-5, 5)) for _ in range(m)] for _ in range(n)]


def test_linalg_mat_ops():
    a = rand_matrix(3, 4)
    b = rand_matrix(4, 2)
    ab = mat_mul(a, b)
    assert len(ab) == 3 and len(ab[0]) == 2
    v = [Rat(1), Rat(-2)]
    assert mat_vec(ab, v) == mat_vec(a, mat_vec(b, v))
    assert transpose(transpose(a)) == [list(r) for r in a]
    w = [Rat(2), Rat(0), Rat(-1)]
    assert mat_mul([w], a)[0] == [dot(w, col) for col in zip(*a)]
    col = [r[0] for r in b]
    assert mat_vec(a, col) == [dot(row, col) for row in a]
    assert dot([QuadExt(0), SQRT3], [Rat(5), Rat(0)]) == QuadExt(0)
    assert mat_mul(identity(3), a) == a
    assert freeze(a) == tuple(tuple(r) for r in a)
    assert hash(freeze(a)) == hash(freeze([list(r) for r in a]))


def test_linalg_inverse_and_kron():
    for m in ([[QuadExt(3)]], [[QuadExt(1), SQRT3], [SQRT3, QuadExt(4)]],
              [[QuadExt(0), QuadExt(2)], [QuadExt(-1), SQRT3]]):
        assert mat_mul(mat_inv(m), m) == identity(len(m))


def test_rank_with_quadratic_entries():
    a = [[QuadExt(1), SQRT3], [SQRT3, QuadExt(3)]]      # rank 1
    assert bareiss_rank(a) == 1
    b = [[QuadExt(1), SQRT3], [SQRT3, QuadExt(4)]]      # det = 1
    assert bareiss_rank(b) == 2


def test_bareiss_rank_over_integers():
    assert bareiss_rank([[2, 4, 6], [1, 2, 3], [0, 0, 5]]) == 2
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank([[0, 1, 2], [0, 3, 4], [0, 5, 7]]) == 2  # no pivot in column 0
    assert bareiss_rank([[0, 2, 1], [3, 1, 0], [6, 4, 1]]) == 2  # pivot after a row swap
    assert bareiss_rank([[3, 1], [6, 5], [9, 1]]) == 2
    assert bareiss_rank([[4, 6, 2], [6, 9, 3], [2, 3, 1]]) == 1


def _rank_p(mat, n, classes=((slice(None),),)):
    """rank_mod_p of the int rows mat with n columns, packed by pack_rows."""
    return rank_mod_p(pack_rows([mat], n, classes, PRIME), n, classes)


def test_rank_mod_p_agrees_with_bareiss_on_small_entries():
    # every minor is at most 6! * 9^6 < PRIME here, so it is 0 mod PRIME only
    # when it is 0: the rank mod PRIME is the rank
    for _ in range(200):
        n = RNG.randint(1, 6)
        m = [[RNG.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if RNG.random() < 0.5:  # a dependent row
            i, j = RNG.randrange(n), RNG.randrange(n)
            c = RNG.randint(-3, 3)
            m[i] = [x + c * y for x, y in zip(m[i], m[j])] if i != j else [0] * n
        assert _rank_p(m, n) == bareiss_rank(m), m
    # tall 2n x n, entries in [-9, 9]: every n x n minor is below PRIME by
    # Hadamard's bound, (9 sqrt 6)^6 < 1.2e8.  The elimination must go on
    # past a singular leading n x n head into the rows below it.
    continued = 0
    for _ in range(200):
        n = RNG.randint(1, 6)
        m = [[RNG.randint(-9, 9) for _ in range(n)] for _ in range(2 * n)]
        if RNG.random() < 0.7:  # a singular head: a repeated or zero row
            i, j = RNG.randrange(n), RNG.randrange(n)
            m[i] = m[j][:] if i != j else [0] * n
        if RNG.random() < 0.3:  # dependent columns in every row
            i, j = RNG.randrange(n), RNG.randrange(n)
            for row in m:
                row[i] = row[j] if i != j else 0
        rank = bareiss_rank(m)
        assert _rank_p(m, n) == rank, m
        continued += rank == n and bareiss_rank(m[:n]) < n
    assert continued
    assert _rank_p([[0, 2], [3, 1]], 2) == 2  # pivot after a row swap
    assert _rank_p([[0, 1], [0, 2]], 2) == 1  # no pivot in column 0
    assert rank_mod_p(iter(()), 3) == 0 == _rank_p([], 2, ((slice(0, 1),), (slice(1, 2),)))


def _rank_mod_p(rows, p):
    """Rank over GF(p), one row at a time on lists of residues, with no
    packing and no classes: the reference for rank_mod_p."""
    pivots = {}
    for row in rows:
        r = [v % p for v in row]
        for c in range(len(r)):
            f = r[c]
            if f and c not in pivots:
                inv = pow(f, -1, p)
                pivots[c] = [x * inv % p for x in r[c + 1:]]
                break
            if f:
                r[c + 1:] = [(x - f * y) % p for x, y in zip(r[c + 1:], pivots[c])]
    return len(pivots)


def _wide_rows(nrows, ncols, cols, p):
    """nrows random rows on the given columns, residues spread over [0, p)
    and many at p - 1, so that the packed slots fill up; with some chance one
    column a multiple of another, so the rank is short."""
    rows = [[0] * ncols for _ in range(nrows)]
    for row in rows:
        for c in cols:
            row[c] = RNG.choice((0, p - 1, -1, RNG.randrange(p), RNG.randrange(-p, p)))
    if len(cols) > 1 and RNG.random() < 0.4:
        i, j = RNG.sample(cols, 2)
        mult = RNG.randrange(p)
        for row in rows:
            row[j] = mult * row[i]
    return rows


def test_packed_elimination_matches_list_elimination_on_wide_residues():
    # the packed rows carry no slot into the next at widths to 60 with
    # residues up to p - 1; split by classes the answer is the same, and a
    # row with cells in two classes raises
    p = PRIME
    classes = ((slice(0, None, 4), slice(3, None, 4)), (slice(1, None, 4), slice(2, None, 4)))
    short = 0
    for _ in range(120):
        n = RNG.randint(1, 60)
        rows = _wide_rows(n + RNG.randint(0, 3), n, range(n), p)
        rank = _rank_mod_p(rows, p)
        assert _rank_p(rows, n) == rank
        short += rank < n
        cls = [sorted(i for sl in c for i in range(n)[sl]) for c in classes]
        rows = [row for c in cls for row in _wide_rows(len(c) + RNG.randint(0, 2), n, c, p)]
        RNG.shuffle(rows)
        assert _rank_p(rows, n, classes) == _rank_mod_p(rows, p)
        if len(cls[1]):
            rows[0][cls[0][0]] = rows[0][cls[1][0]] = 1
            with pytest.raises(InvariantViolation, match="across the classes"):
                _rank_p(rows, n, classes)
    assert 10 < short < 110
    # rows entering as c0 D + c1 A + c2 B, as verma's generic stack yields
    # them: with every residue and every coefficient at p - 1 a slot starts
    # at 3 (p - 1)^2, and the carry bound must still hold
    short = 0
    for _ in range(60):
        n, extra = RNG.randint(1, 60), RNG.randint(0, 3)
        parts = [[RNG.choice((0, p - 1, -1)) for _ in range((n + extra) * n)] for _ in "DAB"]
        if RNG.random() < 0.4:  # a zero column in every part: the rank is short
            j = RNG.randrange(n)
            for flat in parts:
                flat[j::n] = [0] * (n + extra)
        c = p - 1  # c0 = c1 = c2
        mats = [[f[o:o + n] for o in range(0, (n + extra) * n, n)] for f in parts]
        rank = _rank_mod_p([[c * (d + a + b) for d, a, b in zip(*row)] for row in zip(*mats)], p)
        packed = pack_rows(mats, n, ((slice(None),),), p)
        assert rank_mod_p(((k, c * d + c * a + c * b) for k, d, a, b in packed), n) == rank
        short += rank < n
    assert 5 < short < 55


def test_bareiss_rank_over_parampoly():
    k1, k2 = PP_K1, PP_K2
    one, zero = ParamPoly.const(1), ParamPoly()
    assert bareiss_rank([[k1, k1 * k2], [one, k2]]) == 1
    assert bareiss_rank([[k1, one], [one, k2]]) == 2
    assert bareiss_rank([[zero] * 3 for _ in range(2)]) == 0
    # the first pivot needs a row swap; the third row is k2 * row 2 + k1 * row 1,
    # and the second Bareiss step divides exactly by the first pivot k1
    m = [[zero, k2, one], [k1, one, zero], [k1 * k2, k2 + k1 * k2, k1]]
    assert bareiss_rank(m) == 2
    m[2][2] = k1 + one
    assert bareiss_rank(m) == 3


def test_inexact_bareiss_step_raises(monkeypatch):
    # a remainder left by the first step's division, as an inexact one would
    monkeypatch.setattr(linalg, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(NonDivisibleError, match="Bareiss step: 1 does not divide -2"):
        bareiss_rank([[1, 2], [3, 4]])


def test_divmod_divides_exactly_or_raises():
    # bareiss_rank's steps over the symbolic and quadratic rings
    k1, k2 = PP_K1, PP_K2
    assert divmod(k1 * k2 + k1, k1) == (k2 + 1, ParamPoly())
    assert divmod(k1 * k2, 1) == (k1 * k2, ParamPoly())
    with pytest.raises(NonDivisibleError):
        divmod(k1 * k2 + 1, k1)
    assert divmod(SQRT3, QuadExt(2)) == (QuadExt(0, Rat(1, 2)), QuadExt(0))
    with pytest.raises(ZeroDivisionError):
        divmod(QuadExt(1), QuadExt(0))


def test_integer_scale():
    mat = [[6, 0], [-36, 48], [15, 0]]
    ints, s = integer_scale(mat)
    assert ints == [[2, 0], [-12, 16], [5, 0]] and s == Rat(3)
    assert type(s) is Rat and all(type(v) is int for row in ints for v in row)
    for row, irow in zip(mat, ints):
        assert row == [s * v for v in irow]
    assert integer_scale([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], 1)
    assert integer_scale([[6, -4], [10, 0]]) == ([[3, -2], [5, 0]], 2)
    assert integer_scale([[-1], [1]]) == ([[-1], [1]], 1)


def test_is_symmetric():
    assert is_symmetric([[Rat(1), Rat(5)], [Rat(5), Rat(2)]])
    assert not is_symmetric([[Rat(1), Rat(5)], [Rat(4), Rat(2)]])


def test_polynomial_guards():
    with pytest.raises(TypeError, match="MPoly is not hashable"):
        hash(MPoly(2, {(1, 0): QuadExt(1)}))
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        (PP_K1 * PP_K2).divexact(ParamPoly())
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        MPoly(2, {(1, 0): 1}).divexact(MPoly.zero(2))
    zero = MPoly.zero(2)
    assert zero.degree() == -1 and ParamPoly().degree() == -1
    with pytest.raises(ValueError, match="zero polynomial has no leading term"):
        zero.leading()
    with pytest.raises(ValueError, match="generator index must be 0 or 1"):
        ParamPoly.gen(2)


def test_parampoly_is_immutable_and_hashable():
    with pytest.raises(AttributeError, match="ParamPoly is immutable"):
        PP_K1.terms = {}
    assert hash(PP_K1 + 1) == hash(1 + PP_K1)
    assert len({PP_K1 * 2, 2 * PP_K1, PP_K2}) == 2


def test_parampoly_coerce_takes_scalars_only():
    assert ParamPoly.coerce(PP_K1) is PP_K1
    for x in (3, Rat(1, 2), QuadExt(1, 1)):
        c = ParamPoly.coerce(x)
        assert type(c) is ParamPoly and c.terms == {(0, 0): QuadExt.coerce(x)}
    assert ParamPoly.coerce(0).terms == {}
    for bad in (MPoly(2, {(1, 0): 1}), 1.5, "1"):
        with pytest.raises(TypeError, match="to ParamPoly"):
            ParamPoly.coerce(bad)


def test_to_str_parenthesizes_sums():
    p = MPoly(2, {(1, 0): QuadExt(1, 1), (0, 1): QuadExt(0, -1),
                  (0, 0): QuadExt(Rat(-1, 2))})
    assert p.to_str() == "(1+s3)*x1 - s3*x2 - 1/2"
    assert (PP_K1 * QuadExt(0, 2) - PP_K2).to_str() == "2*s3*k1 - k2"
