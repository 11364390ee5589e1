import copy
import random

import pytest

from cherednik.errors import InvariantViolation
from cherednik.polynomials import ParamPoly, PP_K1, PP_K2
from cherednik.scalars import SQRT3, QuadExt, Rat
from cherednik.linalg import freeze, identity, mat_inv, mat_mul, mat_vec, transpose
from cherednik.polynomials import MPoly, weyl_act
from cherednik import rootsystem
from cherednik.rootsystem import RootSystem, build_root_system
from cherednik.wrep import get_irrep
from cherednik.dunkl import b_direction, lowest_weight_scalar

RNG = random.Random(303)

ORDERS = {"A1": 2, "A2": 6, "B2": 8, "G2": 12}
NPOS = {"A1": 1, "A2": 3, "B2": 4, "G2": 6}
ORBITS = {"A1": (1, 0), "A2": (3, 0), "B2": (2, 2), "G2": (3, 3)}
DEGREES = {"A1": (2,), "A2": (2, 3), "B2": (2, 4), "G2": (2, 6)}


def test_counts_per_type():
    for label, order in ORDERS.items():
        rs = build_root_system(label)
        assert len(rs.elements) == order
        assert rs.num_positive == NPOS[label]
        assert rs.orbit_counts == ORBITS[label]
        assert rs.degrees == DEGREES[label]
        prod = 1
        for d in rs.degrees:
            prod *= d
        assert prod == order  # degrees multiply to the group order


def test_metric_is_coroot_sum():
    # the sum over the full coroot set (both signs) of co_i co_j is c delta_ij
    for label in ORDERS:
        rs = build_root_system(label)
        n = rs.rank
        for i in range(n):
            for j in range(n):
                acc = QuadExt(0)
                for co in rs.coroots:
                    acc = acc + 2 * co[i] * co[j]
                assert acc == (rs.metric_scale if i == j else QuadExt(0))


def test_metric_values():
    a2 = build_root_system("A2")
    x1 = (QuadExt(1), QuadExt(0))
    assert sum((a * b for a, b in zip(b_direction(a2, 0), x1)), QuadExt(0)) == QuadExt(12)
    assert {label: build_root_system(label).metric_scale for label in ORDERS} == {
        "A1": QuadExt(8), "A2": QuadExt(12), "B2": QuadExt(12), "G2": QuadExt(16)}


def test_coroot_normalization():
    for label in ORDERS:
        rs = build_root_system(label)
        for a, co in zip(rs.positive_roots, rs.coroots):
            pair = sum((c * v for c, v in zip(co, a)), QuadExt(0))
            assert pair == QuadExt(2)


def test_b_map_sends_root_to_coroot_multiple():
    # B(alpha) = (B*(alpha, alpha)/2) alpha-check, B the transfer x -> c x
    for label in ORDERS:
        rs = build_root_system(label)
        transfer = [b_direction(rs, j) for j in range(rs.rank)]
        for a, co in zip(rs.positive_roots, rs.coroots):
            img = mat_vec(transpose(transfer), a)
            half = sum((u * v for u, v in zip(img, a)), QuadExt(0)) / 2
            assert tuple(img) == tuple(half * c for c in co)


def test_group_actions_are_adjoint():
    # <w y, w x> = <y, x> with a acting by inverse transpose
    for label in ("A2", "B2", "G2"):
        rs = build_root_system(label)
        for _ in range(6):
            w = RNG.randrange(len(rs.elements))
            x = tuple(QuadExt(Rat(RNG.randint(-3, 3))) for _ in range(2))
            y = tuple(QuadExt(Rat(RNG.randint(-3, 3))) for _ in range(2))
            m = rs.elements[w]
            wy, wx = mat_vec(transpose(mat_inv(m)), y), mat_vec(m, x)
            lhs = sum((a * b for a, b in zip(wy, wx)), QuadExt(0))
            rhs = sum((a * b for a, b in zip(y, x)), QuadExt(0))
            assert lhs == rhs


def test_right_multiplication_table():
    for label in ORDERS:
        rs = build_root_system(label)
        n = len(rs.elements)
        index = {m: w for w, m in enumerate(rs.elements)}
        simple = [rs.elements[rs.reflection_element[i]] for i in rs.simple]
        assert len(rs.right_mult) == n
        for i in range(n):
            assert len(rs.right_mult[i]) == rs.rank
            for gi, s in enumerate(simple):
                k = rs.right_mult[i][gi]
                # matrix product matches table entry
                m = tuple(tuple(sum((rs.elements[i][r][l] * s[l][c]
                                     for l in range(rs.rank)), QuadExt(0))
                                for c in range(rs.rank)) for r in range(rs.rank))
                assert rs.elements[k] == m
        for gi in range(rs.rank):
            # right multiplication by s_i permutes the group
            assert sorted(row[gi] for row in rs.right_mult) == list(range(n))
        for i in range(n):
            # the group is closed under inverses
            j = index[freeze(mat_inv(rs.elements[i]))]
            assert mat_mul(rs.elements[i], rs.elements[j]) == identity(rs.rank)


def test_contragredient_matrices():
    for label in ORDERS:
        rs = build_root_system(label)
        ident = identity(rs.rank)
        for m in rs.elements:
            assert mat_mul(mat_inv(m), m) == ident


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_form_off_a_multiple_of_the_identity_is_refused_at_construction(monkeypatch, label):
    # a doubled coroot 0 makes 2 sum_c c c^T no multiple of the identity,
    # and the form check runs before the coroot pairing check would fire
    stock = RootSystem._build_orbits

    def with_doubled_coroot(self):
        stock(self)
        self.coroots[0] = tuple(2 * v for v in self.coroots[0])

    monkeypatch.setattr(RootSystem, "_build_orbits", with_doubled_coroot)
    with pytest.raises(InvariantViolation, match="not a positive multiple of the identity"):
        RootSystem(label)


@pytest.mark.parametrize("label", ORDERS)
def test_group_of_infinite_order_is_refused_while_it_is_built(monkeypatch, label):
    # with the coroot of the first simple root doubled, its "reflection"
    # scales the root by -3: the generated group is infinite, and its
    # closure must stop past the stated order
    stock = RootSystem._build_roots

    def with_doubled_coroot(self):
        stock(self)
        i = self.simple[0]
        self.coroots[i] = tuple(2 * v for v in self.coroots[i])

    monkeypatch.setattr(RootSystem, "_build_roots", with_doubled_coroot)
    with pytest.raises(InvariantViolation, match=f"more than {ORDERS[label]} elements"):
        RootSystem(label)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_non_invariant_generator_is_refused_at_construction(monkeypatch, label):
    # x1^2 is fixed by a reflection in x1 but not by the whole group
    stock = RootSystem._build_invariants

    def with_x1_squared(self):
        stock(self)
        self.invariant_gens = self.invariant_gens + [MPoly(2, {(2, 0): QuadExt(1)})]

    monkeypatch.setattr(RootSystem, "_build_invariants", with_x1_squared)
    with pytest.raises(InvariantViolation, match="invariant generator is not invariant"):
        RootSystem(label)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_non_invariant_metric_is_refused_at_construction(monkeypatch, label):
    # a doubled simple reflection, put in after the orbits are read, is no
    # orthogonal matrix, so it does not preserve the form c I
    stock = RootSystem._build_orbits

    def with_doubled_reflection(self):
        stock(self)
        w = self.right_mult[0][1]
        self.elements[w] = tuple(tuple(2 * v for v in row) for row in self.elements[w])

    monkeypatch.setattr(RootSystem, "_build_orbits", with_doubled_reflection)
    with pytest.raises(InvariantViolation, match="group does not preserve the metric"):
        RootSystem(label)


def test_reflections_fix_their_root_orbit():
    for label in ORDERS:
        rs = build_root_system(label)
        for i, a in enumerate(rs.positive_roots):
            w = rs.reflection_element[i]
            img = mat_vec(rs.elements[w], a)
            assert tuple(img) == tuple(-c for c in a)


def test_invariant_generators():
    for label in ORDERS:
        rs = build_root_system(label)
        assert [g.degree() for g in rs.invariant_gens] == list(rs.degrees)
        for g in rs.invariant_gens:
            for m in rs.elements:
                assert weyl_act(m, g) == g


def _rand_param_poly(nv):
    """A random polynomial in x of degree <= 8 with ParamPoly coefficients."""
    terms = {}
    for _ in range(10):
        e = tuple(RNG.randint(0, 8) for _ in range(nv))
        if sum(e) <= 8:
            terms[e] = ParamPoly({(RNG.randint(0, 2), RNG.randint(0, 2)):
                                  QuadExt(Rat(RNG.randint(-5, 5), RNG.randint(1, 3)),
                                          Rat(RNG.randint(-2, 2))),
                                  (0, 0): QuadExt(Rat(RNG.randint(1, 4)))})
    return MPoly(nv, terms)


def test_weyl_act_on_parampoly_coefficients():
    for label in ORDERS:
        rs = build_root_system(label)
        nv = rs.rank
        ident = tuple(tuple(QuadExt(int(i == j)) for j in range(nv)) for i in range(nv))
        minus = tuple(tuple(-v for v in row) for row in ident)
        assert ident in rs.elements
        assert (minus in rs.elements) == (label != "A2")
        for _ in range(4):
            p = _rand_param_poly(nv)
            assert weyl_act(ident, p) == p
            for w in rs.reflection_element:
                assert weyl_act(rs.elements[w], weyl_act(rs.elements[w], p)) == p
            if minus in rs.elements:
                # -I scales the degree-d part by (-1)^d
                want = MPoly(nv, {e: -c if sum(e) % 2 else c for e, c in p.terms.items()})
                assert weyl_act(minus, p) == want


def test_working_coordinates_are_rational():
    a2 = build_root_system("A2")
    assert a2.sqrt3_exp == (0, 1)
    assert a2.work_roots[1] == (Rat(-1, 2), Rat(1, 2))  # (-1/2, sqrt(3)/2)
    assert a2.work_coroots[1] == (Rat(-1), Rat(3))  # (-1, sqrt(3))
    for label in ORDERS:
        rs = build_root_system(label)
        scale = [SQRT3 ** e for e in rs.sqrt3_exp]
        assert rs.sqrt3_exp == ((0, 1) if label in ("A2", "G2") else (0,) * rs.rank)
        for a, c, wa, wc in zip(rs.positive_roots, rs.coroots,
                                rs.work_roots, rs.work_coroots):
            assert [QuadExt(v) * s for v, s in zip(wa, scale)] == list(a)
            assert [QuadExt(v) for v in wc] == [v * s for v, s in zip(c, scale)]


def test_working_coordinates_reject_a_mixed_root():
    # a coordinate that is neither rational nor a rational multiple of sqrt(3)
    rs = copy.copy(build_root_system("A2"))
    rs.positive_roots = rs.positive_roots[:2] + [(QuadExt(1), QuadExt(1, 1))]
    with pytest.raises(InvariantViolation, match="working coordinates"):
        rs._build_working_coordinates()


def test_hbar_polys():
    half = ParamPoly.const(Rat(1, 2))
    one = ParamPoly.const(Rat(1))

    def hbar(label):
        rs = build_root_system(label)
        return lowest_weight_scalar(rs, get_irrep(rs, "triv"), PP_K1, PP_K2)

    assert hbar("A1") == PP_K1 + half
    assert hbar("A2") == PP_K1 * Rat(3) + one
    assert hbar("B2") == (PP_K1 + PP_K2) * Rat(2) + one
    assert hbar("G2") == (PP_K1 + PP_K2) * Rat(3) + one


@pytest.mark.parametrize("label", ORDERS)
def test_stated_orbit_counts_are_checked(label, monkeypatch):
    c1, c2 = ORBITS[label]
    monkeypatch.setitem(rootsystem._ORBIT_COUNTS, label, (c1 + 1, c2))
    with pytest.raises(InvariantViolation, match="orbit counts"):
        RootSystem(label)


@pytest.mark.parametrize("label", ORDERS)
def test_stated_group_order_is_checked(label, monkeypatch):
    # the group closes short of a stated order one larger
    order = ORDERS[label]
    monkeypatch.setitem(rootsystem._GROUP_ORDER, label, order + 1)
    with pytest.raises(InvariantViolation, match=f"group order {order}, expected {order + 1}"):
        RootSystem(label)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_reflection_outside_the_generated_group_is_refused(label, monkeypatch):
    # one simple reflection stated twice generates {1, s}, which lacks the
    # reflections in the other positive roots
    roots, simple, second = rootsystem._TYPES[label]
    monkeypatch.setitem(rootsystem._TYPES, label, (roots, [simple[0]] * 2, second))
    with pytest.raises(InvariantViolation, match="reflection is not in the generated group"):
        RootSystem(label)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
@pytest.mark.parametrize("doubled, want", [(False, "more than two root orbits"),
                                           (True, "group does not permute the roots")])
def test_group_that_breaks_the_root_orbits_is_refused(label, doubled, want, monkeypatch):
    # with the group cut to the identity each of the 3 or more positive
    # roots is its own orbit; twice the identity sends roots off the roots
    stock = RootSystem._build_group

    def with_other_elements(self):
        stock(self)
        one = self.elements[0]
        self.elements = [one, tuple(tuple(2 * v for v in r) for r in one)] if doubled else [one]

    monkeypatch.setattr(RootSystem, "_build_group", with_other_elements)
    with pytest.raises(InvariantViolation, match=want):
        RootSystem(label)


@pytest.mark.parametrize("label", ORDERS)
def test_coroot_pairing_is_checked(label, monkeypatch):
    # a coroot doubled after the group, orbits and form are built
    stock = RootSystem._build_working_coordinates

    def with_doubled_coroot(self):
        stock(self)
        self.coroots[0] = tuple(2 * v for v in self.coroots[0])

    monkeypatch.setattr(RootSystem, "_build_working_coordinates", with_doubled_coroot)
    with pytest.raises(InvariantViolation, match="coroot pairing"):
        RootSystem(label)


def test_unknown_label_rejected():
    try:
        build_root_system("C3")
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_short_roots_get_the_first_orbit_whatever_the_root_order(monkeypatch):
    # B2 with its long roots first: the orbit found first is the long one,
    # and the short one is renumbered to orbit 0, the orbit of k1
    second = rootsystem._TYPES["B2"][2]
    monkeypatch.setitem(rootsystem._TYPES, "B2",
                        ([(1, 1), (1, -1), (1, 0), (0, 1)], [3, 1], second))
    rs = RootSystem("B2")
    assert rs.orbit_of == [1, 1, 0, 0]
    assert rs.orbit_counts == (2, 2)
    assert [rs.coupling_of_root(i, "k1", "k2") for i in range(4)] == ["k2", "k2", "k1", "k1"]
