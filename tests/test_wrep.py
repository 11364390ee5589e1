import pytest

from cherednik import rootsystem, wrep
from cherednik.errors import InvariantViolation
from cherednik.linalg import freeze, mat_inv, mat_mul, mat_vec
from cherednik.scalars import QuadExt, Rat
from cherednik.rootsystem import RootSystem, build_root_system
from cherednik.wrep import (Irrep, _validate, get_irrep, irreps, tensor_one_dim,
                            twist_couplings)

LABELS = {
    "A1": {"triv": 1, "sgn": 1},
    "A2": {"triv": 1, "sgn": 1, "std": 2},
    "B2": {"triv": 1, "sgn": 1, "chi1": 1, "chi2": 1, "std": 2},
    "G2": {"triv": 1, "sgn": 1, "tau": 1, "sgn_tau": 1, "std": 2, "std_tau": 2},
}


def test_tables_complete():
    for label, want in LABELS.items():
        rs = build_root_system(label)
        reps = irreps(rs)
        assert {r.label: r.dim for r in reps} == want
        assert sum(r.dim ** 2 for r in reps) == len(rs.elements)
    assert repr(get_irrep(build_root_system("G2"), "std_tau")) == "Irrep(G2:std_tau, dim 2)"


def test_irreps_belong_to_their_root_system():
    rs = RootSystem("A2")
    assert get_irrep(rs, "triv").rs is rs
    assert all(rep.rs is rs for rep in irreps(rs))
    assert irreps(rs) is irreps(rs)


def _index(rs):
    """Group element index by matrix: the test's own oracle for products."""
    return {m: w for w, m in enumerate(rs.elements)}


def test_homomorphism_on_all_pairs():
    for label in LABELS:
        rs = build_root_system(label)
        index = _index(rs)
        n = len(rs.elements)
        for rep in irreps(rs):
            for i in range(n):
                for j in range(n):
                    a, b = rep.matrices[i], rep.matrices[j]
                    prod = tuple(
                        tuple(sum((a[r][l] * b[l][c] for l in range(rep.dim)),
                                  QuadExt(0)) for c in range(rep.dim))
                        for r in range(rep.dim))
                    k = index[freeze(mat_mul(rs.elements[i], rs.elements[j]))]
                    assert prod == rep.matrices[k]


def test_character_orthogonality():
    for label in LABELS:
        rs = build_root_system(label)
        index = _index(rs)
        reps = irreps(rs)
        order = len(rs.elements)
        inverse = [index[freeze(mat_inv(m))] for m in rs.elements]
        for a in reps:
            for b in reps:
                acc = QuadExt(0)
                for w in range(order):
                    acc = acc + a.character[w] * b.character[inverse[w]]
                assert acc == QuadExt(order if a.label == b.label else 0)


@pytest.mark.parametrize("label", LABELS)
def test_build_makes_linearly_many_matrix_products(monkeypatch, label):
    # the group and every irrep are built and checked along the |W| x rank
    # right multiplication table, with no product over pairs of elements
    calls = [0]

    def counting(a, b):
        calls[0] += 1
        return mat_mul(a, b)

    monkeypatch.setattr(rootsystem, "mat_mul", counting)
    monkeypatch.setattr(wrep, "mat_mul", counting)
    rs = RootSystem(label)
    bound = 3 * len(rs.elements) * rs.rank
    assert calls[0] <= bound
    calls[0] = 0
    reps = wrep._build_irreps(rs)
    assert calls[0] <= bound * len(reps)


def _sign(rs, signs, w):
    """The one-dimensional character with these orbit signs at w: the
    product of the signs of the positive roots that w sends to negative
    ones, one root per letter of a reduced word for w."""
    pos = set(rs.positive_roots)
    out = 1
    for a, root in enumerate(rs.positive_roots):
        if tuple(mat_vec(rs.elements[w], root)) not in pos:
            out *= signs[rs.orbit_of[a]]
    return out


@pytest.mark.parametrize("label", LABELS)
def test_every_irrep_is_its_signs_times_its_base(label):
    # each stock irrep is one sign per root orbit times triv, or times std
    # where the table builds it on the reflection representation
    rs = RootSystem(label)
    table = [("triv", (1, 1), False), ("sgn", (-1, -1), False)] + wrep._TABLE[label]
    assert [row[0] for row in table] == [rep.label for rep in irreps(rs)]
    for (name, signs, reflection), rep in zip(table, irreps(rs)):
        base = get_irrep(rs, "std" if reflection else "triv")
        assert rep.signs == signs and rep.base is base, name
        for w, mat in enumerate(rep.matrices):
            s = _sign(rs, signs, w)
            assert mat == tuple(tuple(s * v for v in row) for row in base.matrices[w]), \
                (name, w)


def test_reflection_traces():
    g2 = build_root_system("G2")
    tau = get_irrep(g2, "tau")
    assert tau.refl_char[0] == QuadExt(1) and tau.refl_char[1] == QuadExt(-1)
    sgn = get_irrep(g2, "sgn")
    assert sgn.refl_char[0] == QuadExt(-1) and sgn.refl_char[1] == QuadExt(-1)
    b2 = build_root_system("B2")
    chi1 = get_irrep(b2, "chi1")
    assert chi1.refl_char[0] == QuadExt(-1) and chi1.refl_char[1] == QuadExt(1)


def test_twist_couplings():
    a2 = build_root_system("A2")
    assert twist_couplings(a2, get_irrep(a2, "sgn"), Rat(2), Rat(2)) == (-2, 2)
    g2 = build_root_system("G2")
    assert twist_couplings(g2, get_irrep(g2, "tau"), Rat(1, 2), Rat(3)) == \
        (Rat(1, 2), -3)
    assert twist_couplings(g2, get_irrep(g2, "sgn"), Rat(1, 2), Rat(3)) == \
        (Rat(-1, 2), -3)


def test_tensor_one_dim():
    for label in LABELS:
        rs = build_root_system(label)
        triv = get_irrep(rs, "triv")
        sgn = get_irrep(rs, "sgn")
        assert tensor_one_dim(rs, sgn, sgn).label == "triv"
        assert tensor_one_dim(rs, triv, sgn).label == "sgn"
    g2 = build_root_system("G2")
    assert tensor_one_dim(g2, get_irrep(g2, "std"),
                          get_irrep(g2, "tau")).label == "std_tau"
    a2 = build_root_system("A2")
    assert tensor_one_dim(a2, get_irrep(a2, "std"),
                          get_irrep(a2, "sgn")).label == "std"


def test_get_irrep_unknown_label():
    rs = build_root_system("B2")
    try:
        get_irrep(rs, "spin")
    except ValueError as e:
        assert "chi1" in str(e)
    else:
        raise AssertionError("expected ValueError")


def _replaced(rs, reps, r, w, mat):
    """reps with rep number r's matrix at group element w replaced by mat."""
    mats = list(reps[r].matrices)
    mats[w] = mat
    return reps[:r] + [Irrep(rs, reps[r].label, mats)] + reps[r + 1:]


def _negate_first_nonzero(mat):
    rows = [list(row) for row in mat]
    i, j = next((i, j) for i, row in enumerate(rows)
                for j, v in enumerate(row) if v)
    rows[i][j] = -rows[i][j]
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("label", LABELS)
def test_validate_catches_every_sign_flip(label):
    # one negated entry in one matrix of one irrep breaks the homomorphism,
    # except on A1 (the group {e, s}): there a sign flip of s turns triv into
    # sgn and back, a homomorphism that only the character table catches
    rs = RootSystem(label)
    reps = list(irreps(rs))
    for r, rep in enumerate(reps):
        for w, mat in enumerate(rep.matrices):
            bad = _replaced(rs, reps, r, w, _negate_first_nonzero(mat))
            want = ("duplicate characters" if label == "A1" and w
                    else "not a homomorphism")
            with pytest.raises(InvariantViolation, match=want):
                _validate(rs, bad)


def test_validate_refuses_an_irrep_that_is_not_its_signs_times_its_base():
    # std built on the reflection representation but declared over the
    # one-dimensional triv, and tau (-1 on the long orbit) declared as
    # (1, 1) times triv
    rs = RootSystem("G2")
    reps = list(irreps(rs))
    triv, tau = get_irrep(rs, "triv"), get_irrep(rs, "tau")
    for bad in (wrep._from_generators(rs, "std", (1, 1), True, triv),
                Irrep(rs, "tau", tau.matrices, (1, 1), triv)):
        r = next(i for i, rep in enumerate(reps) if rep.label == bad.label)
        with pytest.raises(InvariantViolation,
                           match=f"{bad.label} is not its signs times triv"):
            _validate(rs, reps[:r] + [bad] + reps[r + 1:])


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_table_without_std_is_refused(label, monkeypatch):
    # the squared dimensions then fall short of the group order
    table = [row for row in wrep._TABLE[label] if row[0] != "std"]
    monkeypatch.setitem(wrep._TABLE, label, table)
    with pytest.raises(InvariantViolation, match="squared dimensions do not sum"):
        wrep._build_irreps(RootSystem(label))


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_std_conjugated_off_the_orthogonal_group_is_refused(label, monkeypatch):
    # std conjugated by a shear is still a homomorphism with the same
    # character, but its simple reflections are not orthogonal
    shear, unshear = ([[QuadExt(1), QuadExt(s)], [QuadExt(0), QuadExt(1)]] for s in (1, -1))
    build = wrep._from_generators

    def sheared(rs, name, signs, reflection, over=None):
        rep = build(rs, name, signs, reflection, over)
        if name == "std":
            rep.matrices = [freeze(mat_mul(mat_mul(shear, m), unshear)) for m in rep.matrices]
        return rep

    monkeypatch.setattr(wrep, "_from_generators", sheared)
    with pytest.raises(InvariantViolation, match="std matrices are not orthogonal"):
        wrep._build_irreps(RootSystem(label))


def test_validate_catches_a_doubled_product_matrix():
    # a matrix that no simple reflection gives directly: the longest element
    rs = RootSystem("G2")
    reps = list(irreps(rs))
    r = next(i for i, rep in enumerate(reps) if rep.label == "std")
    w = len(rs.elements) - 1
    assert rs.parent[w] is not None and rs.parent[w][0] != 0
    doubled = tuple(tuple(2 * v for v in row) for row in reps[r].matrices[w])
    with pytest.raises(InvariantViolation, match="not a homomorphism"):
        _validate(rs, _replaced(rs, reps, r, w, doubled))


def test_twists_need_a_one_dimensional_character():
    for label in ("A2", "B2", "G2"):
        rs = build_root_system(label)
        std = get_irrep(rs, "std")
        with pytest.raises(ValueError, match="twisting character must be one-dimensional"):
            tensor_one_dim(rs, get_irrep(rs, "triv"), std)
        with pytest.raises(ValueError, match="twisting character must be one-dimensional"):
            twist_couplings(rs, std, Rat(1), Rat(2))


def test_twist_outside_the_table_is_refused():
    # a hand-built one-dimensional Irrep of character 2 on every element:
    # no irreducible has twice the trivial character
    rs = build_root_system("B2")
    doubled = Irrep(rs, "doubled", [((QuadExt(2),),)] * len(rs.elements))
    with pytest.raises(InvariantViolation, match="twisted character is not in the table"):
        tensor_one_dim(rs, get_irrep(rs, "triv"), doubled)
