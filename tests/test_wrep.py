import random

from cherednik.scalars import QuadExt, Rat
from cherednik.rootsystem import RootSystem, build_root_system
from cherednik.wrep import get_irrep, irreps, tensor_one_dim, twist_couplings

RNG = random.Random(404)

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


def test_irreps_belong_to_their_root_system():
    rs = RootSystem("A2")
    assert get_irrep(rs, "triv").rs is rs
    assert all(rep.rs is rs for rep in irreps(rs))
    assert irreps(rs) is irreps(rs)


def test_homomorphism_random():
    for label in LABELS:
        rs = build_root_system(label)
        n = len(rs.elements)
        for rep in irreps(rs):
            for _ in range(6):
                i, j = RNG.randrange(n), RNG.randrange(n)
                a, b = rep.matrix(i), rep.matrix(j)
                prod = tuple(
                    tuple(sum((a[r][l] * b[l][c] for l in range(rep.dim)),
                              QuadExt(0)) for c in range(rep.dim))
                    for r in range(rep.dim))
                assert prod == rep.matrix(rs.mult[i][j])


def test_character_orthogonality():
    for label in LABELS:
        rs = build_root_system(label)
        reps = irreps(rs)
        order = len(rs.elements)
        for a in reps:
            for b in reps:
                acc = QuadExt(0)
                for w in range(order):
                    acc = acc + a.character[w] * b.character[rs.inverse[w]]
                assert acc == QuadExt(order if a.label == b.label else 0)


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
