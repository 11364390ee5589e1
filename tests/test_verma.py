import random

import pytest

from cherednik.polynomials import ParamPoly, PP_K1, PP_K2
from cherednik.scalars import Rat
from cherednik.rootsystem import RootSystem, build_root_system
from cherednik.wrep import get_irrep, irreps, tensor_one_dim, twist_couplings
from cherednik.dunkl import f_matrix
from cherednik import verma
from cherednik.linalg import bareiss_rank, identity, integer_scale, mat_mul, vec_mat
from cherednik.verma import VermaModule, classify, standard_module
from cherednik.errors import InvariantViolation

RNG = random.Random(606)
TYPES = ("A1", "A2", "B2", "G2")


def rand_k():
    return Rat(RNG.randint(-5, 5), RNG.choice((1, 2, 3, 4)))


@pytest.mark.parametrize("label,chi,k1,k2,want", [
    ("A2", "triv", Rat(-1), Rat(-1), (True, 2, False)),
    ("A2", "sgn", Rat(1), Rat(1), (True, 2, False)),
    ("A2", "triv", Rat(-4, 3), Rat(-4, 3), (True, 3, True)),
    ("B2", "triv", Rat(-3, 2), Rat(-1, 2), (True, 3, True)),
    ("B2", "triv", Rat(-1, 4), Rat(-3, 4), (True, 1, False)),
    ("G2", "triv", Rat(-1, 3), Rat(-2, 3), (True, 2, False)),
    ("A2", "std", Rat(-1, 3), Rat(-1, 3), (False, None, False)),
    ("G2", "std", Rat(-1, 2), Rat(-1, 2), (False, None, False)),
])
def test_epower_criterion(label, chi, k1, k2, want):
    ep = standard_module(label, chi, k1, k2).epower_criterion()
    assert (ep.natural, ep.m, ep.finite) == want


def test_f_chain_matches_f_matrix_product():
    # f_chain never forms F; the product of the formed F(n) must agree
    for label in TYPES:
        rs = build_root_system(label)
        k1 = Rat(-2, 3)
        k2 = k1 if rs.orbit_counts[1] == 0 else Rat(5, 4)
        for rep in irreps(rs):
            for a, b in ((k1, k2), (PP_K1, PP_K2)):
                vm = VermaModule(rs, rep, a, b)
                prod = None
                for top in (2, 4, 6):
                    f = f_matrix(rs, rep, top, a, b)
                    prod = f if prod is None else mat_mul(prod, f)
                    want = [[ParamPoly.coerce(v) for v in row]
                            for row in prod[:rep.dim]]
                    got = [[ParamPoly.coerce(v) for v in row]
                           for row in vm.f_chain(top)]
                    assert got == want, (label, rep.label, a, top)


def test_layer_dims():
    def layer_dim(vm, n):
        return len(vm.layer_monomials(n)) * vm.rep.dim

    vm = standard_module("A2", "std", Rat(1, 5), Rat(1, 5))
    assert [layer_dim(vm, n) for n in range(4)] == [2, 4, 6, 8]
    vm = standard_module("A1", "triv", Rat(1, 5), Rat(1, 5))
    assert [layer_dim(vm, n) for n in range(4)] == [1, 1, 1, 1]


def test_numeric_lowerings_and_layers_are_ints():
    # no silent fallback to QuadExt entries at rational couplings
    for label in TYPES:
        rs = build_root_system(label)
        for rep in irreps(rs):
            vm = VermaModule(rs, rep, rand_k(), rand_k())
            for n in range(5):
                mats = list(vm._lowerings(n)[0]) if n else []
                mats.append(vm._layer(n)[0])
                assert all(type(v) is int for mat in mats for row in mat for v in row)


def test_gram_recursion_equals_direct_assembly():
    for label in TYPES:
        rs = build_root_system(label)
        for rep in irreps(rs):
            k1, k2 = rand_k(), rand_k()
            vm = VermaModule(rs, rep, k1, k2)
            for n in range(5):
                assert vm.gram(n) == vm.gram_direct(n), (label, rep.label, n)


def test_gram_recursion_equals_direct_assembly_symbolic():
    # gram_direct composes the ParamPoly lowerings of lowering_matrix, so it
    # shares neither the integer parts nor the Gram arithmetic of the
    # recursion at symbolic couplings
    for label in TYPES:
        rs = build_root_system(label)
        for rep in irreps(rs):
            vm = VermaModule(rs, rep, PP_K1, PP_K2)
            for n in range(5):
                got = [[ParamPoly.coerce(v) for v in row] for row in vm.gram(n)]
                want = [[ParamPoly.coerce(v) for v in row] for row in vm.gram_direct(n)]
                assert got == want, (label, rep.label, n)


def _parampoly_layers(vm, top):
    """The Gram recursion over ParamPoly, on the lowerings of
    lowering_matrix: the symbolic layers as they were built before the
    packing."""
    d, rank = vm.rep.dim, vm.rs.rank
    layers = [[[ParamPoly.coerce(v) for v in row] for row in identity(d)]]
    for deg in range(1, top + 1):
        prev, lows = layers[-1], [vm.lowering(j, deg) for j in range(rank)]
        prod1 = mat_mul(prev, lows[0])
        rows = []
        for m in vm.layer_monomials(deg):
            if m[0] > 0:
                pidx = m[1] if rank == 2 else 0
                rows.extend(prod1[pidx * d:(pidx + 1) * d])
            else:
                rows.extend(vec_mat(r, lows[1]) for r in prev[(deg - 1) * d:])
        layers.append([[ParamPoly.coerce(v) for v in row] for row in rows])
    return layers


def test_symbolic_layers_out_of_order():
    # each layer is read off a packed point chosen for its own degree
    for label, chi in (("B2", "triv"), ("A2", "std")):
        vm = standard_module(label, chi, PP_K1, PP_K2)
        want = _parampoly_layers(vm, 7)
        for n in (6, 2, 7):
            assert vm.gram(n) == want[n], (label, chi, n)


def test_symbolic_reads_build_one_packed_module_each(monkeypatch):
    # the digit width comes from the memoized parts: no second recursion
    built = []
    init = VermaModule.__init__

    def counted(self, rs, rep, k1, k2):
        built.append((k1, k2))
        init(self, rs, rep, k1, k2)

    vm = standard_module("G2", "std", PP_K1, PP_K2)
    monkeypatch.setattr(VermaModule, "__init__", counted)
    vm.gram(4)
    vm.f_chain(4)
    assert len(built) == 2
    for k1, k2 in built:
        s = k1.bit_length() - 1
        assert s > 0 and (k1, k2) == (1 << s, 1 << 5 * s)


def test_symbolic_gram_entries_are_parampoly():
    for label in TYPES:
        rs = build_root_system(label)
        for rep in irreps(rs):
            vm = VermaModule(rs, rep, PP_K1, PP_K2)
            for n in range(4):
                assert all(type(v) is ParamPoly for row in vm.gram(n) for v in row)
            assert all(type(v) is ParamPoly for row in vm.f_chain(4) for v in row)


def test_symbolic_negative_degree_raises():
    vm = standard_module("G2", "std", PP_K1, PP_K2)
    for call in (vm.gram, vm.layer_rank):
        with pytest.raises(ValueError):
            call(-1)


def test_symbolic_f_chain_below_degree_two_is_identity():
    vm = standard_module("G2", "std", PP_K1, PP_K2)
    want = [[ParamPoly.coerce(v) for v in row] for row in identity(2)]
    for top in (-1, 0, 1):
        assert vm.f_chain(top) == want, top


def test_unpack_balanced_digits():
    # B = 2^8: digits in [-128, 128), so +-127 are the extreme coefficients
    s, stride, den = 8, 4, 6
    coefs = {(0, 0): -1, (1, 0): 127, (3, 0): -127, (0, 1): 5, (2, 1): -127,
             (0, 2): 1, (3, 3): -127}
    v = sum(c << (s * (i + stride * j)) for (i, j), c in coefs.items())
    want = ParamPoly({e: Rat(c, den) for e, c in coefs.items()})
    assert verma._unpack(v, s, stride, den) == want
    assert verma._unpack(0, s, stride, den) == ParamPoly()
    assert verma._unpack(-v, s, stride, 1) == ParamPoly({e: -c for e, c in coefs.items()})


def test_packing_rejects_fractional_values(monkeypatch):
    # packed values carrying a denominator (a large prime) that D, read off the
    # bound module, does not account for are caught before decoding
    lowerings = VermaModule._lowerings

    def off_scale(self, n):
        lows, scale = lowerings(self, n)
        return lows, scale / 1000003

    monkeypatch.setattr(VermaModule, "_lowerings", off_scale)
    vm = standard_module("B2", "triv", PP_K1, PP_K2)
    with pytest.raises(InvariantViolation):
        vm.gram(2)
    with pytest.raises(InvariantViolation):
        vm.f_chain(2)


def test_gram_symbolic_matches_evaluation():
    rs = build_root_system("B2")
    rep = get_irrep(rs, "triv")
    sym = VermaModule(rs, rep, PP_K1, PP_K2)
    k1, k2 = Rat(1, 2), Rat(-2, 3)
    num = VermaModule(rs, rep, k1, k2)
    for n in range(4):
        gs = sym.gram(n)
        gn = num.gram(n)
        for i in range(len(gs)):
            for j in range(len(gs)):
                v = ParamPoly.coerce(gs[i][j]).eval2(k1, k2)
                assert v == gn[i][j]


def test_symbolic_rank_certificate_matches_parampoly_bareiss():
    for label in TYPES:
        rs = build_root_system(label)
        for rep in irreps(rs):
            vm = VermaModule(rs, rep, PP_K1, PP_K2)
            for n in range(3):
                layer = vm.gram(n)
                want = bareiss_rank(layer)
                assert vm.layer_rank(n) == want == len(layer), (label, rep.label, n)


def test_symbolic_rank_falls_back_below_full_rank(monkeypatch):
    # at k = -1/3, L(triv) of A2 is 1-dimensional: its degree-1 layer
    # evaluates to rank 0 there, but has rank 2 over Q(k1, k2)
    point = (Rat(-1, 3), Rat(-1, 3))
    monkeypatch.setattr(verma, "_CERT_POINT", point)
    vm = standard_module("A2", "triv", PP_K1, PP_K2)
    at = [[ParamPoly.coerce(v).eval2(*point) for v in row] for row in vm.gram(1)]
    assert bareiss_rank(integer_scale(at)[0]) == 0
    assert vm.layer_rank(1) == 2


def test_symbolic_certificate_module_is_built_once(monkeypatch):
    built = []
    init = VermaModule.__init__

    def counting_init(self, rs, rep, k1, k2):
        if (k1, k2) == verma._CERT_POINT:
            built.append(self)
        init(self, rs, rep, k1, k2)

    monkeypatch.setattr(VermaModule, "__init__", counting_init)
    vm = standard_module("G2", "std", PP_K1, PP_K2)
    assert vm.graded_dims(6) == [(n + 1) * vm.rep.dim for n in range(7)]
    assert len(built) == 1


def test_a1_dimension_law():
    # L(triv) at k = -1/2 - n has graded dims 1,1,...,1 (2n+1 layers)
    for n in range(4):
        res = classify("A1", "triv", Rat(-1, 2) - n, Rat(-1, 2) - n)
        assert res.finite and res.m == n
        assert res.dims == (1,) * (2 * n + 1)
        assert res.total_dim == 2 * n + 1
    assert not classify("A1", "triv", Rat(1, 2), Rat(1, 2)).finite
    assert not classify("A1", "triv", Rat(2), Rat(2)).finite
    # sgn twist mirrors it at positive couplings
    res = classify("A1", "sgn", Rat(3, 2), Rat(3, 2))
    assert res.finite and res.total_dim == 3


def test_a2_dimension_pattern():
    # finite at hbar = -m, m != 2 (mod 3); dims are 1,2,...,j,...,2,1
    cases = {Rat(-1, 3): (1,), Rat(-2, 3): (1, 2, 1),
             Rat(-4, 3): (1, 2, 3, 4, 3, 2, 1)}
    for k, dims in cases.items():
        res = classify("A2", "triv", k, k)
        assert res.finite and res.dims == dims
    # the gap: m = 2 (mod 3) stays infinite even though hbar is a
    # nonpositive integer
    assert not classify("A2", "triv", Rat(-1), Rat(-1)).finite
    assert not classify("A2", "triv", Rat(-2), Rat(-2)).finite


def test_a2_sgn_branch_counterexamples():
    # The sign-character branch is finite exactly when 3k - 1 is a
    # nonnegative integer other than 2 (mod 3); the mirrored copy of the
    # trivial-character rule.  Two pinned counterexamples to the variant
    # with 3k + 1 = m: k = 1/3 is finite, k = 1 is not.
    res = classify("A2", "sgn", Rat(1, 3), Rat(1, 3))
    assert res.finite and res.total_dim == 1 and res.m == 0
    assert not classify("A2", "sgn", Rat(1), Rat(1)).finite
    assert not classify("A2", "sgn", Rat(0), Rat(0)).finite
    res = classify("A2", "sgn", Rat(2, 3), Rat(2, 3))
    assert res.finite and res.dims == (1, 2, 1)


def test_b2_points():
    res = classify("B2", "triv", Rat(-1, 4), Rat(-1, 4))
    assert res.finite and res.total_dim == 1
    res = classify("B2", "triv", Rat(-1, 2), Rat(-1, 2))
    assert res.finite and res.dims == (1, 2, 1)
    assert not classify("B2", "triv", Rat(-1, 4), Rat(-3, 4)).finite
    assert not classify("B2", "std", Rat(-1, 2), Rat(-1, 2)).finite
    res = classify("B2", "triv", Rat(-3, 2), Rat(-1, 2))
    assert res.finite and res.m == 3 and res.total_dim == 12


def test_g2_points():
    res = classify("G2", "triv", Rat(-1, 6), Rat(-1, 6))
    assert res.finite and res.total_dim == 1
    res = classify("G2", "triv", Rat(-1, 2), Rat(-1, 2))
    assert res.finite and res.m == 2 and res.dims == (1, 2, 3, 2, 1)
    assert not classify("G2", "triv", Rat(-1, 3), Rat(-2, 3)).finite
    assert not classify("G2", "std", Rat(-1, 2), Rat(-1, 2)).finite


def test_finite_dims_are_palindromic():
    pts = [("A1", "triv", Rat(-5, 2), Rat(-5, 2)),
           ("A2", "triv", Rat(-4, 3), Rat(-4, 3)),
           ("B2", "triv", Rat(-3, 2), Rat(-1, 2)),
           ("G2", "triv", Rat(-1, 2), Rat(-1, 2))]
    for label, chi, k1, k2 in pts:
        res = classify(label, chi, k1, k2)
        assert res.finite
        dims = res.dims
        assert dims == dims[::-1]
        assert dims[0] == 1 and len(dims) == 2 * res.m + 1


def test_twist_coherence_spot():
    for label in TYPES:
        rs = build_root_system(label)
        taus = [r for r in irreps(rs) if r.dim == 1]
        k1, k2 = rand_k(), rand_k()
        for chi in irreps(rs):
            base = standard_module(label, chi.label, k1, k2)
            bd = base.graded_dims(4)
            for tau in taus:
                t1, t2 = twist_couplings(rs, tau, k1, k2)
                other = standard_module(
                    label, tensor_one_dim(rs, chi, tau).label, t1, t2)
                assert other.graded_dims(4) == bd


def test_scan_bound_truncates_infinite_scan():
    res = classify("A2", "triv", Rat(1, 5), Rat(1, 5), scan_bound=4)
    assert not res.finite and len(res.dims) == 5


def test_chi_validation():
    try:
        classify("A2", "chi1", Rat(1), Rat(1))
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_classifying_leaves_no_state_on_root_system_or_irreps():
    # the memos live on the functions that compute them, not on their inputs
    def state(obj):
        return {name: len(v) if hasattr(v, "__len__") else v
                for name, v in vars(obj).items()}

    rs = RootSystem("G2")
    reps = irreps(rs)
    before = [state(obj) for obj in (rs, *reps)]
    res = VermaModule(rs, get_irrep(rs, "triv"), Rat(-1, 3), Rat(-1, 3)).classify()
    assert res.finite
    VermaModule(rs, get_irrep(rs, "std"), Rat(1, 2), Rat(1, 3)).classify(4)
    assert [state(obj) for obj in (rs, *reps)] == before
