import json
import random
from itertools import chain, islice, product
from pathlib import Path

import pytest

from cherednik.polynomials import ParamPoly, PP_K1, PP_K2, monomials
from cherednik.scalars import Rat, rat
from cherednik.rootsystem import RootSystem, build_root_system
from cherednik.wrep import Irrep, get_irrep, irreps
from cherednik.dunkl import b_direction, f_matrix
from cherednik import dunkl, linalg, verma
from cherednik.linalg import (bareiss_rank, identity, integer_scale, mat_mul,
                              pack_rows, rank_mod_p)
from cherednik.verma import VermaModule, classify, standard_module
from cherednik.errors import InvariantViolation

RNG = random.Random(606)
TYPES = ("A1", "A2", "B2", "G2")
GRID = json.loads((Path(__file__).parent / "golden" / "classify_grid.json").read_text())
GRID_POINTS = [(p["type"], p["chi"], rat(p["k1"]), rat(p["k2"])) for p in GRID]
# finite points whose scans reach degree 61 (A2, m = 30) and 19 (B2 and G2, m = 9)
DEEP = [("A2", "triv", Rat(-31, 3), Rat(-31, 3)), ("B2", "triv", Rat(-1, 2), Rat(-9, 2)),
        ("G2", "triv", Rat(-1), Rat(-7, 3))]


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
    # f_chain never forms F; the product of the formed F(n) must agree,
    # from layer 0 and from any layer
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
                # from layers 1-3, tops out of order: the held chain is
                # extended upward and restarted below
                fs = {n: f_matrix(rs, rep, n, a, b) for n in range(3, 8)}
                for bottom in (1, 2, 3):
                    for top in (bottom + 2, bottom + 4, bottom + 1, bottom + 3, bottom):
                        prod = identity(len(vm.layer_monomials(bottom)) * rep.dim)
                        for n in range(bottom + 2, top + 1, 2):
                            prod = mat_mul(prod, fs[n])
                        want = [[ParamPoly.coerce(v) for v in row] for row in prod]
                        got = [[ParamPoly.coerce(v) for v in row]
                               for row in vm.f_chain(top, bottom)]
                        assert got == want, (label, rep.label, a, bottom, top)


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
                mats.extend(vm._layer(n)[0])  # the two class blocks
                assert all(type(v) is int for mat in mats for row in mat for v in row)


def test_gram_recursion_equals_direct_assembly():
    for label in TYPES:
        rs = build_root_system(label)
        for rep in irreps(rs):
            k1, k2 = rand_k(), rand_k()
            vm = VermaModule(rs, rep, k1, k2)
            for n in range(5):
                assert vm.gram(n) == vm.gram_direct(n), (label, rep.label, n)


def _reflection_classes(rs, rep, n):
    """The degree-n basis indices, x^m e_t in the order of `monomials` then
    t, of sign +1 and of sign -1 under s, the reflection of root 0, read off
    s and rep.base(s), which must be diagonal signs."""
    w = rs.reflection_element[0]
    signs = []
    for mat in (rs.elements[w], rep.base.matrices[w]):
        assert all(v in (1, -1) if i == j else v == 0
                   for i, row in enumerate(mat) for j, v in enumerate(row))
        signs.append([1 if row[i] == 1 else -1 for i, row in enumerate(mat)])
    classes = ([], [])
    for i, (m, t) in enumerate(product(monomials(rs.rank, n), range(rep.dim))):
        sign = signs[1][t]
        for j, e in enumerate(m):
            sign *= signs[0][j] ** e
        classes[sign == -1].append(i)
    return classes


def test_gram_never_pairs_the_two_eigenspaces_of_the_reflection_of_root_0():
    # the form is W-invariant, so gram_direct, composed from the QuadExt
    # lowerings, is 0 between the two eigenspaces of s; _layer keeps one
    # block per eigenspace, in the same classes
    for label in TYPES:
        rs = build_root_system(label)
        for rep in irreps(rs):
            vm = VermaModule(rs, rep, Rat(2, 7), Rat(-3, 5))
            for n in range(5):
                plus, minus = _reflection_classes(rs, rep, n)
                g = vm.gram_direct(n)
                assert not any(g[i][j] or g[j][i] for i in plus for j in minus), \
                    (label, rep.label, n)
                blocks, _, classes = vm._layer(n)
                assert classes == [plus, minus], (label, rep.label, n)
                assert [len(b) for b in blocks] == [len(plus), len(minus)]


def test_lowering_cell_across_the_classes_raises(monkeypatch):
    # on A2 triv s negates x_0 only, so L_0 maps class c to class c ^ 1 and
    # its degree-3 cell from x_0^2 x_1 (class 0) to x_0^2 (class 0) is 0
    lowerings = VermaModule._lowerings

    def crossed(self, n):
        lows, scale = lowerings(self, n)
        if n != 3:
            return lows, scale
        first = [list(row) for row in lows[0]]
        assert first[0][1] == 0
        first[0][1] = 1
        return [first, lows[1]], scale

    monkeypatch.setattr(VermaModule, "_lowerings", crossed)
    with pytest.raises(InvariantViolation, match="across the classes"):
        standard_module("A2", "triv", Rat(2, 7), Rat(2, 7)).gram(3)
    # degree 4 is the first singular one, so its Gram layer is built on layer 3
    with pytest.raises(InvariantViolation, match="across the classes"):
        classify("A2", "triv", Rat(-4, 3), Rat(-4, 3))


def test_lowering_cell_inside_its_class_breaks_the_symmetry(monkeypatch):
    # the degree-3 cell of L_0 from x_0^3 (class 1) to x_0^2 (class 0) is
    # one the class check allows; moving it leaves the Gram block asymmetric
    lowerings = VermaModule._lowerings

    def moved(self, n):
        lows, scale = lowerings(self, n)
        if n != 3:
            return lows, scale
        first = [list(row) for row in lows[0]]
        first[0][0] += 1
        return [first, lows[1]], scale

    monkeypatch.setattr(VermaModule, "_lowerings", moved)
    with pytest.raises(InvariantViolation, match="form is not symmetric at degree 3"):
        standard_module("A2", "triv", Rat(2, 7), Rat(2, 7)).gram(3)
    with pytest.raises(InvariantViolation, match="form is not symmetric at degree 3"):
        classify("A2", "triv", Rat(-4, 3), Rat(-4, 3))


def _slots(packed, size, p):
    """The residues mod p of the first size slots of a packed row."""
    w = linalg.slot_width(size, p)
    return [(packed >> k * w & (1 << w) - 1) % p for k in range(size)]


def _packed(mat, ncols, classes):
    """The rows of the int matrix mat packed mod PRIME by pack_rows."""
    return list(pack_rows([mat], ncols, classes, linalg.PRIME))


def _proportional(a, b, p):
    """Whether the residue lists a and b are equal up to one nonzero factor."""
    k = next((i for i, v in enumerate(b) if v), None)
    if k is None or not a[k]:
        return not any(a) and k is None
    f = a[k] * pow(b[k], -1, p) % p
    return a == [f * v % p for v in b]


def test_stack_rows_from_held_lowerings_match_the_parts():
    # _stack packs its rows from the held lowerings (_low) when classify has
    # combined them, else combines the memoized residues (L_0 full, the L_j
    # tails from row n - 1): each pair has one class and residues equal up to
    # one nonzero factor
    p = linalg.PRIME
    for label in TYPES:
        rs = build_root_system(label)
        k1 = Rat(2, 5)
        k2 = k1 if rs.orbit_counts[1] == 0 else Rat(-3, 7)
        for rep in irreps(rs):
            held, fresh = VermaModule(rs, rep, k1, k2), VermaModule(rs, rep, k1, k2)
            for n in range(1, 9):
                held._lowerings(n)
                assert n in held._low and n not in fresh._low
                size = len(held.layer_monomials(n)) * rep.dim
                a, b = list(held._stack(n)), list(fresh._stack(n))
                assert len(a) == len(b), (label, rep.label, n)
                for (ca, va), (cb, vb) in zip(a, b):
                    assert ca == cb or not va and not vb, (label, rep.label, n)
                    assert _proportional(_slots(va, size, p), _slots(vb, size, p), p), \
                        (label, rep.label, n)


def test_residues_combine_to_the_integer_parts_at_any_coupling(monkeypatch):
    # c0 D + c1 A + c2 B of a part set's residues, read off its held integer
    # parts or off _assemble's planes, is, row by row, the packed row of the
    # integer parts combined at (c0, c1, c2), up to the row's scale (the
    # planes keep the parts' gcd), with one class
    rng, p = random.Random(58), linalg.PRIME
    build = dunkl.b_lowering_residues.__wrapped__
    for label in TYPES:
        rs = build_root_system(label)
        for rep in irreps(rs):
            for j, n in product(range(rs.rank), range(1, 9)):
                classes = dunkl.class_slices(rs, rep, n)
                for first in sorted({0, n - 1}) if rs.rank == 2 else (0,):
                    key = rs, rep, j, n, first
                    parts = dunkl.b_lowering_parts(*key)
                    c0, c1, c2 = (rng.randint(-p, p) for _ in range(3))
                    want = _packed(parts.ints(c0, c1, c2), parts.cols, classes)
                    with monkeypatch.context() as cold:
                        cold.setattr(dunkl.b_lowering_parts, "held", {})
                        planes = build(*key, p)
                    for got in (build(*key, p), planes):
                        assert len(got) == len(want) == parts.rows, key
                        for (cls, d, a, b), (wcls, v) in zip(got, want):
                            u = c0 % p * d + c1 % p * a + c2 % p * b
                            assert cls == wcls or not u and not v, key
                            assert _proportional(_slots(u, parts.cols, p),
                                                 _slots(v, parts.cols, p), p), key


def _crossed(rs, n, cells):
    """A stand-in for dunkl._assemble that adds, on the degree-n full parts of
    L_0, cells[plane] to row 0 at a column outside its reflection class."""
    assemble = dunkl._assemble

    def crossed(rs_, rep, y, deg, first=0):
        rows, cols, den, planes = assemble(rs_, rep, y, deg, first)
        if rs_ is rs and (deg, first, y) == (n, 0, b_direction(rs, 0)):
            cell = next(i for i in range(cols) if any(planes[q][i] for q in (0, 2, 4)))
            other = next(i for c in _reflection_classes(rs, rep, n) if cell not in c for i in c)
            for plane, v in cells.items():
                planes[plane][other] += v
        return rows, cols, den, planes

    return crossed


def test_stack_cell_across_the_classes_raises_on_a_generic_scan(monkeypatch):
    # a generic classification builds no Gram layer; the stack's residues
    # are checked against the classes instead, once per part set as they are
    # built, on D, A and B apart: so also a crossed cell of A whose negative
    # in B cancels it at k1 = k2 raises
    for k2, cells in ((Rat(-2, 11), {0: 1}), (Rat(1, 7), {2: 1, 4: -1})):
        point = ("G2", "std", Rat(1, 7), k2)
        assert not classify(*point).finite and standard_module(*point)._m is None
        rs = RootSystem("G2")  # a fresh root system: memo entries of its own
        dunkl.sl2_calibration(rs)  # assembles triv through lowering_matrix
        monkeypatch.setattr(dunkl, "_assemble", _crossed(rs, 3, cells))
        with pytest.raises(InvariantViolation, match="across the classes"):
            VermaModule(rs, get_irrep(rs, "std"), *point[2:]).classify()
        monkeypatch.undo()


def test_reflection_of_root_0_must_be_a_sign_on_the_basis_and_transfers(monkeypatch):
    # a hand-built rep whose image of s is a rotation leaves no two classes:
    # layer 0 already raises
    rs = build_root_system("A2")
    std = get_irrep(rs, "std")
    mats = list(std.matrices)
    mats[rs.reflection_element[0]] = next(m for m in mats if m[0][1])
    with pytest.raises(InvariantViolation, match="not a sign on the basis"):
        VermaModule(rs, Irrep(rs, "rotated", mats), Rat(2, 7), Rat(2, 7)).gram(0)
    # a transfer (c, c) that mixes the coordinates breaks the sl2 triple,
    # and past a calibration made without it, its lowerings cross the classes
    for label in ("A2", "B2", "G2"):
        rs = RootSystem(label)  # a fresh root system: memo entries of its own
        mixing = (rs.metric_scale, rs.metric_scale)
        monkeypatch.setattr(dunkl, "b_direction", lambda rs_, j: mixing)
        with pytest.raises(InvariantViolation, match="sl2 calibration failed"):
            dunkl.sl2_calibration(rs)
        monkeypatch.undo()
        dunkl.sl2_calibration(rs)
        monkeypatch.setattr(dunkl, "b_direction", lambda rs_, j: mixing)
        with pytest.raises(InvariantViolation, match="maps across the classes"):
            VermaModule(rs, get_irrep(rs, "triv"), Rat(2, 7), Rat(2, 7)).gram(1)
        monkeypatch.undo()


def test_bareiss_ranks_class_blocks_of_at_most_half_a_layer(monkeypatch):
    shapes = []

    def recording(mat):
        shapes.append((len(mat), len(mat[0]) if mat else 0))
        return bareiss_rank(mat)

    monkeypatch.setattr(verma, "bareiss_rank", recording)
    vm = standard_module("A2", "triv", Rat(-11, 3), Rat(-11, 3))
    top = len(vm.classify().dims)  # the degree of the first layer of rank 0
    low = len(vm._ranks) - 1  # the lowest singular degree
    # Bareiss runs on each degree from the first singular one up, one call per block
    assert len(shapes) == 2 * (top - low + 1)
    for deg, pair in zip(range(low, top + 1), zip(shapes[::2], shapes[1::2])):
        size = len(vm.layer_monomials(deg)) * vm.rep.dim
        assert all(r == c <= -(-size // 2) for r, c in pair), (deg, pair)
        assert pair[0][0] + pair[1][0] == size, (deg, pair)


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
                rows.extend(mat_mul([r], lows[1])[0] for r in prev[(deg - 1) * d:])
        layers.append([[ParamPoly.coerce(v) for v in row] for row in rows])
    return layers


def test_symbolic_layers_out_of_order():
    # each layer is read off a packed point chosen for its own degree
    for label, chi in (("B2", "triv"), ("A2", "std")):
        vm = standard_module(label, chi, PP_K1, PP_K2)
        want = _parampoly_layers(vm, 7)
        for n in (6, 2, 7):
            assert vm.gram(n) == want[n], (label, chi, n)


@pytest.mark.parametrize("label, chi", [("B2", "triv"), ("G2", "std")])
def test_symmetry_check_guards_the_mirrored_unpack(label, chi, monkeypatch):
    # a symbolic layer unpacks j >= i and mirrors it: exact only because
    # _layer checks the packed layer for symmetry
    vm = standard_module(label, chi, PP_K1, PP_K2)
    want = _parampoly_layers(vm, 6)
    for n in range(7):
        got = vm.gram(n)
        size = len(got)
        assert all(got[i][j] is got[j][i] for i in range(size) for j in range(size))
        assert got == want[n], (label, chi, n)
    lowerings = VermaModule._lowerings

    def skewed(self, n):
        # only the packed numeric module reads lowerings for a symbolic gram:
        # one cell of the second direction, in a column the first fills
        lows, scale = lowerings(self, n)
        second = [list(row) for row in lows[1]]
        second[(n - 1) * self.rep.dim][0] += 1
        return [lows[0], second], scale

    monkeypatch.setattr(VermaModule, "_lowerings", skewed)
    verma._unpacked.cache_clear()  # the layers above are memoized
    for n in (1, 4):
        with pytest.raises(InvariantViolation):
            standard_module(label, chi, PP_K1, PP_K2).gram(n)


def test_symbolic_gram_unpacks_each_symmetric_pair_once(monkeypatch):
    calls = []
    unpack = verma._unpack

    def counted(*args):
        calls.append(args)
        return unpack(*args)

    monkeypatch.setattr(verma, "_unpack", counted)
    verma._unpacked.cache_clear()
    vm = standard_module("G2", "std", PP_K1, PP_K2)
    assert len(vm.gram(4)) == 10
    assert len(calls) == 10 * 11 // 2
    calls.clear()
    rows = vm.f_chain(4)
    assert len(calls) == len(rows) * len(rows[0]) == 2 * 10


def test_symbolic_reads_build_one_packed_module_each(monkeypatch):
    # the digit width comes from the memoized parts: no second recursion
    built = []
    init = VermaModule.__init__

    def counted(self, rs, rep, k1, k2):
        built.append((k1, k2))
        init(self, rs, rep, k1, k2)

    vm = standard_module("G2", "std", PP_K1, PP_K2)
    monkeypatch.setattr(VermaModule, "__init__", counted)
    verma._unpacked.cache_clear()
    vm.gram(4)
    vm.f_chain(4)
    assert len(built) == 2
    for k1, k2 in built:
        s = k1.bit_length() - 1
        assert s > 0 and (k1, k2) == (1 << s, 1 << 5 * s)


# A2 sgn; B2 sgn, chi1, chi2; G2 sgn, tau, sgn_tau, std_tau: a sign per root
# orbit times a base that is not themselves
TWISTED = [(label, rep.label) for label in ("A2", "B2", "G2")
           for rep in irreps(build_root_system(label)) if rep.base is not rep]


@pytest.mark.parametrize("label, chi", TWISTED)
def test_twisted_symbolic_reads_equal_their_own_unpacking(label, chi):
    # read off the base's memoized layers with a sign per monomial; the
    # reference packs the character's own module at signed couplings
    rs = build_root_system(label)
    rep = get_irrep(rs, chi)
    verma._unpacked.cache_clear()
    vm = VermaModule(rs, rep, PP_K1, PP_K2)
    for n in range(5):
        got = vm.gram(n)
        assert got == verma._unpacked.__wrapped__(rs, rep, n, False, 0), (label, chi, n)
        size = len(got)
        assert all(got[i][j] is got[j][i] for i in range(size) for j in range(i, size))
    assert vm.f_chain(4) == verma._unpacked.__wrapped__(rs, rep, 4, True, 0)
    assert vm.f_chain(5, 1) == verma._unpacked.__wrapped__(rs, rep, 5, True, 1)
    # the sign is not the identity: some odd monomial flips
    assert vm.gram(2) != VermaModule(rs, rep.base, PP_K1, PP_K2).gram(2)


@pytest.mark.parametrize("chi", ["std", "std_tau", "sgn"])
def test_symbolic_reads_are_fresh_rows(chi):
    # the memo is shared by every module over a base: a caller's edits
    # stay in the rows it was given
    vm = standard_module("G2", chi, PP_K1, PP_K2)
    for read in (lambda: vm.gram(3), lambda: vm.f_chain(4)):
        rows = read()
        want = [list(row) for row in rows]
        rows[0][0] = rows[-1].pop()
        rows.pop()
        assert read() == want


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_symbolic_pass_builds_one_packed_module_per_base_and_degree(label, monkeypatch):
    built = []
    init = VermaModule.__init__

    def counted(self, rs, rep, k1, k2):
        if k1 is not PP_K1:  # a packed module at (B, B^stride)
            built.append((rep.label, (k2.bit_length() - 1) // (k1.bit_length() - 1)))
        init(self, rs, rep, k1, k2)

    rs = build_root_system(label)
    reps = irreps(rs)
    bases = {rep.base.label for rep in reps}
    monkeypatch.setattr(VermaModule, "__init__", counted)
    verma._unpacked.cache_clear()
    for n in range(5):
        for rep in reps:
            VermaModule(rs, rep, PP_K1, PP_K2).gram(n)
    assert sorted(built) == sorted((b, n + 1) for b in bases for n in range(5))
    info = verma._unpacked.cache_info()
    assert (info.misses, info.hits) == (5 * len(bases), 5 * (len(reps) - len(bases)))


def test_symbolic_gram_entries_are_parampoly():
    for label in TYPES:
        rs = build_root_system(label)
        for rep in irreps(rs):
            vm = VermaModule(rs, rep, PP_K1, PP_K2)
            for n in range(4):
                assert all(type(v) is ParamPoly for row in vm.gram(n) for v in row)
            assert all(type(v) is ParamPoly for row in vm.f_chain(4) for v in row)


def test_symbolic_negative_degree_raises():
    for k1, k2 in ((PP_K1, PP_K2), (Rat(2, 7), Rat(-3, 5))):
        vm = standard_module("G2", "std", k1, k2)
        for call in (vm.gram, vm.layer_rank):
            with pytest.raises(ValueError):
                call(-1)


def test_symbolic_module_refuses_the_finiteness_tests():
    vm = standard_module("A2", "triv", PP_K1, PP_K2)
    for call in (vm.classify, vm.epower_criterion):
        with pytest.raises(ValueError, match="needs numeric couplings"):
            call()


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
    verma._unpacked.cache_clear()
    vm = standard_module("B2", "triv", PP_K1, PP_K2)
    with pytest.raises(InvariantViolation):
        vm.gram(2)
    with pytest.raises(InvariantViolation):
        vm.f_chain(2)


def test_symbolic_rank_certificate_matches_parampoly_bareiss():
    for label in TYPES:
        rs = build_root_system(label)
        for rep in irreps(rs):
            vm = VermaModule(rs, rep, PP_K1, PP_K2)
            for n in range(4):
                layer = vm.gram(n)
                want = bareiss_rank(layer)
                assert vm.layer_rank(n) == want == len(layer), (label, rep.label, n)


def _scanned_ranks(label, chi, k1, k2):
    """The module and the layer ranks its classification scanned."""
    vm = standard_module(label, chi, k1, k2)
    res = vm.classify()
    return vm, list(res.dims) + [0] * res.finite


def _dense_layers(vm, top):
    """The integer Gram layers of degrees 0..top as whole matrices, from the
    lowerings alone: prev L_0, then in rank 2 prev's last dim-chi rows times
    L_1, each degree divided by its content.  It shares no code with the
    class blocks of VermaModule._layer."""
    d = vm.rep.dim
    layers = [[[int(i == j) for j in range(d)] for i in range(d)]]
    for n in range(1, top + 1):
        prev, lows = layers[-1], vm._lowerings(n)[0]
        rows = mat_mul(prev, lows[0])
        if len(lows) == 2:
            rows += mat_mul(prev[-d:], lows[1])
        layers.append(integer_scale(rows)[0])
    return layers


@pytest.mark.parametrize("point", GRID_POINTS + DEEP, ids=lambda p: "/".join(map(str, p)))
def test_layer_rank_matches_bareiss_on_every_scanned_layer(point):
    vm, ranks = _scanned_ranks(*point)
    assert ranks == [bareiss_rank(g) for g in _dense_layers(vm, len(ranks) - 1)]


# generic points, one per type, where every layer is proven from the lowerings
GENERIC = [("A1", "triv", Rat(2, 7), Rat(2, 7)), ("A2", "std", Rat(3, 7), Rat(3, 7)),
           ("B2", "std", Rat(-5, 11), Rat(2, 7)), ("G2", "std_tau", Rat(1, 7), Rat(-2, 11))]


def test_layer_rank_descending_order_matches_ascending():
    for point in DEEP[1:] + GENERIC:  # the A2 deep point would add seconds and no new case
        scanned, up = _scanned_ranks(*point)
        vm = standard_module(*point)
        assert [vm.layer_rank(n) for n in range(len(up) - 1, -1, -1)] == up[::-1], point
        # a layer below the one a classification holds is rebuilt from
        # degree 0, and the held layer stays
        n, held = len(up) - 3, set(scanned._gram)
        assert all(d > n for d in held), point
        assert scanned.gram(n) == standard_module(*point).gram(n), point
        assert set(scanned._gram) == (held or {n}), point
    for point in GENERIC:
        # a fresh module asked for degree 14 first settles the degrees below
        vm = standard_module(*point)
        size = len(vm.layer_monomials(14)) * vm.rep.dim
        assert vm.layer_rank(14) == size and not vm._gram, point
        assert sum(map(bareiss_rank, vm._layer(14)[0])) == size, point


def test_rank_mod_p_is_no_verdict_on_multiples_of_p(monkeypatch):
    p = linalg.PRIME

    def rank(mat):
        return rank_mod_p(_packed(mat, len(mat[0]), ((slice(None),),)), len(mat[0]))

    for mat in ([[p]], [[1, 0], [0, p]], [[1, 0], [0, p], [0, 2 * p]]):
        assert rank(mat) == len(mat[0]) - 1
    assert rank([[1, 0], [0, p + 1]]) == 2
    assert rank([[1, 0], [0, p], [0, 1]]) == 2
    ranks = []

    def counting_rank(mat):
        ranks.append(bareiss_rank(mat))
        return ranks[-1]

    monkeypatch.setattr(verma, "bareiss_rank", counting_rank)
    for label in ("A2", "B2"):
        # degree-1 lowerings whose block (here the whole stack) is
        # diag(1, 1, 1, p), singular mod p: layer_rank must prove full rank
        # by elimination over Z on the Gram layer's two class blocks instead
        # (x_0 e_0 and x_1 e_1 against x_0 e_1 and x_1 e_0)
        vm = standard_module(label, "std", Rat(2, 7), Rat(2, 7))
        vm._low[1] = [[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, p]]], Rat(1)
        ranks.clear()
        assert vm.layer_rank(1) == 4 and ranks == [2, 2], label


def test_each_rank_proof_fires(monkeypatch):
    # the square block, the whole stack and Bareiss on the Gram layer each
    # prove some full-rank layer; a generic classification builds no Gram
    # layer.  The stack is ordered block first, so a proof is the block's
    # when the leading square alone is independent mod p.
    fired = set()

    def counting(rows, ncols, classes):
        # the leading square alone first, so that a block proof reads no more rows
        rows = iter(rows)
        block = list(islice(rows, ncols))
        rank = rank_mod_p(block, ncols, classes)
        if rank == ncols:
            fired.add("block")
            return rank
        rank = rank_mod_p(chain(block, rows), ncols, classes)
        if rank == ncols:
            fired.add("stack")
        return rank

    def counting_rank(mat):
        rank = bareiss_rank(mat)
        if rank == len(mat):
            fired.add("bareiss")
        return rank

    def routes(point):
        fired.clear()
        vm = standard_module(*point)
        vm.classify()
        return vm, set(fired)

    monkeypatch.setattr(verma, "rank_mod_p", counting)
    monkeypatch.setattr(verma, "bareiss_rank", counting_rank)
    vm, got = routes(("G2", "std", Rat(1, 7), Rat(-2, 11)))
    assert got == {"block"} and not vm._gram
    # the block is singular mod p at degree 3, where G_3 is not
    vm, got = routes(("A2", "triv", Rat(-4, 3), Rat(-4, 3)))
    assert got == {"block", "stack"} and vm._ranks == [1, 2, 3, 4, 3]
    # mod 3 both fail on some full-rank layer, which Bareiss then proves
    monkeypatch.setattr(linalg, "PRIME", 3)
    assert "bareiss" in routes(("G2", "sgn_tau", Rat(0), Rat(-4, 3)))[1]


def test_small_prime_falls_back_to_bareiss_with_identical_results(monkeypatch):
    want = [_scanned_ranks(*point)[1] for point in GRID_POINTS]
    fallbacks = []

    def counting_rank(mat):
        r = bareiss_rank(mat)
        fallbacks.append(r == len(mat))
        return r

    monkeypatch.setattr(linalg, "PRIME", 3)
    monkeypatch.setattr(verma, "bareiss_rank", counting_rank)
    for point, pinned, ranks in zip(GRID_POINTS, GRID, want):
        assert classify(*point).as_dict() == pinned
        assert _scanned_ranks(*point)[1] == ranks
    # mod 3, some full-rank layers have a vanishing determinant
    assert any(fallbacks)


def test_one_elimination_per_settled_degree(monkeypatch):
    calls = []

    def counting(rows, ncols, classes):
        rows = iter(rows)
        block, read = list(islice(rows, ncols)), []  # read: the rows past the block it reads
        calls.append((block, read, classes))
        return rank_mod_p(chain(block, (read.append(row) or row for row in rows)),
                          ncols, classes)

    monkeypatch.setattr(verma, "rank_mod_p", counting)
    vm = standard_module("A2", "triv", Rat(-4, 3), Rat(-4, 3))
    vm.classify()
    # degrees 1-3 are full rank and 4 is the first singular one
    assert vm._ranks == [1, 2, 3, 4, 3]
    assert len(calls) == 4
    # at degree 3 the block is singular mod p, and the same elimination goes
    # on into the rows of L_1 above it, which prove the layer
    (block, read, classes), size = calls[2], len(vm.layer_monomials(3))
    assert len(block) == size and read
    assert rank_mod_p(block, size, classes) < size == rank_mod_p(block + read, size, classes)
    # below it the block alone settles the degree
    assert not any(read for _, read, _ in calls[:2])


def _counting_assembly(monkeypatch):
    """The list that (j, n, first) of every part assembly from now on joins."""
    built, inner = [], dunkl._assemble

    def counting(rs, rep, y, n, first=0):
        built.append(([b_direction(rs, j) for j in range(rs.rank)].index(y), n, first))
        return inner(rs, rep, y, n, first)

    monkeypatch.setattr(dunkl, "_assemble", counting)
    return built


def test_generic_classify_builds_l0_and_the_tail_of_l1_only(monkeypatch):
    rs = RootSystem("G2")  # a fresh root system: memo entries of its own
    dunkl.sl2_calibration(rs)  # assembles triv through lowering_matrix
    built = _counting_assembly(monkeypatch)
    parts = dunkl.b_lowering_parts.cache_info()
    vm = VermaModule(rs, get_irrep(rs, "std"), Rat(1, 7), Rat(-2, 11))
    res = vm.classify()
    assert not res.finite and res.dims == tuple(2 * (n + 1) for n in range(11))
    # degrees 1-10: the full parts of L_0 and the tail of L_1, no full L_1,
    # each built once as packed residues and never as integer parts
    assert sorted(built) == sorted([(0, n, 0) for n in range(1, 11)]
                                   + [(1, n, n - 1) for n in range(1, 11)])
    assert not vm._low and not vm._gram
    assert dunkl.b_lowering_parts.cache_info() == parts


@pytest.mark.parametrize("point", [("A2", "triv", Rat(-7, 3), Rat(-7, 3)),
                                   ("B2", "triv", Rat(-3, 2), Rat(-1, 2))],
                         ids=lambda p: "/".join(map(str, p)))
def test_classify_combines_each_degree_once_and_drops_it(monkeypatch, point):
    # first singular degree 7 and 2m + 2 = 14 on A2; 2 and 8 on B2
    combined = []  # (rows, cols) of every integer combination of lowering parts
    ints = dunkl.LoweringParts.ints

    def counting(parts, *coefs):
        combined.append((parts.rows, parts.cols))
        return ints(parts, *coefs)

    monkeypatch.setattr(dunkl.LoweringParts, "ints", counting)
    vm = standard_module(*point)
    res = vm.classify()
    # each degree 1..2m + 2 once: both full lowerings of triv, and no tail
    assert sorted(combined) == sorted((n, n + 1) for n in range(1, 2 * res.m + 3) for _ in "01")
    # what is held at the end: the lowerings of 2m + 1 and 2m + 2 and one Gram layer
    assert len(vm._low) <= 2 and len(vm._gram) == 1


def test_gram_then_layer_rank_builds_the_layer_once(monkeypatch):
    # G2 std at k = -5/6 is first singular at degree 5: layer_rank(12) after
    # gram(12) settles degrees 1-5, rebuilding layers 0-5 only
    point = ("G2", "std", Rat(-5, 6), Rat(-5, 6))
    want = standard_module(*point).layer_rank(12)
    built = []  # the degrees whose Gram layer is built
    classes = VermaModule._classes
    monkeypatch.setattr(VermaModule, "_classes", lambda vm, n: built.append(n) or classes(vm, n))
    vm = standard_module(*point)
    vm.gram(12)
    assert vm.layer_rank(12) == want and list(vm._gram) == [12]
    assert built == list(range(13)) + list(range(6))


def test_ranks_are_kept_to_the_lowest_singular_degree(monkeypatch):
    calls = []

    def counting_rank(mat):
        calls.append(mat)
        return bareiss_rank(mat)

    monkeypatch.setattr(verma, "bareiss_rank", counting_rank)
    vm = standard_module("A2", "triv", Rat(-4, 3), Rat(-4, 3))
    assert vm.layer_rank(4) == 3 and vm._ranks == [1, 2, 3, 4, 3]
    # a settled degree is read back; a degree past the list is ranked afresh
    calls.clear()
    assert vm.layer_rank(4) == 3 and not calls
    classes = vm._layer(6)[0]
    assert vm.layer_rank(6) == sum(map(bareiss_rank, classes))
    assert calls == list(classes) and vm._ranks == [1, 2, 3, 4, 3]


def test_full_l1_is_built_only_where_the_block_is_singular(monkeypatch):
    # at a generic point degree 1 reads the block only, and degree 2, whose
    # block is singular mod p (its layer is not), the full residues of L_1 too
    rs = RootSystem("B2")  # a fresh root system: memo entries of its own
    dunkl.sl2_calibration(rs)  # assembles triv through lowering_matrix
    built = _counting_assembly(monkeypatch)
    vm = VermaModule(rs, get_irrep(rs, "std"), Rat(1, 2), Rat(1, 2))
    assert vm._m is None and vm.layer_rank(2) == 6 and not vm._low and not vm._gram
    assert built == [(0, 1, 0), (1, 1, 0), (0, 2, 0), (1, 2, 1), (1, 2, 0)]


def test_symbolic_rank_short_at_the_point_raises(monkeypatch):
    # at k = -1/3, L(triv) of A2 is 1-dimensional: its degree-1 layer
    # evaluates to rank 0 there, though it has rank 2 over Q(k1, k2).  The
    # certificate point k = 0 is chosen so that this cannot happen.
    point = (Rat(-1, 3), Rat(-1, 3))
    monkeypatch.setattr(verma, "_CERT_POINT", point)
    vm = standard_module("A2", "triv", PP_K1, PP_K2)
    at = [[ParamPoly.coerce(v).eval2(*point) for v in row] for row in vm.gram(1)]
    assert bareiss_rank(at) == 0
    with pytest.raises(InvariantViolation, match="not full rank"):
        vm.layer_rank(1)


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


@pytest.mark.parametrize("k, want", [(Rat(-4, 3), (True, 3, True)),
                                     (Rat(1, 2), (False, None, False)),
                                     (Rat(-2), (True, 5, False))])
def test_classify_raises_when_the_two_finiteness_tests_disagree(k, want, monkeypatch):
    # A2 triv, finite (m = 3), generic, and natural but infinite (m = 5): the
    # raised-vector verdict flipped must trip the cross-check with the scan
    ep = standard_module("A2", "triv", k, k).epower_criterion()
    assert (ep.natural, ep.m, ep.finite) == want
    epower = VermaModule.epower_criterion
    monkeypatch.setattr(VermaModule, "epower_criterion",
                        lambda self: epower(self)._replace(finite=not want[2]))
    with pytest.raises(InvariantViolation, match="the two finiteness tests disagree"):
        classify("A2", "triv", k, k)


def test_classify_raises_on_a_broken_finite_shape(monkeypatch):
    # one more rank on layer 1 of a finite quotient: the scan still ends,
    # but the dimensions are no longer a palindrome of length 2m + 1
    assert classify("A2", "triv", Rat(-4, 3), Rat(-4, 3)).dims == (1, 2, 3, 4, 3, 2, 1)
    classify.cache_clear()  # the fault must reach the engine, not a kept verdict
    layer_rank = VermaModule.layer_rank
    monkeypatch.setattr(VermaModule, "layer_rank", lambda self, n: layer_rank(self, n) + (n == 1))
    with pytest.raises(InvariantViolation, match="break the finite-quotient shape"):
        classify("A2", "triv", Rat(-4, 3), Rat(-4, 3))


def test_twisted_module_is_its_base_at_signed_couplings():
    # an irrep that is signs times its base has, at (k1, k2), the integer
    # layers and raised rows of the base at (s_0 k1, s_1 k2)
    k1, k2 = Rat(2, 7), Rat(-3, 5)
    for label in TYPES:
        rs = build_root_system(label)
        for rep in irreps(rs):
            s0, s1 = rep.signs
            vm = VermaModule(rs, rep, k1, k2)
            base = VermaModule(rs, rep.base, s0 * k1, s1 * k2)
            for n in range(8):
                assert vm._layer(n) == base._layer(n), (label, rep.label, n)
            assert vm.f_chain(6) == base.f_chain(6), (label, rep.label)


def test_twisted_symbolic_gram_is_its_base_at_signed_couplings():
    for label in TYPES:
        rs = build_root_system(label)
        for rep in irreps(rs):
            s0, s1 = rep.signs
            got = VermaModule(rs, rep, PP_K1, PP_K2).gram(3)
            base = VermaModule(rs, rep.base, PP_K1, PP_K2).gram(3)
            want = [[ParamPoly.coerce(v).eval2(s0 * PP_K1, s1 * PP_K2) for v in row]
                    for row in base]
            assert [[ParamPoly.coerce(v) for v in row] for row in got] == want, \
                (label, rep.label)


def test_every_layer_has_full_rank_at_zero_coupling():
    # at k = 0 every lowering is a transfer derivative, so the form is the
    # Fischer form of the metric tensor the identity on chi: positive definite
    for label in TYPES:
        rs = build_root_system(label)
        top = 30 if label == "A1" else 12
        for rep in irreps(rs):
            vm = VermaModule(rs, rep, 0, 0)
            want = [len(vm.layer_monomials(n)) * rep.dim for n in range(top + 1)]
            assert vm.graded_dims(top) == want, (label, rep.label)


def test_scan_bound_truncates_infinite_scan():
    res = classify("A2", "triv", Rat(1, 5), Rat(1, 5), scan_bound=4)
    assert not res.finite and len(res.dims) == 5


def test_scan_bound_never_stops_below_two_m_plus_two():
    # at a lowest-weight scalar -m the scan reaches degree 2m + 2 whatever
    # the bound asked: A2 triv k = -1 (m = 2) is infinite with seven layers
    res = classify("A2", "triv", Rat(-1), Rat(-1), scan_bound=1)
    assert not res.finite and res.dims == (1, 2, 3, 4, 5, 6, 7)
    res = classify("G2", "triv", Rat(-1, 2), Rat(-1, 2), scan_bound=0)
    assert res.finite and res.m == 2 and res.dims == (1, 2, 3, 2, 1)


@pytest.mark.parametrize("point", [("A2", "triv", Rat(-4, 3), Rat(-4, 3)),
                                   ("A2", "triv", Rat(-1), Rat(-1)),
                                   ("G2", "std", Rat(1, 2), Rat(-1, 3))],
                         ids=["finite", "infinite-natural", "generic"])
def test_classify_computes_the_lowest_weight_scalar_once(monkeypatch, point):
    # classify and epower_criterion share the module's m: one b(chi) per
    # module, and none more on a second call
    vm, calls = standard_module(*point), []  # built first: it runs the sl2 calibration
    lws = dunkl.lowest_weight_scalar

    def counting(*args):
        calls.append(args[2:])
        return lws(*args)

    monkeypatch.setattr(dunkl, "lowest_weight_scalar", counting)
    first = vm.classify()
    assert vm.classify() == first
    vm.epower_criterion()
    assert calls == [point[2:]]


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


def _class_request(label, chi, k1, k2):
    """The request of chi's base at the signed couplings: chi's sign-twist class."""
    rep = get_irrep(build_root_system(label), chi)
    return label, rep.base.label, rep.signs[0] * k1, rep.signs[1] * k2


def test_verdict_memo_answers_every_twist_of_the_grid():
    # bases first, so every grid point, twisted or not, is a hit, and each
    # relabeled verdict is the one its own module computes
    bases = list(dict.fromkeys(_class_request(*p) for p in GRID_POINTS))
    for point in bases:
        classify(*point)
    assert classify.cache_info()[:2] == (0, len(bases))
    for label, chi, k1, k2 in GRID_POINTS:
        fresh = standard_module(label, chi, k1, k2).classify()
        assert classify(label, chi, k1, k2).as_dict() == fresh.as_dict(), (label, chi, k1, k2)
    info = classify.cache_info()
    assert (info.hits, info.misses, info.currsize) == (len(GRID_POINTS), len(bases), len(bases))


def test_verdict_hit_with_another_m_raises(monkeypatch):
    # A2 sgn at 4/3 is in the class of A2 triv at -4/3 (m = 3); its own m
    # made 4 must not be answered by the class's verdict
    assert classify("A2", "triv", Rat(-4, 3), Rat(-4, 3)).m == 3
    own = verma.natural_m
    monkeypatch.setattr(verma, "natural_m",
                        lambda rs, rep, k1, k2: own(rs, rep, k1, k2) + (rep.label == "sgn"))
    with pytest.raises(InvariantViolation, match="A2/sgn at k=.4/3,4/3.: m = 4, but its "
                                                 "class triv at k=.-4/3,-4/3. has m = 3"):
        classify("A2", "sgn", Rat(4, 3), Rat(4, 3))
    assert classify.cache_info()[:2] == (1, 1)


def test_verdict_memo_keeps_the_last_128_classes():
    # 129 generic A1 classes: the memo holds the last 128, least recently
    # used going first
    ks = [Rat(j, 257) for j in range(1, 130)]
    for k in ks:
        classify("A1", "triv", k, k)
    assert classify.cache_info()[:4] == (0, 129, 128, 128)
    classify("A1", "triv", ks[-1], ks[-1])
    assert classify.cache_info()[:2] == (1, 129)
    classify("A1", "triv", ks[0], ks[0])
    assert classify.cache_info()[:2] == (1, 130)
    # with the first class read again before the 129th, the second goes
    classify.cache_clear()
    for k in ks[:128]:
        classify("A1", "triv", k, k)
    classify("A1", "triv", ks[0], ks[0])
    classify("A1", "triv", ks[128], ks[128])
    assert classify.cache_info()[:4] == (1, 129, 128, 128)
    classify("A1", "triv", ks[0], ks[0])
    assert classify.cache_info()[:2] == (2, 129)
    classify("A1", "triv", ks[1], ks[1])
    assert classify.cache_info()[:2] == (2, 130)


def test_verdict_memo_keeps_a_reuse_distance_of_128():
    # 128 small classes, then a twist of each in the same order: a reuse
    # distance of 128 requests, and every twist is a hit
    ks = [Rat(j, 129) for j in range(1, 129)]
    for k in ks:
        classify("A1", "triv", k, k)
    for k in ks:
        assert not classify("A1", "sgn", -k, -k).finite
    assert classify.cache_info()[:2] == (128, 128)


def test_twisted_engine_fault_names_its_class(monkeypatch):
    # A2 sgn at 4/3 is classified as its class representative, A2 triv at
    # -4/3, so a cross-check failing there names the representative
    epower = VermaModule.epower_criterion
    monkeypatch.setattr(VermaModule, "epower_criterion",
                        lambda self: epower(self)._replace(finite=False))
    with pytest.raises(InvariantViolation, match=r"^A2/triv at k=\(-4/3,-4/3\): the two "
                                                 r"finiteness tests disagree"):
        classify("A2", "sgn", Rat(4, 3), Rat(4, 3))


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_classify_needs_numeric_couplings(label):
    # symbolic couplings have no verdict: the raise comes before the memo
    info = classify.cache_info()
    for chi in ("triv", "sgn"):
        with pytest.raises(ValueError, match="needs numeric couplings"):
            classify(label, chi, PP_K1, PP_K2)
    assert classify.cache_info() == info
