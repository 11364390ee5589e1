import inspect
import itertools
import json
import random
import sys
import tracemalloc
from contextlib import contextmanager

import pytest

from cherednik.polynomials import MPoly, ParamPoly, PP_K1, PP_K2
from cherednik.scalars import QuadExt, Rat, rat
from cherednik import dunkl, verma
from cherednik import rank2
from cherednik.rank2 import _PRODUCTS, _ROWS, _product, _row
from cherednik.rank2 import (check_kappa_factorization, evaluate_at_couplings,
                             f_power_image, f_power_image_closed,
                             f_power_image_direct, finite_dim_table,
                             kappa_factor, kappa_factor_at_critical,
                             kappa_factor_conjectured,
                             very_singular)
from cherednik.dunkl import poly_coords
from cherednik.errors import InvariantViolation
from cherednik.rootsystem import build_root_system
from cherednik.verma import classify

RNG = random.Random(707)

HB, KAP = PP_K1, PP_K2


def max_r(label, n):
    return n // 2 if label == "B2" else n // 3


def rand_k():
    return Rat(RNG.randint(-7, 7), RNG.choice((1, 2, 3, 5)))


def test_pinned_table_entries():
    assert f_power_image("A2", 0, 0) == ParamPoly.const(Rat(1))
    assert f_power_image("A2", 1, 0) == -HB
    assert f_power_image("A2", 3, 1) == HB * (HB + Rat(1)) * Rat(2)
    assert f_power_image("B2", 1, 0) == -PP_K2          # hbar slot for B2
    assert f_power_image("B2", 2, 1) == (PP_K1 * Rat(2) + Rat(1)) * PP_K2 * Rat(2)
    assert f_power_image("G2", 1, 0) == -HB
    # ladder column r = 0: product of (hbar + i), alternating sign, n!
    import math
    for label in ("A2", "B2", "G2"):
        hb = PP_K2 if label == "B2" else PP_K1
        for n in range(6):
            want = ParamPoly.const(Rat((-1) ** n * math.factorial(n)))
            for i in range(n):
                want = want * (hb + Rat(i))
            assert f_power_image(label, n, 0) == want


def test_out_of_triangle_is_zero():
    zero = ParamPoly()
    assert f_power_image("A2", 2, 1) == zero
    assert f_power_image("B2", 1, 1) == zero
    assert f_power_image("G2", 5, 2) == zero
    assert f_power_image("A2", 4, -1) == zero
    assert f_power_image_closed("A2", 1, 5) == zero
    assert f_power_image_direct("B2", 1, -1, Rat(0), Rat(0)) == QuadExt(0)


def test_recursion_equals_closed_form():
    for label in ("A2", "B2", "G2"):
        for n in range(13):
            for r in range(max_r(label, n) + 1):
                assert (f_power_image(label, n, r)
                        == f_power_image_closed(label, n, r)), (label, n, r)


def test_direct_route_random_couplings():
    for label in ("A2", "B2", "G2"):
        for _ in range(3):
            k1 = rand_k()
            k2 = k1 if label == "A2" else rand_k()
            for n in range(5):
                for r in range(max_r(label, n) + 1):
                    want = QuadExt.coerce(evaluate_at_couplings(
                        label, f_power_image(label, n, r), k1, k2))
                    got = f_power_image_direct(label, n, r, k1, k2)
                    assert got == want, (label, n, r, str(k1), str(k2))


def test_evaluate_at_couplings_slots():
    # the table variables at raw couplings, by hand: hbar is 1 + 3 k1 on A2,
    # 1 + 2 (k1 + k2) on B2 and 1 + 3 (k1 + k2) on G2; A1 has no table family
    k1, k2 = Rat(2, 7), Rat(-3, 5)
    want = {"A2": (1 + 3 * k1, 0), "B2": (k1, 1 + 2 * (k1 + k2)),
            "G2": (1 + 3 * (k1 + k2), k2 - k1)}
    for label, slots in want.items():
        got = tuple(evaluate_at_couplings(label, p, k1, k2) for p in (PP_K1, PP_K2))
        assert got == slots, label
    for label in ("A1", "XX"):
        with pytest.raises(ValueError, match="no such table family"):
            evaluate_at_couplings(label, PP_K1, k1, k2)


def test_direct_route_cost_guard():
    # the guard comes before the triangle: (7, 3) is outside it, and raises too
    for r in (0, 3):
        with pytest.raises(ValueError, match="cost-guarded"):
            f_power_image_direct("A2", 7, r, Rat(1), Rat(1))


def test_table_invariant_reads_no_quadext_matrices(monkeypatch):
    # Q and c pinned; a cold normalization reads F(Q) off the integer
    # lowerings, with no lowering_matrix or f_matrix call
    want = {"A2": ("9*x1^4*x2^2 - 6*x1^2*x2^4 + x2^6", -62208),
            "B2": ("x1^2*x2^2", 144),
            "G2": ("2*x1^6 - 30*x1^4*x2^2 + 30*x1^2*x2^4 - 2*x2^6", 589824)}
    calls = []
    for label in want:
        dunkl.sl2_calibration(build_root_system(label))  # once per root system
    for mod in (dunkl, verma, rank2):
        for name in ("lowering_matrix", "f_matrix"):
            if hasattr(mod, name):
                def counted(*args, _f=getattr(mod, name), _name=name):
                    calls.append(_name)
                    return _f(*args)
                monkeypatch.setattr(mod, name, counted)
    rank2._table_invariant.cache_clear()
    try:
        for label, (q, c) in want.items():
            got_q, got_c = rank2._table_invariant(label)
            assert (str(got_q), got_c) == (q, QuadExt(c)), label
    finally:
        rank2._table_invariant.cache_clear()
    assert calls == []


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
@pytest.mark.parametrize("row", [0, 1])
def test_table_normalization_check_fires(label, row, monkeypatch):
    # one entry of F(Q) moved, in a column that Q reads: row 0 is where E^p
    # is nonzero and c is read, row 1 (x_0^(deg-3) x_1) where E^p is zero
    q = rank2._table_invariant(label)[0]
    deg = q.degree()
    epow = poly_coords(build_root_system(label).e_poly ** (deg // 2 - 1), deg - 2, 2)
    assert [bool(e) for e in epow[:2]] == [True, False]
    col = next(j for j, x in enumerate(poly_coords(q, deg, 2)) if x)
    assert (col == 0) == (label == "G2")  # only the G2 invariant has x_0^deg
    f_chain = verma.VermaModule.f_chain

    def moved(self, top, bottom=0):
        rows = f_chain(self, top, bottom)
        if top != deg:  # A2's check that its cubic lowers to zero
            return rows
        rows = [list(r) for r in rows]
        rows[row][col] += PP_K1
        return rows

    monkeypatch.setattr(verma.VermaModule, "f_chain", moved)
    with pytest.raises(InvariantViolation, match=f"{label} normalization: F\\(Q\\) is not"):
        rank2._table_invariant.__wrapped__(label)


def test_a2_cubic_check_fires(monkeypatch):
    # F of the cubic invariant 3 x_0^2 x_1 - x_1^3, f_chain(3, 1) on its
    # coordinates, moved off zero in a column that the cubic reads
    col = next(j for j, x in enumerate(poly_coords(
        build_root_system("A2").invariant_gens[1], 3, 2)) if x)
    f_chain = verma.VermaModule.f_chain

    def moved(self, top, bottom=0):
        rows = f_chain(self, top, bottom)
        if (top, bottom) != (3, 1):
            return rows
        rows = [list(r) for r in rows]
        rows[0][col] += PP_K1
        return rows

    monkeypatch.setattr(verma.VermaModule, "f_chain", moved)
    with pytest.raises(InvariantViolation, match="A2 cubic invariant should lower to zero"):
        rank2._table_invariant.__wrapped__("A2")


def test_direct_route_unnormalized_entries_match_recursion():
    # the r = 0 entries use no c: they check the integer parts on their own
    for label in ("A2", "B2", "G2"):
        for k1, k2 in ((Rat(2, 7), Rat(-3, 5)), (Rat(-5, 2), Rat(4, 3))):
            for n in range(7):
                want = QuadExt.coerce(evaluate_at_couplings(
                    label, f_power_image(label, n, 0), k1, k2))
                assert f_power_image_direct(label, n, 0, k1, k2) == want, (label, n)


@pytest.mark.parametrize("label, n, r", [("XX", 0, 5), ("A2", -1, 0),
                                         ("A1", 1, 5)])
def test_table_routes_reject_bad_arguments(label, n, r):
    for route in (f_power_image, f_power_image_closed,
                  lambda *a: f_power_image_direct(*a, Rat(0), Rat(0))):
        with pytest.raises(ValueError):
            route(label, n, r)


@pytest.mark.parametrize("call", [kappa_factor, kappa_factor_at_critical,
                                  kappa_factor_conjectured,
                                  check_kappa_factorization])
def test_kappa_routes_reject_a_negative_index(call):
    with pytest.raises(ValueError, match="nonnegative"):
        call(-1)


def test_kappa_factor_sequence():
    assert kappa_factor(0) == ParamPoly.const(Rat(1))
    assert kappa_factor(1) == KAP
    assert kappa_factor(2) == KAP * KAP + (HB + Rat(2)) * Rat(1, 3)
    assert kappa_factor_at_critical(2) == KAP * KAP - Rat(1)
    assert kappa_factor_at_critical(3) == KAP * (KAP * KAP - Rat(4))
    assert kappa_factor_conjectured(4) == \
        (KAP * KAP - Rat(1)) * (KAP * KAP - Rat(9))


# -- reference recursions in ParamPoly arithmetic -------------------------------
# Row n and kappa-factor p computed with rational coefficients, step by step
# as the paper states them: an oracle for the scalings (9^n for G2 rows, 3^p
# for the kappa-factors) that the package's integer tables carry.

def reference_step(label, row, n):
    def get(r):
        return row[r] if 0 <= r < len(row) else ParamPoly()

    out = []
    for r in range(max_r(label, n + 1) + 1):
        if label == "A2":
            t = get(r - 1) * Rat(r * (2 * r - 1))
            u = get(r) * (HB + Rat(n + 3 * r)) * Rat(n + 1 - 3 * r)
            out.append(t - u)
        elif label == "B2":
            t = get(r - 1) * (PP_K1 * Rat(2) + Rat(2 * r - 1)) * Rat(-2 * r)
            u = get(r) * (PP_K2 + Rat(n + 2 * r)) * Rat(n + 1 - 2 * r)
            out.append(t - u)
        else:
            t = get(r) * (HB + Rat(n + 3 * r)) * Rat(-(n + 1 - 3 * r))
            u = get(r - 1) * KAP * Rat(r)
            v = get(r - 2) * Rat(r * (r - 1), 9)
            out.append(t + u - v)
    return out


def reference_kappa_factors(top):
    ks = [ParamPoly.const(Rat(1)), KAP]
    for p in range(2, top + 1):
        ks.append(KAP * ks[p - 1] + ks[p - 2] * (HB + Rat(3 * p - 4)) * Rat(p - 1, 3))
    return ks


def test_tables_match_param_poly_reference():
    for label in ("A2", "B2", "G2"):
        row = [ParamPoly.const(Rat(1))]
        for n in range(15):
            if n:
                row = reference_step(label, row, n - 1)
            got = [f_power_image(label, n, r) for r in range(max_r(label, n) + 1)]
            assert got == row, (label, n)
    assert [kappa_factor(p) for p in range(32)] == reference_kappa_factors(31)


def test_critical_kappa_factors_match_param_poly_reference():
    # the reference specialized by ParamPoly.eval2, which shares no helper
    # with the package's rows over hbar
    ref = reference_kappa_factors(31)
    for r in range(32):
        assert kappa_factor_at_critical(r) == ref[r].eval2(Rat(-(3 * r - 1)), KAP), r


def test_tables_and_kappa_check_make_no_mpoly_product(monkeypatch):
    # the table routes and the kappa check work on int rows over hbar; only
    # the direct route multiplies polynomials (in x, over QuadExt)
    calls = []
    for name in ("__mul__", "__rmul__"):
        def counted(self, other, _f=getattr(MPoly, name)):
            calls.append(type(self))
            return _f(self, other)
        monkeypatch.setattr(MPoly, name, counted)
    _ROWS.clear()
    _PRODUCTS.clear()
    for label in ("A2", "B2", "G2"):
        for n in range(13):
            for r in range(max_r(label, n) + 1):
                f_power_image(label, n, r)
                f_power_image_closed(label, n, r)
    for f in (kappa_factor, kappa_factor_at_critical, kappa_factor_conjectured):
        for p in range(16):
            f(p)
    check_kappa_factorization(15)
    assert calls == []


@contextmanager
def shallow_recursion(frames=40):
    """A recursion limit a few dozen frames above the caller's own depth."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_cold_rows_recurse_shallowly():
    # the missing rows are appended in a loop, so a cold deep row needs
    # only a few frames
    _ROWS.clear()
    with shallow_recursion():
        rows = {label: _row(label, 25) for label in ("A2", "B2", "G2")}
    # the memo holds integer rows; f_power_image reads them as ParamPoly
    for label, row in rows.items():
        assert ([f_power_image(label, 25, r) for r in range(len(row))]
                == [f_power_image_closed(label, 25, r) for r in range(len(row))]), label


def test_row_memo_traffic_is_linear(monkeypatch):
    # one _row call per entry asked: an ascending sweep to row 60 made about
    # 1,890 calls per type when each row re-read every row below
    calls = []
    inner = rank2._row

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(rank2, "_row", counted)
    for label in ("A2", "B2", "G2"):
        _ROWS.clear()
        calls.clear()
        for n in range(61):
            f_power_image(label, n, 0)
        assert len(calls) <= 2 * 61, label


def test_rows_do_not_depend_on_request_order():
    for label in ("A2", "B2", "G2"):
        _ROWS.clear()
        up = [_row(label, n) for n in range(13)]
        _ROWS.clear()
        down = [_row(label, n) for n in reversed(range(13))]
        assert down[::-1] == up, label


def test_rows_hold_only_the_last_row():
    # a cold G2 row 40 kept rows 0-40, 3.45 MB under tracemalloc; row 40
    # alone is about 0.33 MB
    _ROWS.clear()
    tracemalloc.start()
    try:
        _row("G2", 40)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000


def test_products_do_not_depend_on_request_order():
    for label in ("A2", "B2", "G2"):
        for r in range(max_r(label, 12) + 1):
            ns = [n for n in range(13) if r <= max_r(label, n)]
            _PRODUCTS.clear()
            up = [_product(label, n, r) for n in ns]
            _PRODUCTS.clear()
            down = [_product(label, n, r) for n in reversed(ns)]
            assert down[::-1] == up, (label, r)


def test_products_hold_one_product_per_type_and_r():
    # an ascending B2 sweep to n = 40 that kept every product held 3.65 MB
    # under tracemalloc; the last product of each r is about 0.48 MB
    _PRODUCTS.clear()
    tracemalloc.start()
    try:
        for n in range(41):
            for r in range(max_r("B2", n) + 1):
                _product("B2", n, r)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000
    assert sorted(_PRODUCTS) == [("B2", r) for r in range(21)]
    assert all(held[0] == 40 for held in _PRODUCTS.values())


def test_product_memo_traffic_is_linear(monkeypatch):
    # each (type, r) product is multiplied by at most one factor per n of an
    # ascending sweep to n = 60, besides the r - 1 steps that build 3^r
    # kappa-factor r on G2; multiplying every factor anew for each entry
    # took 1,830 factors at r = 0
    calls = []
    inner = rank2._hb

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(rank2, "_hb", counted)
    for label in ("A2", "B2", "G2"):
        _PRODUCTS.clear()
        per_r = {}
        for n in range(61):
            for r in range(max_r(label, n) + 1):
                calls.clear()
                _product(label, n, r)
                per_r[r] = per_r.get(r, 0) + len(calls)
        assert all(count <= 61 + r for r, count in per_r.items()), label


def test_cold_kappa_factor_recurses_shallowly():
    # kappa-factors are not memoized: every call runs the sequence from p = 0
    with shallow_recursion():
        kappa_factor(25)
    assert kappa_factor_at_critical(25) == kappa_factor_conjectured(25)


def test_kappa_factorization_report():
    rep = check_kappa_factorization(15)
    assert rep.all_verified
    assert rep.verified_up_to == 31
    assert rep.first_failure is None
    d = rep.as_dict()
    assert d["verified_up_to"] == 31 and d["first_failure"] is None


def test_kappa_factorization_matches_one_index_at_a_time():
    # the check carries one conjectured product per parity; the reference
    # compares the public kappa-factors index by index
    agree = [kappa_factor_at_critical(r) == kappa_factor_conjectured(r)
             for r in range(62)]
    for max_q in (0, 1, 2, 5, 15, 30):
        top = 2 * max_q + 1
        first = next((r for r in range(top + 1) if not agree[r]), None)
        want = {"verified_up_to": top if first is None else first - 1,
                "first_failure": first, "checked_up_to": top}
        assert check_kappa_factorization(max_q).as_dict() == want, max_q


def assert_canonical(p):
    """p is what the checked ParamPoly constructor would build from it:
    (int, int) exponents, nonzero QuadExt coefficients with Rat parts."""
    assert type(p) is ParamPoly
    fresh = ParamPoly(p.terms)
    assert fresh == p and hash(fresh) == hash(p)
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == 2 and all(type(i) is int for i in e)
        assert type(c) is QuadExt and c
        assert type(c.a) is Rat and type(c.b) is Rat


def test_trusted_constructors_give_canonical_values():
    for label in ("A2", "B2", "G2"):
        for n in range(13):
            for r in range(max_r(label, n) + 1):
                assert_canonical(f_power_image(label, n, r))
                assert_canonical(f_power_image_closed(label, n, r))
    for p in range(21):
        for f in (kappa_factor, kappa_factor_at_critical, kappa_factor_conjectured):
            assert_canonical(f(p))
    # balanced digits over a denominator they share factors with
    s, stride = 6, 3
    v = sum(c << (s * e) for e, c in enumerate((3, -31, 0, 12, 1, -6)))
    assert_canonical(verma._unpack(v, s, stride, 6))
    assert_canonical(verma._unpack(0, s, stride, 6))
    for label, chi in (("A2", "std"), ("B2", "triv"), ("G2", "std")):
        vm = verma.standard_module(label, chi, PP_K1, PP_K2)
        for rows in (vm.gram(4), vm.f_chain(4)):
            for row in rows:
                for entry in row:
                    assert_canonical(entry)


def test_very_singular_matches_classifier():
    pts = [("A1", Rat(-1, 2), Rat(-1, 2)), ("A1", Rat(1), Rat(1)),
           ("A2", Rat(-2, 3), Rat(-2, 3)), ("A2", Rat(-1), Rat(-1)),
           ("B2", Rat(-1, 2), Rat(-1, 2)), ("B2", Rat(-1, 4), Rat(-3, 4)),
           ("B2", Rat(-3, 2), Rat(1, 2)), ("B2", Rat(-3, 2), Rat(-1, 2)),
           ("G2", Rat(-1, 3), Rat(-1, 3)), ("G2", Rat(-1, 2), Rat(-1, 2)),
           ("G2", Rat(-1, 3), Rat(-2, 3)), ("G2", Rat(-3, 2), Rat(-1, 2))]
    for label, k1, k2 in pts:
        vs = very_singular(label, k1, k2)
        cl = classify(label, "triv", k1, k2)
        assert vs.finite == cl.finite, (label, str(k1), str(k2))
        if vs.finite:
            assert vs.m == cl.m


def test_very_singular_branches():
    assert very_singular("G2", Rat(-1, 3), Rat(-1, 3)).branch == "grading"
    vs = very_singular("G2", Rat(-1, 2), Rat(-1, 2))
    assert vs.branch == "kappa" and vs.finite and vs.m == 2
    assert vs._fields == ("label", "finite", "m", "branch")
    assert very_singular("B2", Rat(-1, 2), Rat(-1, 2)).branch == "grading"
    # kappa-branch swap symmetry: the decision only sees |k2 - k1|
    a = very_singular("G2", Rat(-3, 2), Rat(-1, 2))
    b = very_singular("G2", Rat(-1, 2), Rat(-3, 2))
    assert a.finite and b.finite and a.m == b.m


def test_finite_dim_table_matches_per_character():
    grids = [("A2", Rat(1, 3), Rat(1, 3)), ("B2", Rat(-1, 2), Rat(-1, 2)),
             ("G2", Rat(-1, 6), Rat(-1, 6))]
    for label, k1, k2 in grids:
        table = finite_dim_table(label, k1, k2)
        for chi, entry in table.items():
            cl = classify(label, chi, k1, k2)
            assert entry.finite == cl.finite, (label, chi)
            if entry.finite:
                assert entry.m == cl.m


def test_results_are_immutable_values():
    results = (classify("A2", "triv", Rat(-1, 3), Rat(-1, 3)),
               very_singular("G2", Rat(-1, 2), Rat(-1, 2)), check_kappa_factorization(2))
    for res, field in zip(results, ("finite", "branch", "first_failure")):
        with pytest.raises(AttributeError):
            setattr(res, field, None)
    # m is kept exactly when finite, on the kappa branch too
    kappa = 0
    for label in ("A1", "A2", "B2", "G2"):
        for a, b in itertools.product(range(1, 13), range(1, 7)):
            k = Rat(-a, b)
            for vs in (very_singular(label, k, k), *finite_dim_table(label, k, k).values()):
                assert (vs.m is not None) == vs.finite, (label, str(k))
                kappa += vs.branch == "kappa"
    assert kappa
    # repr and as_dict are what selftest's messages and `classify --format json` print
    fin = classify("G2", "triv", Rat(-1, 2), Rat(-1, 2))
    inf = classify("B2", "std", Rat(1, 2), Rat(-1, 3))
    assert repr(fin) == "ClassifyResult(G2/triv at k=(-1/2,-1/2): dim 9)"
    assert repr(inf) == "ClassifyResult(B2/std at k=(1/2,-1/3): infinite)"
    assert json.dumps(fin.as_dict()) == (
        '{"type": "G2", "chi": "triv", "k1": "-1/2", "k2": "-1/2", "finite": true, '
        '"m": 2, "graded_dims": [1, 2, 3, 2, 1], "dim": 9}')
    assert json.dumps(inf.as_dict()) == (
        '{"type": "B2", "chi": "std", "k1": "1/2", "k2": "-1/3", "finite": false, '
        '"m": null, "graded_dims": null, "dim": null}')


def test_standard_types_never_finite_in_table():
    table = finite_dim_table("G2", Rat(-1, 2), Rat(-1, 2))
    assert not table["std"].finite and not table["std_tau"].finite
    table = finite_dim_table("A2", Rat(-1, 3), Rat(-1, 3))
    assert not table["std"].finite


def singular_reference(label: str, k1, k2):
    """Membership in the quoted singular-multiplicity lists (reference
    data; None when the sampled shape is not covered by them)."""
    k1, k2 = rat(k1), rat(k2)
    if label == "G2":
        def neg_half_odd(x):
            t = -2 * x
            return t.denominator == 1 and int(t) % 2 == 1 and t >= 1
        if neg_half_odd(k1) or neg_half_odd(k2):
            return True
        s = 3 * (k1 + k2)
        return s.denominator == 1 and s <= -1 and int(s) % 3 != 0
    if label == "B2" and k1 != k2:
        return None
    degrees = build_root_system(label).degrees
    if k1 >= 0 or k1.denominator == 1:
        return False
    return any((k1 * d).denominator == 1 for d in degrees)


def test_singular_reference_sets():
    cases = [
        ("A1", Rat(-1, 2), Rat(-1, 2), True),
        ("A1", Rat(-1), Rat(-1), False),
        ("A2", Rat(-2, 3), Rat(-2, 3), True),
        ("A2", Rat(-1, 2), Rat(-1, 2), True),
        ("A2", Rat(-1), Rat(-1), False),       # integers excluded
        ("A2", Rat(-1, 5), Rat(-1, 5), False),
        ("A2", Rat(1, 2), Rat(1, 2), False),   # positives excluded
        ("B2", Rat(-1, 4), Rat(-1, 4), True),
        ("B2", Rat(-1, 3), Rat(-1, 3), False),
        ("B2", Rat(-1, 4), Rat(-3, 4), None),  # unequal couplings: no list
        ("G2", Rat(-1, 2), Rat(7), True),
        ("G2", Rat(7), Rat(-5, 2), True),
        ("G2", Rat(-1, 3), Rat(-1, 3), True),
        ("G2", Rat(-1, 3), Rat(-2, 3), False),
        ("G2", Rat(2), Rat(2), False),
    ]
    for label, k1, k2, want in cases:
        got = singular_reference(label, k1, k2)
        assert got == want and type(got) == type(want), (label, str(k1), str(k2))


def test_very_singular_points_lie_in_singular_reference():
    # finite dimensionality implies form degeneracy (equal couplings)
    for label in ("A1", "A2", "B2", "G2"):
        for num in range(-12, 1):
            for den in (1, 2, 3, 4, 6):
                k = Rat(num, den)
                vs = very_singular(label, k, k)
                if vs.finite:
                    ref = singular_reference(label, k, k)
                    assert ref is True, (label, str(k))


def test_kappa_factorization_report_names_the_first_failure(monkeypatch, capsys):
    # conjectured factors doubled at r = 3: the report stops there
    from cherednik import cli

    stock = rank2._conjectures

    def off_at_three():
        for r, c in enumerate(stock()):
            yield [2 * a for a in c] if r == 3 else c

    monkeypatch.setattr(rank2, "_conjectures", off_at_three)
    rep = check_kappa_factorization(2)
    assert rep.first_failure == 3 and rep.verified_up_to == 2
    assert rep.all_verified is False
    want = {"verified_up_to": 2, "first_failure": 3, "checked_up_to": 5}
    assert rep.as_dict() == want
    assert cli.run(["conjecture", "--max-q", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == want
