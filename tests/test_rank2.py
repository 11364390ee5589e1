import inspect
import random
import sys
from contextlib import contextmanager

import pytest

from cherednik.polynomials import ParamPoly, PP_K1, PP_K2
from cherednik.scalars import QuadExt, Rat, rat
from cherednik.rank2 import _row
from cherednik.rank2 import (check_kappa_factorization, evaluate_at_couplings,
                             f_power_image, f_power_image_closed,
                             f_power_image_direct, finite_dim_table,
                             kappa_factor, kappa_factor_at_critical,
                             kappa_factor_conjectured,
                             very_singular)
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


def test_direct_route_cost_guard():
    try:
        f_power_image_direct("A2", 7, 0, Rat(1), Rat(1))
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


@pytest.mark.parametrize("label, n, r", [("XX", 0, 5), ("A2", -1, 0),
                                         ("A1", 1, 5)])
def test_table_routes_reject_bad_arguments(label, n, r):
    for route in (f_power_image, f_power_image_closed,
                  lambda *a: f_power_image_direct(*a, Rat(0), Rat(0))):
        with pytest.raises(ValueError):
            route(label, n, r)


def test_kappa_factor_sequence():
    assert kappa_factor(0) == ParamPoly.const(Rat(1))
    assert kappa_factor(1) == KAP
    assert kappa_factor(2) == KAP * KAP + (HB + Rat(2)) * Rat(1, 3)
    assert kappa_factor_at_critical(2) == KAP * KAP - Rat(1)
    assert kappa_factor_at_critical(3) == KAP * (KAP * KAP - Rat(4))
    assert kappa_factor_conjectured(4) == \
        (KAP * KAP - Rat(1)) * (KAP * KAP - Rat(9))


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
    # a miss fills the rows below in ascending order, so a cold deep row
    # needs only a few frames
    _row.cache_clear()
    with shallow_recursion():
        rows = {label: _row(label, 25) for label in ("A2", "B2", "G2")}
    for label, row in rows.items():
        assert list(row) == [f_power_image_closed(label, 25, r)
                             for r in range(len(row))], label


def test_cold_kappa_factor_recurses_shallowly():
    kappa_factor.cache_clear()
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
        if vs.conditional:
            assert vs.exact_decision == cl.finite


def test_very_singular_branches():
    assert very_singular("G2", Rat(-1, 3), Rat(-1, 3)).branch == "grading"
    vs = very_singular("G2", Rat(-1, 2), Rat(-1, 2))
    assert vs.branch == "kappa" and vs.conditional and vs.kappa == 0
    assert not very_singular("B2", Rat(-1, 2), Rat(-1, 2)).conditional
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
