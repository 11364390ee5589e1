"""Property test: the classifier against the closed rules of rank2.

Couplings are drawn as rationals with small denominators for every type
and character.  The reference is `rank2.finite_dim_table`, which shares no
code with the classifier: 2-dimensional characters are never finite, and
on the G2 branch 3 | m + 1 its parity rule is theorem (a) of `rank2`, so
its verdict and m are the reference throughout.  Points whose
lowest-weight scalar is -m with m > 6 are filtered out to bound the cost.
Every finite quotient must have palindromic graded dimensions of length
2m + 1.  This is the one check of the classifier against
`finite_dim_table` (and so `very_singular`) on every type and character;
criteria 08 and 09 of `test_acceptance` compare `very_singular` only on
their own B2 and G2 grids.

A second property is the diagram automorphism sigma of B2 and G2, which
swaps the two root orbits: it swaps chi1 and chi2 on B2, tau and sgn_tau on
G2, and fixes every other character, so L(chi) at (k1, k2) and L(sigma chi)
at (k2, k1) have the same graded dimensions.
"""

import json
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, event, example, given, settings, strategies as st

from cherednik.scalars import Rat, is_nonneg_int, rat
from cherednik.rootsystem import LABELS, build_root_system
from cherednik.wrep import get_irrep, irreps
from cherednik.dunkl import lowest_weight_scalar
from cherednik.rank2 import finite_dim_table
from cherednik.verma import classify, standard_module

MAX_M = 6
CASES = [(label, rep.label) for label in LABELS
         for rep in irreps(build_root_system(label))]

SIGMA = {"B2": {"chi1": "chi2", "chi2": "chi1"},
         "G2": {"tau": "sgn_tau", "sgn_tau": "tau"}}
SIGMA_CASES = [(label, chi) for label, chi in CASES if label in SIGMA]
# the finite points of the pinned grid that sigma acts on, m <= 4
SIGMA_FINITE = [
    (p["type"], p["chi"], rat(p["k1"]), rat(p["k2"]))
    for p in json.loads((Path(__file__).parent / "golden" / "classify_grid.json").read_text())
    if p["type"] in SIGMA and p["finite"]]

small_rationals = st.builds(Rat, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6)))


def expected_verdict(label, chi, k1, k2):
    """(finite, m) from the closed rules."""
    res = finite_dim_table(label, k1, k2)[chi]
    return res.finite, res.m


@st.composite
def points(draw, cases=CASES):
    """(type, character, k1, k2), the pair drawn from cases; half the points
    are moved along the coupling of the last orbit onto a lowest-weight
    scalar -m, m <= 6, so that finite quotients are drawn often."""
    label, chi = draw(st.sampled_from(cases))
    rs = build_root_system(label)
    rep = get_irrep(rs, chi)
    one_orbit = not rs.orbit_counts[1]
    k1 = draw(small_rationals)
    k2 = k1 if one_orbit else draw(small_rationals)
    if draw(st.booleans()):
        e1 = 1 if one_orbit else 0
        slope = (lowest_weight_scalar(rs, rep, e1, 1)
                 - lowest_weight_scalar(rs, rep, 0, 0))
        if slope:
            m = draw(st.integers(0, MAX_M))
            t = (-m - lowest_weight_scalar(rs, rep, k1, k2)) / slope
            k1, k2 = k1 + e1 * t, k2 + t
    return label, chi, k1, k2


# the examples: the trivial character where criteria 08 and 09 do not compare
# very_singular, and every character at one point per rank-2 type
@settings(max_examples=250, deadline=None, derandomize=True)
@given(points())
@example(("A1", "triv", Rat(-1, 2), Rat(-1, 2)))
@example(("A1", "triv", Rat(1), Rat(1)))
@example(("A2", "triv", Rat(-2, 3), Rat(-2, 3)))
@example(("A2", "triv", Rat(-1), Rat(-1)))
@example(("B2", "triv", Rat(-3, 2), Rat(1, 2)))
@example(("B2", "triv", Rat(-3, 2), Rat(-1, 2)))
@example(("G2", "triv", Rat(-1, 3), Rat(-2, 3)))
@example(("A2", "triv", Rat(1, 3), Rat(1, 3)))
@example(("A2", "sgn", Rat(1, 3), Rat(1, 3)))
@example(("A2", "std", Rat(1, 3), Rat(1, 3)))
@example(("B2", "sgn", Rat(-1, 2), Rat(-1, 2)))
@example(("B2", "std", Rat(-1, 2), Rat(-1, 2)))
@example(("B2", "chi1", Rat(-1, 2), Rat(-1, 2)))
@example(("B2", "chi2", Rat(-1, 2), Rat(-1, 2)))
@example(("G2", "sgn", Rat(-1, 6), Rat(-1, 6)))
@example(("G2", "tau", Rat(-1, 6), Rat(-1, 6)))
@example(("G2", "sgn_tau", Rat(-1, 6), Rat(-1, 6)))
@example(("G2", "std", Rat(-1, 6), Rat(-1, 6)))
@example(("G2", "std_tau", Rat(-1, 6), Rat(-1, 6)))
def test_classify_agrees_with_closed_rules(point):
    label, chi, k1, k2 = point
    rs = build_root_system(label)
    b = lowest_weight_scalar(rs, get_irrep(rs, chi), k1, k2)
    assume(not is_nonneg_int(-b) or -b <= MAX_M)
    res = classify(label, chi, k1, k2)
    event(f"finite: {res.finite}")
    assert (res.finite, res.m) == expected_verdict(label, chi, k1, k2)
    if res.finite:
        dims = list(res.dims)
        assert len(dims) == 2 * res.m + 1
        assert dims == dims[::-1]
        assert res.total_dim == sum(dims)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.one_of(points(SIGMA_CASES), st.sampled_from(SIGMA_FINITE)))
def test_diagram_automorphism_swaps_the_couplings(point):
    label, chi, k1, k2 = point
    image = SIGMA[label].get(chi, chi), k2, k1
    assert (standard_module(label, chi, k1, k2).graded_dims(7)
            == standard_module(label, *image).graded_dims(7))
    rs = build_root_system(label)
    b = lowest_weight_scalar(rs, get_irrep(rs, chi), k1, k2)
    if is_nonneg_int(-b) and -b <= MAX_M:
        res, swapped = classify(label, chi, k1, k2), classify(label, *image)
        event(f"finite: {res.finite}")
        assert (res.finite, res.m, res.dims) == (swapped.finite, swapped.m, swapped.dims)
