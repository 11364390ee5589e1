"""Property test: the classifier against the closed rules of rank2.

Couplings are drawn as rationals with small denominators for every type
and character.  The reference is `rank2.finite_dim_table`, which shares no
code with the classifier: 2-dimensional characters are never finite, and
on the G2 residual branch (where the closed rule is conjectural) the
conjecture-free `exact_decision` decides, with m = -hbar.  Points whose
lowest-weight scalar is -m with m > 6 are filtered out to bound the cost.
Every finite quotient must have palindromic graded dimensions of length
2m + 1.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, event, given, settings, strategies as st

from cherednik.scalars import Rat, is_nonneg_int
from cherednik.rootsystem import LABELS, build_root_system
from cherednik.wrep import get_irrep, irreps
from cherednik.dunkl import lowest_weight_scalar
from cherednik.rank2 import finite_dim_table
from cherednik.verma import classify

MAX_M = 6
CASES = [(label, rep.label) for label in LABELS
         for rep in irreps(build_root_system(label))]

small_rationals = st.builds(Rat, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6)))


def expected_verdict(label, chi, k1, k2):
    """(finite, m) from the closed rules."""
    rs = build_root_system(label)
    rep = get_irrep(rs, chi)
    if rep.dim == 2:
        return False, None
    res = finite_dim_table(label, k1, k2)[chi]
    if res.conditional:
        if not res.exact_decision:
            return False, None
        return True, int(-lowest_weight_scalar(rs, rep, k1, k2))
    return res.finite, res.m


@st.composite
def points(draw):
    """(type, character, k1, k2); half the points are moved along the
    coupling of the last orbit onto a lowest-weight scalar -m, m <= 6, so
    that finite quotients are drawn often."""
    label, chi = draw(st.sampled_from(CASES))
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


@settings(max_examples=250, deadline=None, derandomize=True)
@given(points())
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
