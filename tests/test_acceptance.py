"""End-to-end acceptance checks, one test per numbered item.

Every item prints exactly one machine-greppable verdict line of the form
``criterion NN PASS (...)`` on success; a failing assert inside an item
marks it FAILED.  All arithmetic is exact — no tolerances anywhere.  The
wall-clock bounds asserted here are deliberately generous; typical
runtimes are a small fraction of each bound.

Item 7 checks the trivial and sign characters against closed rules of
the form 3k + 1 = -m (trivial) and 3k - 1 = m (sign), both restricted to
m not congruent to 2 mod 3.  The sign-character rule is the mirror of
the trivial one under coupling negation, which is forced by the twist
equivalence checked in item 12; the same-sign variant 3k + 1 = m is
refuted by the classifier at the couplings listed in the printed notes.

Item 9 treats the two decision branches for the hexagonal type
differently: on the generic branch a verdict mismatch is a hard failure,
while on the remaining branch (lowest weight a multiple of three, where
the closed rule rests on the verified-but-open factorization pattern) a
mismatch is printed as a counterexample candidate instead of failing.
"""

import random
import time

from cherednik.scalars import QuadExt, Rat, is_nonneg_int, rat
from cherednik.polynomials import (MPoly, ParamPoly, PP_K1, PP_K2, monomials,
                                   weyl_act)
from cherednik.rootsystem import build_root_system
from cherednik.wrep import get_irrep, irreps, tensor_one_dim, twist_couplings
from cherednik.dunkl import (b_direction, dunkl_apply, lowest_weight_scalar,
                             reflection_sum_scalar)
from cherednik.linalg import mat_inv, mat_vec, transpose
from cherednik.verma import VermaModule, classify
from cherednik.rank2 import (check_kappa_factorization, evaluate_at_couplings,
                             f_power_image, f_power_image_closed,
                             f_power_image_direct, very_singular)

TYPES = ("A1", "A2", "B2", "G2")
RANK2 = ("A2", "B2", "G2")

rng = random.Random(909)

# finite verdicts collected by items 6-9 and re-examined by item 11
FINITE_RESULTS = []


def _pass(num, elapsed, text):
    print(f"criterion {num:02d} PASS ({elapsed:.1f}s): {text}")


def rand_poly(nvars, maxdeg, terms=5):
    p = MPoly.zero(nvars)
    for _ in range(terms):
        e = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        if sum(e) > maxdeg:
            continue
        c = rng.randint(-5, 5)
        if c:
            p = p + MPoly(nvars, {e: Rat(c)})
    return p


def rand_direction(nvars):
    while True:
        y = [Rat(rng.randint(-3, 3)) for _ in range(nvars)]
        if any(y):
            return y


def unit_direction(nvars, j):
    return [Rat(1 if i == j else 0) for i in range(nvars)]


def all_monomials_upto(nvars, maxdeg):
    out = []
    for d in range(maxdeg + 1):
        for e in monomials(nvars, d):
            out.append(MPoly(nvars, {e: Rat(1)}))
    return out


def reflection_matrices(rs):
    return [rs.elements[rs.reflection_element[a]]
            for a in range(rs.num_positive)]


def e_apply(rs, p):
    return rs.e_poly * p


def f_apply(rs, p, k1, k2):
    """Quadratic lowering operator at polynomial level: -(1/2) of the
    inverse-metric contraction of two metric-transferred Dunkl ops, the
    metric 2 sum_c c c^T over the coroots, inverted here."""
    cols = transpose(rs.coroots)
    ginv = mat_inv([[2 * sum(a * b for a, b in zip(u, v)) for v in cols] for u in cols])
    first = [dunkl_apply(rs, b_direction(rs, l), p, k1, k2)
             for l in range(rs.rank)]
    acc = MPoly.zero(rs.rank)
    for j in range(rs.rank):
        for l in range(rs.rank):
            g = ginv[j][l]
            if not g:
                continue
            term = dunkl_apply(rs, b_direction(rs, j), first[l], k1, k2)
            acc = acc + term * (g * Rat(-1, 2))
    return acc


def h_apply(rs, p, k1, k2):
    return e_apply(rs, f_apply(rs, p, k1, k2)) - f_apply(rs, e_apply(rs, p), k1, k2)


def test_criterion_01_dunkl_commutativity():
    t0 = time.monotonic()
    for label in TYPES:
        rs = build_root_system(label)
        nv = rs.rank
        for _ in range(20):
            y1, y2 = rand_direction(nv), rand_direction(nv)
            p = rand_poly(nv, 4)
            a = dunkl_apply(rs, y2, dunkl_apply(rs, y1, p, PP_K1, PP_K2),
                            PP_K1, PP_K2)
            b = dunkl_apply(rs, y1, dunkl_apply(rs, y2, p, PP_K1, PP_K2),
                            PP_K1, PP_K2)
            assert a == b, f"{label}: Dunkl operators do not commute"
    dt = time.monotonic() - t0
    assert dt < 30
    _pass(1, dt, "Dunkl operators commute symbolically, "
                 "20 random (y, y', deg<=4) triples per type")


def test_criterion_02_defining_relations():
    t0 = time.monotonic()
    for label in TYPES:
        rs = build_root_system(label)
        nv = rs.rank
        refls = reflection_matrices(rs)
        basis = all_monomials_upto(nv, 3)
        dirs = [unit_direction(nv, i) for i in range(nv)]
        # commutator relation: [T_y, x_j] p = <y,x_j> p + sum over
        # positive roots of k <alpha,y><coroot,x_j> (reflection of p)
        for i, y in enumerate(dirs):
            for j in range(nv):
                xj = MPoly.var(j, nv)
                for p in basis:
                    lhs = (dunkl_apply(rs, y, xj * p, PP_K1, PP_K2)
                           - xj * dunkl_apply(rs, y, p, PP_K1, PP_K2))
                    rhs = p * Rat(1 if i == j else 0)
                    for a in range(rs.num_positive):
                        alpha = rs.positive_roots[a]
                        co = rs.coroots[a]
                        w = alpha[i] * co[j]
                        if not w:
                            continue
                        c = rs.coupling_of_root(a, PP_K1, PP_K2) * w
                        rhs = rhs + weyl_act(refls[a], p) * c
                    assert lhs == rhs, f"{label}: commutator relation fails"
        # covariance relation: w T_y w^{-1} = T_{w(y)}
        for w in range(len(rs.elements)):
            mat = rs.elements[w]
            imat = mat_inv(mat)
            for y in dirs:
                wy = mat_vec(transpose(imat), y)
                for p in basis:
                    lhs = weyl_act(mat, dunkl_apply(rs, y, weyl_act(imat, p),
                                                    PP_K1, PP_K2))
                    rhs = dunkl_apply(rs, wy, p, PP_K1, PP_K2)
                    assert lhs == rhs, f"{label}: covariance relation fails"
    dt = time.monotonic() - t0
    assert dt < 30
    _pass(2, dt, "commutator and covariance relations hold as operator "
                 "identities on degrees <= 3, symbolic couplings")


def test_criterion_03_sl2_suite():
    t0 = time.monotonic()
    for label in TYPES:
        rs = build_root_system(label)
        nv = rs.rank
        refls = reflection_matrices(rs)
        half_rank = Rat(rs.rank, 2)

        def H(p):
            return h_apply(rs, p, PP_K1, PP_K2)

        def F(p):
            return f_apply(rs, p, PP_K1, PP_K2)

        for p in all_monomials_upto(nv, 4):
            hp = H(p)
            # deformed Euler part plus the central reflection sum
            ek = MPoly.zero(nv)
            for j in range(nv):
                ek = ek + MPoly.var(j, nv) * dunkl_apply(
                    rs, unit_direction(nv, j), p, PP_K1, PP_K2)
            gk = p * half_rank
            for a in range(rs.num_positive):
                c = rs.coupling_of_root(a, PP_K1, PP_K2)
                gk = gk + weyl_act(refls[a], p) * c
            assert hp == ek + gk, f"{label}: grading element decomposition"
            # sl2 brackets
            ep = e_apply(rs, p)
            assert H(ep) - e_apply(rs, hp) == ep * Rat(2), \
                f"{label}: [H,E] != 2E"
            fp = F(p)
            assert H(fp) - F(hp) == fp * Rat(-2), f"{label}: [H,F] != -2F"
        # transpose rule: the n-fold lowering bracket of a degree-n
        # monomial is n! times the product of metric-transferred Dunkl
        # operators (the factorial is forced already in the rank-one
        # undeformed case: with E = x^2/2, F = -d^2/2 one computes
        # [F,[F,x^2]] = 2 d^2)
        for deg in range(1, 4):
            fact = Rat(1)
            for i in range(2, deg + 1):
                fact = fact * i
            for e in monomials(nv, deg):
                q = MPoly(nv, {e: Rat(1)})

                def ad_pow(j, p):
                    if j == 0:
                        return q * p
                    return (F(ad_pow(j - 1, p))
                            - ad_pow(j - 1, F(p)))

                for tdeg in range(deg, min(deg + 2, 5)):
                    for te in monomials(nv, tdeg):
                        tp = MPoly(nv, {te: Rat(1)})
                        lhs = ad_pow(deg, tp)
                        if deg % 2:
                            lhs = lhs * Rat(-1)
                        rhs = tp
                        for j in range(nv):
                            for _ in range(e[j]):
                                rhs = dunkl_apply(rs, b_direction(rs, j),
                                                  rhs, PP_K1, PP_K2)
                        assert lhs == rhs * fact, \
                            f"{label}: transpose rule {e}"
    dt = time.monotonic() - t0
    assert dt < 120
    _pass(3, dt, "sl2 triple brackets, grading element decomposition, and "
                 "the n-fold lowering transpose rule, symbolic")


def test_criterion_04_iterated_lowering_of_quadric_powers():
    t0 = time.monotonic()
    for label in TYPES:
        rs = build_root_system(label)
        nv = rs.rank
        hbar = lowest_weight_scalar(rs, get_irrep(rs, "triv"), PP_K1, PP_K2)
        for p in range(6):
            q = rs.e_poly ** (p + 1)
            for _ in range(p + 1):
                q = f_apply(rs, q, PP_K1, PP_K2)
            fact = Rat(1)
            for i in range(2, p + 2):
                fact = fact * i
            sign = Rat(-1) if (p + 1) % 2 else Rat(1)
            want = ParamPoly.const(sign * fact)
            for i in range(p + 1):
                want = want * (hbar + ParamPoly.const(Rat(i)))
            assert q == MPoly(nv, {(0,) * nv: Rat(1)}) * want, \
                f"{label}: iterated lowering of quadric power {p + 1}"
    dt = time.monotonic() - t0
    assert dt < 60
    _pass(4, dt, "(p+1)-fold lowering of the (p+1)-th quadric power equals "
                 "(-1)^(p+1) (p+1)! prod(hbar+i), p <= 5, symbolic")


def test_criterion_05_lowest_weight_calibration():
    t0 = time.monotonic()
    half = ParamPoly.const(Rat(1, 2))
    one = ParamPoly.const(Rat(1))
    expected = {
        "A1": PP_K1 + half,
        "A2": PP_K1 * 3 + one,
        "B2": (PP_K1 + PP_K2) * 2 + one,
        "G2": (PP_K1 + PP_K2) * 3 + one,
    }
    for label in TYPES:
        rs = build_root_system(label)
        triv = get_irrep(rs, "triv")
        got = lowest_weight_scalar(rs, triv, PP_K1, PP_K2)
        assert got == expected[label], f"{label}: lowest-weight scalar"
    dt = time.monotonic() - t0
    _pass(5, dt, "trivial-character lowest weight equals k+1/2, 3k+1, "
                 "2(k1+k2)+1, 3(k1+k2)+1 on A1/A2/B2/G2")


def test_criterion_06_a1_dimension_law():
    t0 = time.monotonic()
    for n in range(4):
        k = Rat(-1, 2) - n
        res = classify("A1", "triv", k, k)
        assert res.finite and res.m == n
        assert res.dims == (1,) * (2 * n + 1)
        assert res.total_dim == 2 * n + 1
        FINITE_RESULTS.append(("A1", "triv", k, k, res))
    dt = time.monotonic() - t0
    assert dt < 60
    _pass(6, dt, "one-variable tower: dim L(triv, -1/2-n) = 2n+1 "
                 "for n = 0..3")


def test_criterion_07_a2_grid_both_characters():
    t0 = time.monotonic()
    notes = []
    third = Rat(1, 3)
    triv_dims = {}
    sgn_results = {}
    for p in range(-24, 25):
        k = Rat(p, 6)
        # trivial character: finite iff 3k+1 = -m, m in N, m != 2 mod 3
        res_t = classify("A2", "triv", k, k)
        m_t = -(3 * k + 1)
        exp_t = is_nonneg_int(m_t) and int(m_t) % 3 != 2
        assert res_t.finite == exp_t, f"triv verdict at k={k}"
        if res_t.finite:
            assert res_t.m == int(m_t), f"triv vanishing degree at k={k}"
            FINITE_RESULTS.append(("A2", "triv", k, k, res_t))
            triv_dims[k] = res_t.dims
        # sign character: finite iff 3k-1 = m, m in N, m != 2 mod 3
        res_s = classify("A2", "sgn", k, k)
        m_c = 3 * k - 1
        exp_s = is_nonneg_int(m_c) and int(m_c) % 3 != 2
        assert res_s.finite == exp_s, f"sgn verdict at k={k}"
        if res_s.finite:
            assert res_s.m == int(m_c), f"sgn vanishing degree at k={k}"
            FINITE_RESULTS.append(("A2", "sgn", k, k, res_s))
        sgn_results[k] = res_s
        # the same-sign variant of the sign-character rule
        m_p = 3 * k + 1
        exp_printed = is_nonneg_int(m_p) and int(m_p) % 3 != 2
        if exp_printed != res_s.finite or (
                res_s.finite and int(m_p) != res_s.m):
            notes.append(
                f"  note: at k={k} the same-sign variant (3k+1=m) predicts "
                f"{'finite, m=' + str(int(m_p)) if exp_printed else 'infinite'}"
                f"; computed: "
                f"{'finite, m=' + str(res_s.m) if res_s.finite else 'infinite'}")
    # the sign character mirrors the trivial one at the negated coupling
    for k, dims in triv_dims.items():
        res_s = sgn_results[-k]
        assert res_s.finite and res_s.dims == dims, \
            f"sgn/triv mirror broken at k={-k}"
    dt = time.monotonic() - t0
    assert dt < 600
    for line in notes:
        print(line)
    _pass(7, dt, f"49-point grid k=p/6 on the triangular type, both "
                 f"one-dimensional characters ({len(notes)} variant notes)")
    assert notes, "expected the same-sign variant to deviate somewhere"


def test_criterion_08_b2_grid_and_twists():
    t0 = time.monotonic()
    rs = build_root_system("B2")
    k1_samples = [Rat(-1, 2), Rat(-1, 4), Rat(1, 4), Rat(1, 2), Rat(-3, 4),
                  Rat(1), Rat(-5, 2), Rat(1, 3), Rat(-2, 3), Rat(-1, 6)]
    pts = []
    for h in (0, -1, -2, -3):
        s = Rat(h - 1, 2)  # k1 + k2 on the integer-weight line hbar = h
        for k1 in k1_samples:
            pts.append((k1, s - k1))
    for k1 in (Rat(1, 4), Rat(-1, 4), Rat(1, 3), Rat(-2, 3), Rat(1, 2)):
        for k2 in (Rat(1, 5), Rat(-1, 6), Rat(3, 4), Rat(-4, 5)):
            pts.append((k1, k2))
    assert len(pts) == 60
    assert any(k1 == Rat(-1, 2) for k1, _ in pts)
    assert any(k1 != Rat(-1, 2) for k1, _ in pts)
    for k1, k2 in pts:
        hbar = 1 + 2 * (k1 + k2)
        m0 = -hbar
        if is_nonneg_int(m0):
            m = int(m0)
            t = -2 * k1
            expected = (m % 2 == 0) or (
                t.denominator == 1 and int(t) % 2 == 1 and 1 <= int(t) <= m)
        else:
            expected = False
        res = classify("B2", "triv", k1, k2)
        assert res.finite == expected, f"verdict at ({k1},{k2})"
        assert very_singular("B2", k1, k2).finite == expected
        if res.finite:
            assert res.m == int(m0)
            FINITE_RESULTS.append(("B2", "triv", k1, k2, res))
    # the reflection representation never gives a finite quotient
    for k1, k2 in pts[::8]:
        assert not classify("B2", "std", k1, k2).finite
    # coupling twists by the one-dimensional characters preserve dims
    one_dims = [r for r in irreps(rs) if r.dim == 1 and r.label != "triv"]
    for k1, k2 in pts[::6]:
        for tau in one_dims:
            t1, t2 = twist_couplings(rs, tau, k1, k2)
            d_tau = VermaModule(rs, tau, k1, k2).graded_dims(6)
            d_triv = VermaModule(rs, get_irrep(rs, "triv"), t1, t2).graded_dims(6)
            assert d_tau == d_triv, f"twist reduction at ({k1},{k2}), {tau.label}"
    dt = time.monotonic() - t0
    assert dt < 1200
    _pass(8, dt, "60-point square-type grid (integer-weight lines and both "
                 "short-coupling cases), reflection rep infinite, twists ok")


def test_criterion_09_factorization_conjecture_and_g2_grid():
    t0 = time.monotonic()
    report = check_kappa_factorization(15)
    dt_conj = time.monotonic() - t0
    assert report.all_verified and report.verified_up_to == 31
    assert dt_conj < 60
    pts = []
    # lowest weights on the residual branch (multiple-of-three layer)
    for r, kappas in ((1, (0, 1, -1, 2, Rat(1, 2))),
                      (2, (1, -1, 0, 2, 3, Rat(1, 3))),
                      (3, (0, 2, -2, 1, 3)),
                      (4, (1, 0))):
        s = Rat(-r)  # k1 + k2; lowest weight is -(3r - 1)
        for kap in kappas:
            kap = rat(kap)
            pts.append(((s - kap) / 2, (s + kap) / 2))
    # generic-branch points, finite and infinite
    for m in (0, 1, 3, 4, 6, 7):
        s = Rat(-(m + 1), 3)
        for kap in (Rat(0), Rat(1), Rat(1, 2)):
            pts.append(((s - kap) / 2, (s + kap) / 2))
    pts += [(Rat(1, 4), Rat(1, 3)), (Rat(-1, 3), Rat(-1, 5)),
            (Rat(1), Rat(-1, 2)), (Rat(-2, 3), Rat(1, 6))]
    assert len(pts) == 40
    candidates = []
    for k1, k2 in pts:
        vs = very_singular("G2", k1, k2)
        res = classify("G2", "triv", k1, k2)
        if vs.conditional:
            # the exact decision must match the classifier; the closed
            # parity rule is only conjectural, so a mismatch there is
            # reported rather than failed
            assert vs.exact_decision == res.finite, \
                f"exact residual-branch decision at ({k1},{k2})"
            if vs.finite != res.finite:
                candidates.append(
                    f"  counterexample candidate for the factorization "
                    f"pattern at (k1,k2)=({k1},{k2}): closed rule says "
                    f"{'finite' if vs.finite else 'infinite'}, classifier "
                    f"says {'finite' if res.finite else 'infinite'}")
        else:
            assert vs.finite == res.finite, f"generic branch at ({k1},{k2})"
        if res.finite:
            hbar = 1 + 3 * (k1 + k2)
            assert res.m == int(-hbar)
            FINITE_RESULTS.append(("G2", "triv", k1, k2, res))
    dt = time.monotonic() - t0
    for line in candidates:
        print(line)
    _pass(9, dt, f"factorization pattern exact through index 31; 40-point "
                 f"hexagonal grid agrees ({len(candidates)} candidates)")


def test_criterion_10_table_routes_agree():
    t0 = time.monotonic()
    for label in RANK2:
        for n in range(13):
            top = n // 2 if label == "B2" else n // 3
            for r in range(top + 1):
                assert f_power_image(label, n, r) == \
                    f_power_image_closed(label, n, r), \
                    f"{label}: recursion vs closed form at ({n},{r})"
        for _ in range(5):
            k1 = Rat(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            k2 = k1 if label == "A2" else \
                Rat(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            for n in range(6):
                top = n // 2 if label == "B2" else n // 3
                for r in range(top + 1):
                    want = QuadExt.coerce(evaluate_at_couplings(
                        label, f_power_image(label, n, r), k1, k2))
                    got = f_power_image_direct(label, n, r, k1, k2)
                    assert got == want, \
                        f"{label}: direct route at ({n},{r}), k=({k1},{k2})"
    dt = time.monotonic() - t0
    assert dt < 600
    _pass(10, dt, "image-table recursion == closed form (n <= 12) == "
                  "direct operator route (n <= 5, 5 random couplings/type)")


def _ensure_registry():
    if FINITE_RESULTS:
        return
    for label, chi, k1, k2 in (("A1", "triv", Rat(-3, 2), Rat(-3, 2)),
                               ("A2", "triv", Rat(-4, 3), Rat(-4, 3)),
                               ("B2", "triv", Rat(-3, 2), Rat(-1, 2)),
                               ("G2", "triv", Rat(-1, 2), Rat(-1, 2))):
        res = classify(label, chi, k1, k2)
        assert res.finite
        FINITE_RESULTS.append((label, chi, k1, k2, res))


def test_criterion_11_structural_invariants_of_finite_quotients():
    t0 = time.monotonic()
    _ensure_registry()
    for label, chi, k1, k2, res in FINITE_RESULTS:
        rs = build_root_system(label)
        rep = get_irrep(rs, chi)
        dims = list(res.dims)
        assert len(dims) == 2 * res.m + 1, f"{label}/{chi} at ({k1},{k2})"
        assert dims == dims[::-1], \
            f"{label}/{chi} at ({k1},{k2}): dims not palindromic"
        assert dims[0] == dims[-1] == rep.dim, \
            f"{label}/{chi} at ({k1},{k2}): boundary layer dimension"
        a = reflection_sum_scalar(rs, rep, k1, k2)
        assert a == -(Rat(res.m) + Rat(rs.rank, 2)), \
            f"{label}/{chi} at ({k1},{k2}): reflection-sum scalar"
    dt = time.monotonic() - t0
    _pass(11, dt, f"palindromic graded dims, boundary layers, and "
                  f"reflection-sum scalar on {len(FINITE_RESULTS)} "
                  f"finite quotients from items 6-9")


def test_criterion_12_twist_coherence():
    t0 = time.monotonic()
    for label in TYPES:
        rs = build_root_system(label)
        reps = irreps(rs)
        one_dims = [r for r in reps if r.dim == 1]
        for _ in range(10):
            k1 = Rat(rng.randint(-8, 8), rng.choice((2, 3, 4, 6)))
            k2 = k1 if label in ("A1", "A2") else \
                Rat(rng.randint(-8, 8), rng.choice((2, 3, 4, 6)))
            for chi in reps:
                base = VermaModule(rs, chi, k1, k2).graded_dims(4)
                for tau in one_dims:
                    t1, t2 = twist_couplings(rs, tau, k1, k2)
                    twisted = tensor_one_dim(rs, chi, tau)
                    other = VermaModule(rs, twisted, t1, t2).graded_dims(4)
                    assert base == other, \
                        f"{label}: twist {chi.label} x {tau.label} at ({k1},{k2})"
    dt = time.monotonic() - t0
    _pass(12, dt, "graded dims invariant under one-dimensional twists, "
                  "all characters, 10 sampled couplings per type")
