"""Lowest-weight (Verma-type) standard modules, the contravariant form,
and the finite-dimensionality classification of their simple quotients.

A standard module is polynomials tensored with an irreducible of the
reflection group; Dunkl operators lower the polynomial degree.  The
contravariant form pairs degree-n layers against themselves by moving
coordinate multiplications to Dunkl operators through the metric
transfer.  The form's radical cuts out the simple quotient, so layer
ranks are the quotient's graded dimensions.

The lowerings, Gram layers and raised rows are integer matrices with one
rational scale each, combined from the integer parts that
dunkl.b_lowering_parts memoizes.  An irrep that is one sign per root orbit
times its base (Irrep.signs, Irrep.base) has the base's D, s_0 A and s_1 B:
its module combines the base's parts at (s_0 k1, s_1 k2), while gram_direct
assembles the irrep.  Every layer rank is proven, degrees settled in
ascending order and kept to the lowest singular one.  As G_n[x_i u, w] =
G_{n-1}[u, L_i w], while every lower layer is full rank G_n is nonsingular
exactly when the stacked lowerings [L_0; L_1] are injective.  Its rank mod
the prime linalg.PRIME (rank_mod_p, one elimination over the rows _stack
yields) proves it: the square block of L_0 and the tail (L_1's last dim-chi
rows, from row n - 1 alone; on A1, L_0) first, the rest of L_1 built only if
read.  Unless the lowerings are held, a row is c0 D + c1 A + c2 B of the
residues mod p that dunkl.b_lowering_residues memoizes; any nonzero multiple
of a row proves as well.  (G_n is P times the stack, P made of rows of
G_{n-1}: up to content, singular mod p wherever the stack is.)  Each L_i
maps an eigenspace of the reflection of root 0 into one, so the elimination
runs per class (dunkl.class_slices), each row checked when packed.
Failing that, and on every higher layer (the radical is a submodule and x_1
is injective on polynomials tensor chi), Bareiss over Z ranks the Gram layer
as two blocks, those eigenspaces (W-invariant form).  So a generic scan
builds no Gram layer, and runs the class check but no symmetry check; the
tests of every rank against Bareiss, and of gram against gram_direct, check
the lowerings.
A symbolic layer (or F row from layer b) is read off a numeric module at k =
(B, B^(n+1)) (B^(n-b+1)) by Kronecker substitution, one coefficient per
base-B digit, B = 2^s sized by a product of the lowerings' column norms.
The digits become ParamPoly coefficients directly, already canonical, and a
Gram layer is unpacked once per symmetric pair: the packed layer has passed
the symmetry check and unpacking is injective, so both cells hold one value.
The unpacked layers and F rows are memoized per base (_unpacked): an irrep
with signs (s_0, s_1) reads its base's, each distinct entry once with every
term c k1^i k2^j times s_0^i s_1^j.  A symbolic layer's minors are
polynomials in k1, k2, so full rank at one point proves full rank.  The
point is k = 0, where every lowering is a transfer derivative and the layer,
the Fischer form of the metric tensor the identity on chi, is positive
definite: a layer short of full rank there raises InvariantViolation.

Two independent finiteness tests are run and cross-checked: vanishing of the
raised lowest-weight vector in the simple quotient, and a direct scan of the
form ranks.  A disagreement raises InvariantViolation.  The raised-vector test
pushes the rows of the degree-0 layer up the chain of quadratic lowerings,
applied through the Dunkl lowerings without forming their matrices (f_chain
starts at any layer: F(n) = f_chain(n, n - 2)); the chain commutes with the
group and ends in the layer chi, so it already kills every isotypic component
other than chi (Berest-Etingof-Ginzburg, IMRN 2003; Etingof-Ma,
arXiv:1001.0432).  classify runs both in one ascending walk over the degrees,
combining each degree's lowerings once.  A module holds a degree's lowerings
(_low) until _layer has built the next degree, the highest Gram layer built
(_gram), one F chain per bottom (_chains), the settled ranks (_ranks) and
its m, computed once for classify and epower_criterion (_m).

The module function classify remembers the verdicts of the last 128
sign-twist classes (_class_verdict): a request reads the verdict of its class
representative, its base at (s_0 k1, s_1 k2), once its own m agrees.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from math import lcm

from .errors import InvariantViolation
from .polynomials import PP_K1, PP_K2, ParamPoly, monomials
from .scalars import QuadExt, Rat, rat
from . import linalg
from .linalg import (bareiss_rank, identity, integer_scale, is_symmetric,
                     mat_mul, pack_rows, rank_mod_p)
from .rootsystem import RootSystem, build_root_system
from .wrep import Irrep, get_irrep
from .dunkl import (b_direction, b_lowering_parts, b_lowering_residues, class_slices,
                    f_apply, f_coefficient, lowering_matrix, natural_m,
                    reflection_parity, sl2_calibration)

DEFAULT_SCAN_BOUND = 10
_CERT_POINT = (Rat(0), Rat(0))  # where symbolic layers are ranked first


def _int_identity(n):
    """The n x n identity over the ints: where a chain or layer 0 starts."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _signed(rep: Irrep, k1, k2):
    """(s_0 k1, s_1 k2), by negation rather than a Fraction product: the
    couplings at which rep's module is its base's (Irrep.signs, Irrep.base)."""
    return (k1 if rep.signs[0] > 0 else -k1), (k2 if rep.signs[1] > 0 else -k2)


def _value(rows, scale):
    """The true matrix scale * rows."""
    num, den = scale.numerator, scale.denominator
    return [[QuadExt._of(v * num, 0, den) for v in row] for row in rows]


def _unpack(v: int, s: int, stride: int, den: int) -> ParamPoly:
    """The ParamPoly sum of (c_ij / den) k1^i k2^j from v, the sum of
    c_ij B^(i + stride j) with B = 2^s, i < stride and |c_ij| < B / 2:
    the c_ij are the balanced base-B digits of v."""
    terms, e, half, mask = {}, 0, 1 << (s - 1), (1 << s) - 1
    while v:
        c = ((v + half) & mask) - half
        if c:
            terms[e % stride, e // stride] = QuadExt._of(c, 0, den)
        v, e = (v - c) >> s, e + 1
    return ParamPoly._of(terms)


class VermaModule:
    """One standard module M(chi) at fixed couplings, with the per-degree
    lowerings and Gram layer it still reads (module docstring)."""

    def __init__(self, rs: RootSystem, rep: Irrep, k1, k2):
        sl2_calibration(rs)
        self.rs = rs
        self.rep = rep
        self.symbolic = (k1, k2) == (PP_K1, PP_K2)
        if not self.symbolic:
            k1, k2 = rat(k1), rat(k2)
            (a, b), (c, d) = ((k.numerator, k.denominator) for k in _signed(rep, k1, k2))
            q = lcm(b, d)
            self._coefs = (q, a * (q // b), c * (q // d))  # (q, q s_0 k1, q s_1 k2)
        self.k1, self.k2 = k1, k2
        self._low = {}  # degree -> lowerings
        self._gram = {}  # {degree: highest layer built}; perfbench/spans.py tests `n in _gram`
        self._chains = {}  # bottom -> (top, rows, scale) of _f_rows
        self._cert = None  # symbolic: the numeric module at _CERT_POINT
        self._ranks = [rep.dim]  # numeric: proven ranks of degrees 0.. (layer_rank)

    # -- layers and cached operators -------------------------------------------
    def layer_monomials(self, n: int):
        return monomials(self.rs.rank, n)

    def lowering(self, j: int, n: int):
        """Dunkl operator along the transfer c e_j of x_j, degree n -> n-1."""
        return lowering_matrix(self.rs, self.rep, b_direction(self.rs, j), n,
                               self.k1, self.k2)

    def _lowerings(self, n: int):
        """The degree-n lowerings along every transfer as int matrices, and
        their shared scale, held in _low until _layer has built degree n + 1.
        With q the common denominator of k1, k2 and den that of the parts,
        each lowering times q * den is combined from the base's integer parts
        at the signed couplings."""
        hit = self._low.get(n)
        if hit is None:
            parts = [b_lowering_parts(self.rs, self.rep.base, j, n, 0)
                     for j in range(self.rs.rank)]
            den, coefs = lcm(*(p.den for p in parts)), self._coefs
            lows = [p.ints(*(c * (den // p.den) for c in coefs)) for p in parts]
            hit = self._low[n] = lows, Rat(1, coefs[0] * den)
        return hit

    def _stack(self, n: int):
        """The degree-n rows of the stack [L_0; L_1] as (class, packed) pairs
        for rank_mod_p, each a nonzero multiple of the true row mod p, square
        block first: all of L_0, the last dim-chi rows (x_1^(n-1)) of L_1 (in
        rank 2), then the other rows of L_1, each part read only once
        reached.  Held lowerings (classify combines degrees up to 2m + 2
        first) are packed by pack_rows; else a row is c0 D + c1 A + c2 B of
        the residues that b_lowering_residues memoizes."""
        rs, base, d, p = self.rs, self.rep.base, self.rep.dim, linalg.PRIME
        hit, size = self._low.get(n), len(self.layer_monomials(n)) * d
        c0, c1, c2 = (c % p for c in self._coefs)
        for j, first, stop in ((0, 0, None), (1, n - 1, None), (1, 0, -d))[:2 * rs.rank - 1]:
            if hit:
                low = hit[0][j][-d:] if first else hit[0][j][:stop]
                yield from pack_rows([low], size, class_slices(rs, base, n), p)
            else:
                for cls, a, b, c in b_lowering_residues(rs, base, j, n, first, p)[:stop]:
                    yield cls, c0 * a + c1 * b + c2 * c

    def _f_rows(self, top: int, bottom: int = 0):
        """The rows of F(bottom+2) F(bottom+4) ... F(top), the product of the
        quadratic lowerings from layer top down to layer bottom, as integer
        rows and one scale: the identity rows of layer bottom pushed up
        through the lowerings, each step rows sum_j L_j L_j (f_apply) with
        F's scalar -1/(2c) taken into the scale.  One chain is kept per
        bottom, and a later call with a higher top extends it."""
        held = self._chains.get(bottom)
        if held is None or held[0] > top:
            size = len(self.layer_monomials(bottom)) * self.rep.dim
            held = bottom, _int_identity(size), Rat(1)
        (cur, rows, scale), fc = held, f_coefficient(self.rs)
        while cur + 2 <= top:
            cur += 2
            (low_m, sm), (low_n, sn) = self._lowerings(cur - 1), self._lowerings(cur)
            rows, s = integer_scale(f_apply(rows, low_m, low_n))
            scale *= s * fc * sm * sn
        self._chains[bottom] = cur, rows, scale
        return rows, scale

    def f_chain(self, top: int, bottom: int = 0):
        """The rows of F(bottom+2) ... F(top) (see _f_rows): F(n) is f_chain(n, n - 2)."""
        if self.symbolic:
            return self._symbolic(top, True, bottom)
        return _value(*self._f_rows(top, bottom))

    # -- the contravariant form -------------------------------------------------
    def _layer(self, n: int):
        """The degree-n Gram matrix as (class blocks, scale, _classes(n)).

        Built one degree at a time: the row of x_i * u equals the row of
        u in the previous Gram matrix composed with the Dunkl lowering
        along the transfer of x_i (the form moves multiplication to a
        Dunkl operator).  In the order of `monomials`, that is prev L_0,
        then in rank 2 the last dim-chi rows of prev times L_1 (x_1^n).  L_i
        maps class c to c ^ flip_i (checked cell by cell), so block c is rows
        of blocks c ^ flip_i below times blocks of L_i; one scale serves all.
        Only the highest layer built is held (_gram = {degree: layer}): a
        higher degree extends it, a lower one is rebuilt from degree 0 and
        leaves it, so gram(n) then layer_rank(n) builds layer n once.
        Building degree d drops the degree-(d - 1) lowerings from _low.
        """
        if n < 0:
            raise ValueError(f"degree must be nonnegative, got {n}")
        deg, layer = next(iter(self._gram.items()), (-1, None))
        hold = deg <= n
        if not 0 <= deg <= n:
            here = self._classes(0)
            deg, layer = 0, (tuple(_int_identity(len(c)) for c in here), Rat(1), here)
        (prev, scale, here), flips = layer, reflection_parity(self.rs, self.rep.base)[0]
        for deg in range(deg + 1, n + 1):
            (lows, s), below, here = self._lowerings(deg), here, self._classes(deg)
            if any(any(map(low[r].__getitem__, here[c ^ 1])) for low, f in zip(lows, flips)
                   for c in (0, 1) for r in below[c ^ f]):
                raise InvariantViolation(f"{self.rs.label}/{self.rep.label}: a degree-"
                                         f"{deg} lowering maps across the classes")
            lows = [[[list(map(low[r].__getitem__, here[c])) for r in below[c ^ f]]
                     for c in (0, 1)] for low, f in zip(lows, flips)]
            blocks = []
            for c in (0, 1):
                rows = mat_mul(prev[c ^ flips[0]], lows[0][c]) if prev[c ^ flips[0]] else []
                k, part = len(here[c]) - len(below[c ^ flips[0]]), prev[c ^ flips[-1]]
                rows += mat_mul(part[len(part) - k:], lows[1][c]) if k else []
                if not is_symmetric(rows):
                    raise InvariantViolation(
                        f"{self.rs.label}/{self.rep.label}: form is not "
                        f"symmetric at degree {deg}")
                blocks.append(rows)
            rows, g = integer_scale(blocks[0] + blocks[1])
            prev, scale = (rows[:len(blocks[0])], rows[len(blocks[0]):]), scale * s * g
            self._low.pop(deg - 1, None)
        if hold:
            self._gram = {n: (prev, scale, here)}
        return prev, scale, here

    def _classes(self, n: int):
        """The degree-n indices per class, ascending (dunkl.class_slices)."""
        cols = range(len(self.layer_monomials(n)) * self.rep.dim)
        return [sorted(i for sl in cls for i in cols[sl])
                for cls in class_slices(self.rs, self.rep.base, n)]

    def _dense(self, n: int):
        """The degree-n layer as one int matrix (0 across classes), scale."""
        (blocks, scale, classes), rows = self._layer(n), {}
        for block, idx in zip(blocks, classes):
            rows.update((i, dict(zip(idx, row))) for i, row in zip(idx, block))
        cols = range(len(rows))
        return [[rows[i].get(j, 0) for j in cols] for i in cols], scale

    def gram(self, n: int):
        """Gram matrix of the contravariant form on the degree-n layer."""
        return self._symbolic(n, False) if self.symbolic else _value(*self._dense(n))

    def _symbolic(self, n: int, chain: bool, bottom: int = 0):
        """The symbolic layer or F rows, read off the base's memoized ones
        (_unpacked): fresh rows over the same entries, and for an irrep with
        signs (s_0, s_1) each distinct entry once with every c k1^i k2^j
        times s_0^i s_1^j, so mirrored Gram cells stay one object."""
        rows = _unpacked(self.rs, self.rep.base, n, chain, bottom)
        f1, f2 = (int(s < 0) for s in self.rep.signs)
        if not f1 | f2:
            return [list(row) for row in rows]
        twisted = {}
        for row in rows:
            for p in row:
                if id(p) not in twisted:
                    twisted[id(p)] = ParamPoly._of({e: -c if (e[0] * f1 + e[1] * f2) & 1 else c
                                                    for e, c in p.terms.items()})
        return [[twisted[id(p)] for p in row] for row in rows]

    def gram_direct(self, n: int):
        """The same Gram matrix assembled monomial by monomial from
        composed Dunkl operators (slow; cross-check path)."""
        d = self.rep.dim
        basis = self.layer_monomials(n)
        rows = []
        for mono in basis:
            comp = None
            cur = n
            for j in range(self.rs.rank):
                for _ in range(mono[j]):
                    low = self.lowering(j, cur)
                    comp = low if comp is None else mat_mul(low, comp)
                    cur -= 1
            rows.extend(identity(d) if comp is None else comp)
        return rows

    def layer_rank(self, n: int) -> int:
        """Rank of the degree-n layer, proven.  Numeric ranks are settled in
        ascending order into _ranks, to the lowest singular degree, a call out
        of order first settling those below n.  With every layer below full
        rank, degree n is full rank if the stack [L_0; L_1] has full column
        rank mod linalg.PRIME (rank_mod_p), one elimination with the square
        block of L_0 and the last dim-chi rows of L_1 first; failing that, and
        past the lowest singular degree, Bareiss ranks the two Gram blocks
        (_layer).  Symbolic: full rank at _CERT_POINT, else InvariantViolation."""
        if n < 0:
            raise ValueError(f"degree must be nonnegative, got {n}")
        if self.symbolic:
            # minors are polynomials: full rank at a point proves it
            self._cert = self._cert or VermaModule(self.rs, self.rep, *_CERT_POINT)
            size = len(self.layer_monomials(n)) * self.rep.dim
            if self._cert.layer_rank(n) != size:
                raise InvariantViolation(
                    f"{self.rs.label}/{self.rep.label}: degree-{n} layer is not "
                    f"full rank at (k1, k2) = ({self._cert.k1}, {self._cert.k2})")
            return size
        # every layer above a singular one is singular (module docstring)
        ranks, dim = self._ranks, self.rep.dim
        while len(ranks) <= n and ranks[-1] == len(self.layer_monomials(len(ranks) - 1)) * dim:
            deg = len(ranks)
            size = len(self.layer_monomials(deg)) * dim
            classes = class_slices(self.rs, self.rep.base, deg)
            full = rank_mod_p(self._stack(deg), size, classes) == size
            ranks.append(size if full else sum(map(bareiss_rank, self._layer(deg)[0])))
        return ranks[n] if n < len(ranks) else sum(map(bareiss_rank, self._layer(n)[0]))

    def graded_dims(self, max_degree: int):
        """Ranks of the form per degree = graded dimensions of the simple
        quotient."""
        return [self.layer_rank(n) for n in range(max_degree + 1)]

    # -- finiteness tests --------------------------------------------------------
    @cached_property
    def _m(self):
        """m when the lowest-weight scalar is -m with m a natural number, else
        None, computed on the first read and kept."""
        if self.symbolic:
            raise ValueError("the raised-vector test needs numeric couplings")
        return natural_m(self.rs, self.rep, self.k1, self.k2)

    def epower_criterion(self):
        """Whether the raised lowest-weight vector dies in the simple quotient.
        With lowest-weight scalar -m, m natural, E^(m+1) on the lowest weight
        space is in the radical iff F^(m+1), from layer 2m+2 to layer 0,
        vanishes on its chi-isotypic part; F^(m+1) commutes with the group and
        lands in layer 0, a copy of chi, so the test is that the dim-chi rows
        of layer 0 pushed up the chain (_f_rows, from where it stands) are 0."""
        m = self._m
        if m is None:
            return EPowerResult(False, None, False)
        rows = self._f_rows(2 * m + 2)[0]
        return EPowerResult(True, m, not any(v for row in rows for v in row))

    def classify(self, scan_bound: int | None = None):
        """Finite-dimensionality of the simple quotient, by both tests,
        cross-checked, in one ascending walk: with top = 2m + 2 (-1 if m is
        not natural), each degree 0 < n <= top has its lowerings combined
        before its rank is proven, and F(n) pushed at even n; after the scan,
        epower_criterion extends the chain (at a finite point, one step)."""
        m = self._m
        top = -1 if m is None else 2 * m + 2
        default = DEFAULT_SCAN_BOUND if m is None else top + 2
        bound = default if scan_bound is None else max(scan_bound, top)
        dims = []
        for n in range(bound + 1):
            if 0 < n <= top:
                self._lowerings(n)
                if n % 2 == 0:
                    self._f_rows(n)
            r = self.layer_rank(n)
            if r == 0:
                break
            dims.append(r)
        ep = self.epower_criterion()
        gram_finite = len(dims) <= bound  # a layer of rank 0 ended the scan
        if gram_finite != ep.finite:
            raise InvariantViolation(
                f"{self.rs.label}/{self.rep.label} at k=({self.k1},{self.k2}): "
                f"the two finiteness tests disagree "
                f"(raised-vector: {ep.finite}, form scan: {gram_finite})")
        if gram_finite:
            if len(dims) != 2 * ep.m + 1 or dims[0] != self.rep.dim or dims != dims[::-1]:
                raise InvariantViolation(
                    f"{self.rs.label}/{self.rep.label} at k=({self.k1},{self.k2}): "
                    f"graded dimensions {dims} break the finite-quotient shape")
            return ClassifyResult(self.rs.label, self.rep.label, self.k1, self.k2,
                                  True, ep.m, tuple(dims), sum(dims))
        return ClassifyResult(self.rs.label, self.rep.label, self.k1, self.k2,
                              False, None, tuple(dims), None)


@lru_cache(maxsize=None)
def _unpacked(rs: RootSystem, rep: Irrep, n: int, chain: bool, bottom: int):
    """The degree-n layer, or with chain the rows of F(bottom+2) ... F(n), over
    ParamPoly, by Kronecker substitution, memoized (_symbolic passes the base):
    read off the numeric module at k = (B, B^stride), B = 2^s, stride n + 1
    (n - bottom + 1 for a chain).  Each entry is a polynomial of total degree
    < stride, and D times it, D the denominator of the product u of the
    coupling-free scales (the parts' and 1/(2c) per F step), has integer
    coefficients c_ij: the balanced base-B digits of its packed value once B >
    2 max |c_ij|.  Every row is a row one degree down times an integer
    lowering (or one F step down times the rank terms of sum_j L_j L_j), and
    coefficient 1-norms are submultiplicative, so max |c_ij| is at most the
    numerator of u times the product of the lowerings' largest column norms
    over the degrees read (and of the rank per F step).

    A Gram layer unpacks the cells j >= i only and puts the same immutable
    ParamPoly at [i][j] and [j][i]: _layer has checked the packed layer for
    symmetry, and equal integers unpack to equal polynomials.  F rows are not
    square and unpack every cell."""
    steps = max(n - bottom, 0) // 2 if chain else 0
    unit, bound = abs(f_coefficient(rs)) ** steps, rs.rank ** steps
    for d in range(bottom + 1, bottom + 2 * steps + 1) if chain else range(1, n + 1):
        parts = [b_lowering_parts(rs, rep.base, j, d, 0) for j in range(rs.rank)]
        den = lcm(*(p.den for p in parts))
        unit /= den
        bound *= max(p.column_norm() * (den // p.den) for p in parts)
    den = unit.denominator
    s, stride = (2 * unit.numerator * bound).bit_length(), max(n - bottom, 0) + 1
    packed = VermaModule(rs, rep, 1 << s, 1 << s * stride)
    rows, scale = packed._f_rows(n, bottom) if chain else packed._dense(n)
    mult = den * scale
    if mult.denominator != 1:
        raise InvariantViolation(f"{rs.label}/{rep.label}: packed "
                                 f"degree-{n} values times {den} are not integers")
    k = mult.numerator
    if chain:
        return [[_unpack(v * k, s, stride, den) for v in row] for row in rows]
    out = [[None] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j in range(i, len(row)):
            out[i][j] = out[j][i] = _unpack(row[j] * k, s, stride, den)
    return out


EPowerResult = namedtuple("EPowerResult", "natural m finite")  # of the raised-vector test


class ClassifyResult(namedtuple("ClassifyResult", "label chi k1 k2 finite m dims total_dim")):
    """Classification of one simple quotient at fixed couplings."""

    __slots__ = ()

    def as_dict(self):
        return {
            "type": self.label,
            "chi": self.chi,
            "k1": str(self.k1),
            "k2": str(self.k2),
            "finite": self.finite,
            "m": self.m,
            "graded_dims": list(self.dims) if self.finite else None,
            "dim": self.total_dim,
        }

    def __repr__(self):
        state = f"dim {self.total_dim}" if self.finite else "infinite"
        return (f"ClassifyResult({self.label}/{self.chi} at "
                f"k=({self.k1},{self.k2}): {state})")


def standard_module(label: str, chi: str, k1, k2) -> VermaModule:
    rs = build_root_system(label)
    return VermaModule(rs, get_irrep(rs, chi), k1, k2)


@lru_cache(maxsize=128)
def _class_verdict(label: str, base: str, k1, k2, scan_bound):
    """(natural m, finite, dims, total_dim) of base at the signed couplings:
    no entry keeps a RootSystem or Irrep alive."""
    vm = standard_module(label, base, k1, k2)
    res = vm.classify(scan_bound)
    return vm._m, res.finite, res.dims, res.total_dim


def classify(label: str, chi: str, k1, k2, scan_bound=None) -> ClassifyResult:
    """VermaModule.classify of the request: chi runs on its base's parts at
    (s_0 k1, s_1 k2), so with the same m its verdict is _class_verdict's, which
    classify.cache_info() and classify.cache_clear() read and empty.  A twist
    with another m than its class raises InvariantViolation."""
    rs = build_root_system(label)
    rep = get_irrep(rs, chi)
    if type(k1) is ParamPoly and (k1, k2) == (PP_K1, PP_K2):
        raise ValueError("the raised-vector test needs numeric couplings")
    k1, k2 = rat(k1), rat(k2)
    s1, s2 = _signed(rep, k1, k2)
    m, finite, dims, total = _class_verdict(rs.label, rep.base.label, s1, s2, scan_bound)
    if rep is not rep.base:
        own = natural_m(rs, rep, k1, k2)
        if own != m:
            raise InvariantViolation(f"{rs.label}/{rep.label} at k=({k1},{k2}): m = {own}, but "
                                     f"its class {rep.base.label} at k=({s1},{s2}) has m = {m}")
    return ClassifyResult(rs.label, rep.label, k1, k2, finite, m if finite else None,
                          dims, total)


classify.cache_info, classify.cache_clear = _class_verdict.cache_info, _class_verdict.cache_clear
