"""Rank <= 2 root systems with exact coordinates, their reflection groups,
the canonical invariant bilinear form, and invariant-ring generators.

A type states three facts (_TYPES): its positive roots, which of them are
simple, and its second invariant generator.  The rest is derived.  The
coroot of alpha is 2 B(alpha) / B(alpha, alpha) for any W-invariant form B,
and these coordinates are orthogonal, all of one length, for the invariant
form, so each coroot is 2 alpha / <alpha, alpha> with the coordinate dot
product.  The root orbits are read off the group.  The form on a*, 2 sum_c
c c^T over the coroots, is then checked to be c I with c > 0 and kept as
the scalar metric_scale = c (8, 12, 12 and 16 for A1, A2, B2 and G2): the
transfer of x_j to a is c e_j and the quadric invariant is sum_i x_i^2 /
(2c).  The invariant degrees are the degrees of the generators.  The group
order and the orbit counts (|R1+|, |R2+|) stay stated, as checks: with the
rank, the length of a root tuple, the counts fix the trivial character's
lowest-weight scalar rank/2 + k1 |R1+| + k2 |R2+|.

The group is generated from its simple reflections s_i, with parent[w] =
(p, i) for w = elements[p] s_i and the |W| x rank table right_mult[w][i],
the index of w s_i; a group past its stated order raises at once.  What is
closed under products (orthogonality, which keeps the form c I invariant,
and invariance of the generators) is checked on the s_i only.

Coordinates for the plane types use Q(sqrt(3)): equilateral angles for the
hexagonal types, integer coordinates for the hyperoctahedral one.  Vectors
in the dual space a* are coefficient tuples on the coordinate functions
x1..xn; vectors in a are tuples on the dual basis, so the natural pairing
<y, x> is the coordinate dot product.

The operator layer works in the coordinates v = S x, S = diag(sqrt(3)^e_i),
where e_i = 1 exactly when some root has a sqrt(3) i-th coordinate (the
second coordinate of A2 and G2; none for A1 and B2).  There every root
alpha' = S^-1 alpha and coroot c' = S c is rational, which construction
checks: the A2 root (-1/2, sqrt(3)/2) becomes (-1/2, 1/2) and its coroot
(-1, sqrt(3)) becomes (-1, 3).  The monomial bases differ by a diagonal,
x^m = sqrt(3)^(-sum e_i m_i) v^m.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvariantViolation
from .linalg import dot, freeze, identity, mat_mul, mat_vec, transpose
from .polynomials import MPoly, weyl_act
from .scalars import HALF, SQRT3, QuadExt, Rat

LABELS = ("A1", "A2", "B2", "G2")

_H, _S = Rat(1, 2), QuadExt(0, Rat(1, 2))  # 1/2 and sqrt(3)/2
# what each type states: its positive roots, which of them are simple, and
# the terms of its second invariant generator (none in rank 1)
_TYPES = {
    "A1": ([(1,)], [0], None),
    "A2": ([(1, 0), (-_H, _S), (_H, _S)], [0, 1], {(2, 1): 3, (0, 3): -1}),
    "B2": ([(1, 0), (0, 1), (1, 1), (1, -1)], [1, 3], {(2, 2): 1}),
    "G2": ([(1, 0), (_H, _S), (-_H, _S), (3 * _H, _S), (0, 2 * _S), (-3 * _H, _S)], [0, 5],
           {(6, 0): 2, (4, 2): -30, (2, 4): 30, (0, 6): -2}),
}
_GROUP_ORDER = {"A1": 2, "A2": 6, "B2": 8, "G2": 12}
_ORBIT_COUNTS = {"A1": (1, 0), "A2": (3, 0), "B2": (2, 2), "G2": (3, 3)}


def _reflection_matrix(alpha, coroot):
    """I - alpha coroot^T, the reflection s_alpha acting on a*."""
    return tuple(tuple(QuadExt(int(i == j)) - a * c for j, c in enumerate(coroot))
                 for i, a in enumerate(alpha))


class RootSystem:
    """One of the fixed rank <= 2 realizations plus derived group data."""

    def __init__(self, label):
        if label not in LABELS:
            raise ValueError(f"unknown root system type {label!r}")
        self.label = label
        self._build_roots()
        self._build_group()
        self._build_orbits()
        self._build_metric()
        self._build_invariants()
        self._build_working_coordinates()
        self._check()

    # -- construction ---------------------------------------------------------
    def _build_roots(self):
        pos, simple, _ = _TYPES[self.label]
        self.simple = list(simple)
        self.positive_roots = [tuple(map(QuadExt.coerce, a)) for a in pos]
        self.rank = len(pos[0])
        # 2 alpha / <alpha, alpha>: see the module docstring
        self.coroots = [tuple(c * (2 / dot(a, a)) for c in a) for a in self.positive_roots]

    def _build_group(self):
        gens = [
            _reflection_matrix(self.positive_roots[i], self.coroots[i])
            for i in self.simple
        ]
        ident, order = freeze(identity(self.rank)), _GROUP_ORDER[self.label]
        elements = [ident]
        index = {ident: 0}
        parent = [None]
        right_mult = []
        for w, base in enumerate(elements):  # grows while it is read
            row = []
            for gi, g in enumerate(gens):
                m = freeze(mat_mul(base, g))
                if m not in index:
                    index[m] = len(elements)
                    elements.append(m)
                    parent.append((w, gi))
                    if len(elements) > order:
                        raise InvariantViolation(
                            f"{self.label}: the group has more than {order} elements")
                row.append(index[m])
            right_mult.append(tuple(row))
        self.elements = elements
        self.parent = parent
        self.right_mult = right_mult
        self.reflection_element = []
        for a, c in zip(self.positive_roots, self.coroots):
            m = _reflection_matrix(a, c)
            if m not in index:
                raise InvariantViolation("reflection is not in the generated group")
            self.reflection_element.append(index[m])

    def _build_orbits(self):
        """Number the W-orbits of the positive roots: the orbit of a root is
        its image set under the group, each image read up to sign."""
        pos = self.positive_roots
        key = {}
        for i, a in enumerate(pos):
            key[a] = i
            key[tuple(-c for c in a)] = i
        orbit_id = [-1] * len(pos)
        for i, a in enumerate(pos):
            if orbit_id[i] >= 0:
                continue
            members = {key.get(tuple(mat_vec(m, a))) for m in self.elements}
            if None in members:
                raise InvariantViolation("group does not permute the roots")
            n = max(orbit_id) + 1
            for v in members:
                orbit_id[v] = n
        if max(orbit_id) > 1:
            raise InvariantViolation("more than two root orbits")
        self.orbit_of = orbit_id

    def _build_metric(self):
        # 2 sum_c c c^T over the positive coroots (both signs of each root)
        # must be c I with c > 0: the form is kept as that scalar
        cols = transpose(self.coroots)
        gram = [[2 * dot(a, b) for b in cols] for a in cols]
        c = gram[0][0]
        if gram != [[c * v for v in row] for row in identity(self.rank)] or not (
                c.is_rational and c.sign() > 0):
            raise InvariantViolation(
                f"{self.label}: the invariant form is not a positive multiple of the identity")
        self.metric_scale = c
        # order the (at most two) orbits by root length, short first
        if 1 in self.orbit_of:
            a, b = (self.positive_roots[self.orbit_of.index(o)] for o in (0, 1))
            if (dot(a, a) - dot(b, b)).sign() > 0:
                self.orbit_of = [1 - o for o in self.orbit_of]
        self.orbit_counts = (self.orbit_of.count(0), self.orbit_of.count(1))

    def _build_invariants(self):
        n, coef = self.rank, HALF * self.metric_scale.inv()
        self.e_poly = sum((MPoly.var(i, n) * MPoly.var(i, n) * coef for i in range(n)),
                          MPoly.zero(n))
        gens = [self.e_poly]
        second = _TYPES[self.label][2]
        if second:
            gens.append(MPoly(n, {m: QuadExt(c) for m, c in second.items()}))
        self.invariant_gens = gens
        self.degrees = tuple(q.degree() for q in gens)

    def _build_working_coordinates(self):
        """sqrt3_exp (the e_i of v = S x) and the rational roots and coroots
        in the v-coordinates; InvariantViolation if one is irrational."""
        exps = tuple(int(any(a[i].b for a in self.positive_roots))
                     for i in range(self.rank))
        scale = [SQRT3 ** e for e in exps]
        roots = [tuple(v / s for v, s in zip(a, scale)) for a in self.positive_roots]
        coroots = [tuple(v * s for v, s in zip(c, scale)) for c in self.coroots]
        if not all(v.is_rational for r in roots + coroots for v in r):
            raise InvariantViolation(
                f"{self.label}: a root or coroot is irrational in the working coordinates")
        self.sqrt3_exp = exps
        self.work_roots = [tuple(v.a for v in r) for r in roots]
        self.work_coroots = [tuple(v.a for v in c) for c in coroots]

    # -- sanity checks run once at construction --------------------------------
    def _check(self):
        if len(self.elements) != _GROUP_ORDER[self.label]:
            raise InvariantViolation(
                f"{self.label}: group order {len(self.elements)}, "
                f"expected {_GROUP_ORDER[self.label]}")
        for a, c in zip(self.positive_roots, self.coroots):
            if dot(c, a) != 2:
                raise InvariantViolation("coroot pairing <a^, a> != 2")
        gens = [self.elements[w] for w in self.right_mult[0]]
        for m in gens:
            if mat_mul(transpose(m), m) != identity(self.rank):
                raise InvariantViolation("group does not preserve the metric")
        for q in self.invariant_gens:
            for m in gens:
                if weyl_act(m, q) != q:
                    raise InvariantViolation("invariant generator is not invariant")
        if self.orbit_counts != _ORBIT_COUNTS[self.label]:
            raise InvariantViolation(f"{self.label}: orbit counts {self.orbit_counts}, "
                                     f"expected {_ORBIT_COUNTS[self.label]}")

    # -- queries ---------------------------------------------------------------
    @property
    def num_positive(self):
        return len(self.positive_roots)

    def coupling_of_root(self, i: int, k1, k2):
        return k1 if self.orbit_of[i] == 0 else k2


@lru_cache(maxsize=None)
def build_root_system(label: str) -> RootSystem:
    return RootSystem(label)
