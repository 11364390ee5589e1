"""Irreducible representations of the reflection groups, with exact
orthogonal matrices, characters, and coupling twists.

Every irreducible here is realized with an orthonormal basis for its
invariant pairing, so the pairing is the plain dot product and the
distinguished cyclic vector is the first basis vector.

Each irreducible is a sign per root orbit times its base, the trivial or
reflection representation, built from its simple-reflection images along the
group's build order and checked on the |W| x rank right multiplication table.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvariantViolation
from .linalg import freeze, identity, mat_mul, transpose
from .scalars import QuadExt, rat
from .rootsystem import RootSystem


class Irrep:
    """An irreducible representation given by one matrix per group element:
    signs[o] on root orbit o times base (triv or std), checked on the simple
    reflections.  A hand-built Irrep is its own base, with signs (1, 1)."""

    def __init__(self, rs: RootSystem, label: str, matrices, signs=(1, 1), base=None):
        self.rs = rs
        self.label = label
        self.matrices = matrices
        self.signs = signs
        self.base = self if base is None else base
        self.dim = len(matrices[0])
        self.character = [_trace(m) for m in matrices]
        # the character at the reflection in each orbit's first root
        self.refl_char = [self.character[rs.reflection_element[rs.orbit_of.index(o)]]
                          if o in rs.orbit_of else QuadExt(0) for o in (0, 1)]

    def __repr__(self):
        return f"Irrep({self.rs.label}:{self.label}, dim {self.dim})"


def _trace(m):
    acc = QuadExt(0)
    for i in range(len(m)):
        acc = acc + m[i][i]
    return acc


def _from_generators(rs: RootSystem, label: str, signs, reflection: bool,
                     over=None) -> Irrep:
    """The irreducible sending each simple reflection s to its root orbit's
    sign times either 1 or, if reflection, s's own matrix, extended along
    the group's build order: rho(w s) = rho(w) rho(s); its base is over."""
    gens = []
    for w, i in zip(rs.right_mult[0], rs.simple):
        sign = QuadExt(signs[rs.orbit_of[i]])
        base = rs.elements[w] if reflection else ((QuadExt(1),),)
        gens.append(tuple(tuple(sign * v for v in row) for row in base))
    mats = [freeze(identity(len(gens[0])))]
    for p, gi in rs.parent[1:]:
        mats.append(freeze(mat_mul(mats[p], gens[gi])))
    return Irrep(rs, label, mats, signs, over)


@lru_cache(maxsize=None)
def irreps(rs: RootSystem) -> tuple:
    """The irreducibles of this root system's group, built once per root
    system object."""
    return tuple(_build_irreps(rs))


def get_irrep(rs: RootSystem, label: str) -> Irrep:
    for rep in irreps(rs):
        if rep.label == label:
            return rep
    known = ", ".join(r.label for r in irreps(rs))
    raise ValueError(f"unknown character {label!r} for {rs.label} (one of: {known})")


# after triv and sgn, in table order: label, signs on the (short, long) root
# orbit, and whether the signs scale the reflection representation (std)
_TABLE = {
    "A1": [],
    "A2": [("std", (1, 1), True)],
    "B2": [("std", (1, 1), True), ("chi1", (-1, 1), False),
           ("chi2", (1, -1), False)],
    "G2": [("tau", (1, -1), False), ("sgn_tau", (-1, 1), False),
           ("std", (1, 1), True), ("std_tau", (1, -1), True)],
}


def _build_irreps(rs: RootSystem):
    table = [("triv", (1, 1), False), ("sgn", (-1, -1), False)] + _TABLE[rs.label]
    out, bases = [], {}
    for label, signs, reflection in table:
        out.append(_from_generators(rs, label, signs, reflection, bases.get(reflection)))
        bases.setdefault(reflection, out[-1])
    _validate(rs, out)
    return out


def _validate(rs, reps):
    """rho(w) rho(s) = rho(ws) on each edge of rs.right_mult (the edge (e, s)
    forces rho(e) = I, so rho is a homomorphism by induction on length), and
    on the simple reflections, orthogonal and equal to sign * base."""
    if sum(r.dim * r.dim for r in reps) != len(rs.elements):
        raise InvariantViolation("squared dimensions do not sum to the group order")
    for r in reps:
        gens = [r.matrices[w] for w in rs.right_mult[0]]
        for mat, row in zip(r.matrices, rs.right_mult):
            for g, ws in zip(gens, row):
                if freeze(mat_mul(mat, g)) != r.matrices[ws]:
                    raise InvariantViolation(f"{r.label} is not a homomorphism")
        for m, w, i in zip(gens, rs.right_mult[0], rs.simple):
            if mat_mul(transpose(m), m) != identity(r.dim):
                raise InvariantViolation(f"{r.label} matrices are not orthogonal")
            sign = QuadExt(r.signs[rs.orbit_of[i]])
            if m != tuple(tuple(sign * v for v in row) for row in r.base.matrices[w]):
                raise InvariantViolation(f"{r.label} is not its signs times {r.base.label}")
    chars = [tuple(r.character) for r in reps]
    if len(set(chars)) != len(chars):
        raise InvariantViolation("duplicate characters")


def tensor_one_dim(rs: RootSystem, chi: Irrep, tau: Irrep) -> Irrep:
    """The irreducible with character chi * tau (tau one-dimensional)."""
    if tau.dim != 1:
        raise ValueError("twisting character must be one-dimensional")
    target = [c * tau.character[w] for w, c in enumerate(chi.character)]
    for rep in irreps(rs):
        if rep.character == target:
            return rep
    raise InvariantViolation("twisted character is not in the table")


def twist_couplings(rs: RootSystem, tau: Irrep, k1, k2):
    """Per-orbit coupling twist (k1, k2) -> (tau(r1)*k1, tau(r2)*k2)."""
    if tau.dim != 1:
        raise ValueError("twisting character must be one-dimensional")
    t1 = tau.refl_char[0].rational()
    t2 = tau.refl_char[1].rational() if rs.orbit_counts[1] else rat(1)
    return (k1 * t1, k2 * t2)

