"""Irreducible representations of the reflection groups, with exact
orthogonal matrices, characters, and coupling twists.

Every irreducible here is realized with an orthonormal basis for its
invariant pairing, so the pairing is the plain dot product and the
distinguished cyclic vector is the first basis vector.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvariantViolation
from .linalg import freeze, identity, mat_mul, transpose
from .scalars import QuadExt, rat
from .rootsystem import RootSystem


class Irrep:
    """An irreducible representation given by one matrix per group element."""

    def __init__(self, rs: RootSystem, label: str, matrices):
        self.rs = rs
        self.label = label
        self.matrices = matrices
        self.dim = len(matrices[0])
        self.character = [_trace(m) for m in matrices]
        self.refl_char = []
        for orbit in (0, 1):
            idxs = rs.orbit_positive(orbit)
            if idxs:
                w = rs.reflection_element[idxs[0]]
                self.refl_char.append(self.character[w])
            else:
                self.refl_char.append(QuadExt(0))

    def matrix(self, w: int):
        return self.matrices[w]

    def __repr__(self):
        return f"Irrep({self.rs.label}:{self.label}, dim {self.dim})"


def _trace(m):
    acc = QuadExt(0)
    for i in range(len(m)):
        acc = acc + m[i][i]
    return acc


def _scalar_rep(rs, values):
    return [((QuadExt.coerce(v),),) for v in values]


def _one_dim(rs: RootSystem, orbit_values) -> list:
    """Extend generator signs (per root orbit) along the group's build order."""
    vals = [None] * len(rs.elements)
    vals[0] = rat(1)
    for i in range(1, len(rs.elements)):
        p, gi = rs.parent[i]
        orb = rs.orbit_of[rs.simple[gi]]
        vals[i] = vals[p] * orbit_values[orb]
    return vals


def _tensor_scalar(matrices, values):
    return [tuple(tuple(c * v for c in row) for row in m)
            for m, v in zip(matrices, values)]


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


def _build_irreps(rs: RootSystem):
    triv = Irrep(rs, "triv", _scalar_rep(rs, [1] * len(rs.elements)))
    sgn = Irrep(rs, "sgn", _scalar_rep(rs, _one_dim(rs, (rat(-1), rat(-1)))))
    out = [triv, sgn]
    if rs.label == "A1":
        pass
    elif rs.label == "A2":
        out.append(Irrep(rs, "std", list(rs.elements)))
    elif rs.label == "B2":
        out.append(Irrep(rs, "std", list(rs.elements)))
        chi1 = _one_dim(rs, (rat(-1), rat(1)))
        out.append(Irrep(rs, "chi1", _scalar_rep(rs, chi1)))
        chi2 = [a * b for a, b in zip(chi1, _one_dim(rs, (rat(-1), rat(-1))))]
        out.append(Irrep(rs, "chi2", _scalar_rep(rs, chi2)))
    else:  # G2
        tau = _one_dim(rs, (rat(1), rat(-1)))
        sgn_tau = [a * b for a, b in zip(tau, _one_dim(rs, (rat(-1), rat(-1))))]
        out.append(Irrep(rs, "tau", _scalar_rep(rs, tau)))
        out.append(Irrep(rs, "sgn_tau", _scalar_rep(rs, sgn_tau)))
        out.append(Irrep(rs, "std", list(rs.elements)))
        out.append(Irrep(rs, "std_tau",
                         _tensor_scalar(rs.elements, [QuadExt.coerce(v) for v in tau])))
    _validate(rs, out)
    return out


def _validate(rs, reps):
    order = len(rs.elements)
    if sum(r.dim * r.dim for r in reps) != order:
        raise InvariantViolation("squared dimensions do not sum to the group order")
    for r in reps:
        for i in range(order):
            for j in range(order):
                prod = freeze(mat_mul(r.matrices[i], r.matrices[j]))
                if prod != r.matrices[rs.mult[i][j]]:
                    raise InvariantViolation(f"{r.label} is not a homomorphism")
        for m in r.matrices:
            if mat_mul(transpose(m), m) != identity(r.dim):
                raise InvariantViolation(f"{r.label} matrices are not orthogonal")
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

