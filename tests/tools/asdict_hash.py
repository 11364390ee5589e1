"""Print one sha256 over `classify(...).as_dict()` on a fixed grid, one
over the operator layer's parts, Gram layers and raised rows, and one over
the rank-2 coefficient tables.

    python3 tests/tools/asdict_hash.py

The grid is every type and character at couplings with denominators 1-3
and |k| <= 2 (one coupling on A1 and A2, k2 = k1; both on B2 and G2),
plus A1 and A2 at denominators 4-6.  Points whose lowest-weight scalar is
-m with m > 4 are left out, so every point is cheap; the generic points
are scanned to the default bound.  The grid is classified one sign-twist
class (type, base, s_0 k1, s_1 k2) at a time, so that the verdict memo
under `classify` misses once per class, then hashed in the grid's order;
the tool exits 1 if the memo misses more often than there are classes.
The first output line is

    points <N> finite <F> sha256 <hex>

and two checkouts classify the grid identically exactly when their lines
agree.  The second line,

    layers <N> sha256 <hex>

hashes, for every type and character, the integer lowering parts
(`b_lowering_parts`: rows, cols, den and parts) of degrees 0-8 in every
direction, the numeric Gram layers of degrees 0-6, `f_chain(6)` and the
`graded_dims(12)` of a fresh module at k = (2/7, -3/5), and the symbolic
Gram layers of degrees 0-3 and `f_chain(4)`; N counts the hashed items.
`as_dict()` leaves out the dims of an infinite verdict, so the graded
dims are what covers the ranks of a generic scan.  The third line,

    tables <N> sha256 <hex>

hashes, for A2, B2 and G2, `f_power_image` and `f_power_image_closed` for
n <= 12 and every r, `f_power_image_direct` for n <= 5 at two fixed
couplings, `_table_invariant`'s (Q, c), and `kappa_factor(p)` for p <= 10.
The package is imported from
the `src/` of the checkout this file is in, not from an installed copy;
pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from cherednik.dunkl import b_lowering_parts, lowest_weight_scalar  # noqa: E402
from cherednik.polynomials import PP_K1, PP_K2  # noqa: E402
from cherednik.rank2 import (_max_r, _table_invariant, f_power_image,  # noqa: E402
                             f_power_image_closed, f_power_image_direct,
                             kappa_factor)
from cherednik.rootsystem import LABELS, build_root_system  # noqa: E402
from cherednik.scalars import Rat, is_nonneg_int  # noqa: E402
from cherednik.verma import VermaModule, _signed, classify  # noqa: E402
from cherednik.wrep import get_irrep, irreps  # noqa: E402

MAX_M = 4


def _couplings(dens, bound=2):
    return sorted({Rat(p, q) for q in dens for p in range(-bound * q, bound * q + 1)})


def grid():
    """(label, chi, k1, k2) in a fixed order, m <= MAX_M."""
    coarse, fine = _couplings((1, 2, 3)), _couplings(range(1, 7))
    for label in LABELS:
        rs = build_root_system(label)
        if rs.orbit_counts[1]:
            pairs = [(a, b) for a in coarse for b in coarse]
        else:
            pairs = [(k, k) for k in fine]
        for rep in irreps(rs):
            for k1, k2 in pairs:
                m = -lowest_weight_scalar(rs, rep, k1, k2)
                if not is_nonneg_int(m) or m <= MAX_M:
                    yield label, rep.label, k1, k2


def by_class(points):
    """The indices of points grouped by sign-twist class (type, base,
    s_0 k1, s_1 k2), the classes in order of first appearance."""
    classes = {}
    for i, (label, chi, k1, k2) in enumerate(points):
        rep = get_irrep(build_root_system(label), chi)
        classes.setdefault((label, rep.base.label, *_signed(rep, k1, k2)), []).append(i)
    return list(classes.values())


def layer_items():
    """The hashed operator-layer items, in a fixed order, as strings."""
    for label in LABELS:
        rs = build_root_system(label)
        for rep in irreps(rs):
            head = f"{label} {rep.label}"
            for j in range(rs.rank):
                for n in range(9):
                    p = b_lowering_parts(rs, rep, j, n, 0)
                    parts = [(list(idx), vals) for idx, vals in p.parts]
                    yield f"{head} parts {j} {n} {p.rows} {p.cols} {p.den} {parts}"
            for vm, top, chain in ((VermaModule(rs, rep, Rat(2, 7), Rat(-3, 5)), 6, 6),
                                   (VermaModule(rs, rep, PP_K1, PP_K2), 3, 4)):
                for n in range(top + 1):
                    yield f"{head} gram {vm.k1} {n} {_cells(vm.gram(n))}"
                yield f"{head} f_chain {vm.k1} {chain} {_cells(vm.f_chain(chain))}"
            dims = VermaModule(rs, rep, Rat(2, 7), Rat(-3, 5)).graded_dims(12)
            yield f"{head} dims {dims}"


def table_items():
    """The hashed rank-2 table items, in a fixed order, as strings."""
    couplings = (Rat(2, 7), Rat(-3, 5)), (Rat(-1, 2), Rat(5, 3))
    for label in ("A2", "B2", "G2"):
        for n in range(13):
            for r in range(_max_r(label, n) + 1):
                yield (f"{label} table {n} {r} {f_power_image(label, n, r)} "
                       f"{f_power_image_closed(label, n, r)}")
        for k1, k2 in couplings:
            for n in range(6):
                for r in range(_max_r(label, n) + 1):
                    yield (f"{label} direct {k1} {k2} {n} {r} "
                           f"{f_power_image_direct(label, n, r, k1, k2)}")
        q, c = _table_invariant(label)
        yield f"{label} invariant {q} {c}"
    for p in range(11):
        yield f"kappa {p} {kappa_factor(p)}"


def _cells(mat):
    return [[str(v) for v in row] for row in mat]


def main() -> int:
    points = list(grid())
    classes = by_class(points)
    results = [None] * len(points)
    for members in classes:
        for i in members:
            results[i] = classify(*points[i]).as_dict()
    misses = classify.cache_info().misses
    if misses > len(classes):
        print(f"asdict_hash: {misses} verdict memo misses for {len(classes)} "
              "sign-twist classes", file=sys.stderr)
        return 1
    digest = hashlib.sha256()
    for res in results:
        digest.update(json.dumps(res, sort_keys=True).encode() + b"\n")
    finite = sum(bool(res["finite"]) for res in results)
    print(f"points {len(points)} finite {finite} sha256 {digest.hexdigest()}")
    digest, items = hashlib.sha256(), 0
    for item in layer_items():
        digest.update(item.encode() + b"\n")
        items += 1
    print(f"layers {items} sha256 {digest.hexdigest()}")
    digest, items = hashlib.sha256(), 0
    for item in table_items():
        digest.update(item.encode() + b"\n")
        items += 1
    print(f"tables {items} sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
