import pytest

from cherednik.polynomials import ParamPoly


def _exact_div(x, y):
    if isinstance(x, ParamPoly) or isinstance(y, ParamPoly):
        return ParamPoly.coerce(x).divexact(ParamPoly.coerce(y))
    return x / y


def _ring_bareiss_rank(mat) -> int:
    """Rank over ParamPoly or QuadExt by the fraction-free elimination of
    linalg.bareiss_rank, which ranks int matrices only: each step divides
    exactly by the previous pivot."""
    if not mat or not mat[0]:
        return 0
    m = [row[:] for row in mat]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = None
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        p = pr[c]
        for row in m[rank + 1:]:
            f = row[c]
            for j in range(c + 1, ncols):
                num = p * row[j] - f * pr[j]
                row[j] = _exact_div(num, prev) if prev is not None else num
            row[c] = f - f
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


@pytest.fixture
def ring_bareiss_rank():
    """Bareiss rank over the symbolic and quadratic rings, the reference
    for ranks the package proves by other means."""
    return _ring_bareiss_rank
