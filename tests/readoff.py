"""Tests-only references for the read-off from N x N matrices to g: the
dense forward substitution over per-realization tables, and the dense sl
projection on top of it, which the entry read-off
(AlgebraRealization._coords_of_entries) replaced in the package.  Tests
compare the read-off with these, so that no test compares it with
itself."""

from nilab import ContractError
from nilab.algebras import _element


def dense_coords_of_rows(alg, rows, den=1, num=1):
    """The element (num / den) * rows, for integer rows, by the dense
    forward substitution: every entry at a pivot p_k, where b_k is 1, is
    read as C_k; then, in basis order, C_k b_k is subtracted at the later
    pivots its tail reaches (on sl(N), the diagonal chain); then every
    position that is no pivot must hold the sum of the C_k b_k there, or
    ContractError.  The tables are built here from the basis matrices."""
    n = alg.matrix_size_N
    pivot_terms = {}  # position -> (k, the later entries of b_k as (position, value))
    for k, entries in enumerate(alg._basis_sparse):
        positions = [i * n + j for i, j, _ in entries]
        pivot_terms[positions[0]] = (k, tuple(zip(positions[1:], [v for _, _, v in entries[1:]])))
    pivot_cols = [[] for _ in range(n)]
    chain, off_pivot = [], {}
    for p, (k, tail) in pivot_terms.items():
        pivot_cols[p // n].append(p % n)
        later = tuple((pivot_terms[q][0], v) for q, v in tail if q in pivot_terms)
        if later:
            chain.append((k, later))
        for q, v in tail:
            if q not in pivot_terms:
                off_pivot.setdefault(q, []).append((k, v))
    coords = [row[j] for row, cols in zip(rows, pivot_cols) for j in cols]
    for k, later in chain:
        c = coords[k]
        if c:
            for q, v in later:
                coords[q] -= c * v
    for q in range(n * n):
        if q not in pivot_terms:
            rest = rows[q // n][q % n]
            for k, v in off_pivot.get(q, ()):
                rest -= coords[k] * v
            if rest:
                raise ContractError("matrix does not lie in the algebra")
    return _element(alg, [c * num for c in coords], den)


def dense_read_gradient(alg, rows, den, factor):
    """p / q times the projection onto g, along the trace form, of the
    matrix rows / den (integer rows, den != 0, factor = (p, q)): for sl(n)
    the trace part is subtracted, (n rows - tr I) / (n den), and the matrix
    is read by dense_coords_of_rows, which raises ContractError outside g."""
    n = alg.matrix_size_N
    tr = sum(rows[i][i] for i in range(n)) if alg.family == "A" else 0
    if tr:
        rows = [[n * v - tr if i == c else n * v for c, v in enumerate(line)]
                for i, line in enumerate(rows)]
        den *= n
    p, q = factor
    return dense_coords_of_rows(alg, rows, den * q, p)
