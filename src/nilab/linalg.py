"""Exact linear algebra over the rationals.

Scalars are always-reduced arbitrary-precision rationals (see _scalar);
there is no floating point anywhere, so every rank / kernel / determinant
decision is discrete and reproducible.  Pivot choice is deterministic
(first nonzero entry in column order), which makes echelon forms, kernel
bases and solver output identical across runs and platforms.

A matrix is a list of row lists.  Its entries are Rat, or Python ints for
the integer-scaled N x N matrices of algebra elements (integer rows over one
common denominator, see algebras.Element.int_rows); mat_mul keeps the type
of its inputs, ints in and ints out, and the eliminations coerce to Rat.
Only rref changes its input (it works in place); the other functions copy
what they eliminate.  A row of the wrong length, or a non-square input
where a square one is needed, raises ShapeError.  The pipeline's matrices
(ad maps of nilpotent elements, stacked bracket blocks) are mostly zero, so
the loops skip zero entries: products and row updates only touch positions
where both factors are nonzero.  Skipping a zero never changes a value,
only the number of rational operations spent reaching it.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._scalar import ONE, Rat, ZERO
from .errors import ContractError, DegreeMismatchError, ShapeError


def _rat_rows(rows, ncols: int):
    """Fresh copies of the rows with every entry a Rat; ShapeError unless
    every row has ncols entries."""
    out = []
    for row in rows:
        if len(row) != ncols:
            raise ShapeError(f"expected rows of {ncols} entries, got one of {len(row)}")
        out.append([v if type(v) is Rat else Rat(v) for v in row])
    return out


def mat_mul(a, b):
    """Product of two matrices, skipping zero entries of both factors.

    Entries are only added and multiplied, so integer factors give an
    integer product and rational ones a rational product."""
    m = len(b[0]) if b else 0
    out = [[0] * m for _ in a]
    for ai, oi in zip(a, out):
        if len(ai) != len(b):
            raise ShapeError("shape mismatch in multiplication")
        for t, v in enumerate(ai):
            if v:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += v * bt[j]
    return out


def mat_vec(rows, vec):
    """Matrix times a coordinate vector, skipping zero vector entries."""
    out = []
    for row in rows:
        if len(row) != len(vec):
            raise ShapeError("vector length mismatch")
        acc = ZERO
        for w, v in zip(row, vec):
            if v:
                acc += w * v
        out.append(acc)
    return out


def rref(rows, ncols: int):
    """In-place reduced row echelon form of a list of row lists.

    Returns the pivot column indices.  Pivot choice is the first row with a
    nonzero entry in the current column, scanning columns left to right.
    """
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        if r == nrows:
            break
        p = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                p = i
                break
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = ONE / rows[r][c]
        if inv != 1:
            rows[r] = [v * inv for v in rows[r]]
        rr = rows[r]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rr)]
        pivots.append(c)
        r += 1
    return pivots


def rank_kernel(rows, ncols: int):
    """Exact rank and kernel of the matrix with these rows and ncols columns.

    The kernel basis is in reduced column-echelon form: vector k for free
    column f has entry 1 at f, entry 0 at every other free column, and the
    negated echelon coefficients at the pivot columns.  Returned as
    coordinate lists, ordered by ascending free column.
    """
    work = _rat_rows(rows, ncols)
    pivots = rref(work, ncols)
    rank = len(pivots)
    pivot_set = set(pivots)
    kernel = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[f] = ONE
        for r, c in enumerate(pivots):
            vec[c] = -work[r][f]
        kernel.append(vec)
    return rank, kernel


def det(rows):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Rows are first cleared of denominators so the elimination runs over the
    integers; the scaling is divided back out at the end.
    """
    n = len(rows)
    rows = _rat_rows(rows, n)
    if n == 0:
        return ONE
    a = []
    scale = ONE
    for row in rows:
        den = math.lcm(*(int(v.denominator) for v in row))
        scale *= den
        a.append([int(v.numerator) * (den // int(v.denominator)) for v in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            p = None
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    p = i
                    break
            if p is None:
                return ZERO
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - aik * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return Rat(sign * a[n - 1][n - 1]) / scale


def solve(rows, ncols: int, rhs):
    """One exact solution of rows . x = rhs (x of length ncols), or None
    when inconsistent.

    Deterministic: reduces the augmented matrix and sets every free
    variable to zero (the echelon-first particular solution).
    """
    if len(rhs) != len(rows):
        raise ShapeError("right-hand side length mismatch")
    work = _rat_rows(rows, ncols)
    for row, b in zip(work, rhs):
        row.append(Rat(b))
    pivots = rref(work, ncols)
    for i in range(len(pivots), len(work)):
        if work[i][ncols] != 0:
            return None
    x = [ZERO] * ncols
    for r, c in enumerate(pivots):
        x[c] = work[r][ncols]
    return x


def inverse(rows):
    """Exact inverse of a square matrix, as rows; ShapeError if singular."""
    n = len(rows)
    work = _rat_rows(rows, n)
    for i, row in enumerate(work):
        row.extend(ONE if j == i else ZERO for j in range(n))
    pivots = rref(work, n)
    if len(pivots) != n:
        raise ShapeError("matrix is singular")
    return [row[n:] for row in work]


@lru_cache(maxsize=None)
def _vandermonde_inverse(nodes):
    """Inverse of the Vandermonde matrix (nodes[i]^k), built in closed form.

    Column i holds the coefficients of the Lagrange basis polynomial
    L_i(t) = prod_{l != i} (t - t_l) / (t_i - t_l), so no elimination runs
    and the cached value costs the same work whenever it is first needed.
    Returned as a tuple of row tuples, so the cached value cannot be changed.
    """
    n = len(nodes)
    rows = [[ZERO] * n for _ in range(n)]
    for i, ti in enumerate(nodes):
        coeffs = [ONE]  # ascending coefficients of prod (t - t_l), l != i
        denom = ONE
        for l, tl in enumerate(nodes):
            if l != i:
                coeffs = [ZERO] + coeffs
                for k in range(len(coeffs) - 1):
                    coeffs[k] -= tl * coeffs[k + 1]
                denom *= ti - tl
        for k, c in enumerate(coeffs):
            rows[k][i] = c / denom
    return tuple(tuple(row) for row in rows)


def interpolate_vector_poly(samples, degree: int):
    """Exact coefficients c_0..c_degree of a vector-valued polynomial.

    samples: iterable of (t, value-vector) pairs at pairwise-distinct t.
    Solves the Vandermonde system on the first degree+1 samples and checks
    any remaining samples against the result; a mismatch means the data has
    higher degree than declared and raises DegreeMismatchError.
    """
    samples = list(samples)
    nodes = [Rat(t) for t, _ in samples]
    if len(set(nodes)) != len(nodes):
        raise ContractError("interpolation nodes must be pairwise distinct")
    if len(samples) < degree + 1:
        raise ContractError(
            f"need at least {degree + 1} samples for degree {degree}, got {len(samples)}"
        )
    width = len(samples[0][1])
    for _, v in samples:
        if len(v) != width:
            raise ShapeError("sample vectors have inconsistent lengths")
    vinv = _vandermonde_inverse(tuple(nodes[: degree + 1]))
    coeffs = []
    for k in range(degree + 1):
        vrow = vinv[k]
        coeffs.append(
            [
                sum((vrow[i] * samples[i][1][j] for i in range(degree + 1)), ZERO)
                for j in range(width)
            ]
        )
    for t, value in samples[degree + 1 :]:
        t = Rat(t)
        acc = [ZERO] * width
        p = ONE
        for c in coeffs:
            for j in range(width):
                acc[j] += p * c[j]
            p = p * t
        if acc != [Rat(v) for v in value]:
            raise DegreeMismatchError(
                f"samples are not reproduced by a degree-{degree} polynomial"
            )
    return coeffs
