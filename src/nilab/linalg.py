"""Exact linear algebra over the rationals.

Scalars are always-reduced arbitrary-precision rationals (see _scalar);
there is no floating point anywhere, so every rank / kernel decision is
discrete and reproducible.  Pivot choice is deterministic (first nonzero
entry in column order), which makes echelon forms, kernel bases and solver
output identical across runs and platforms.

A matrix is a list of row lists.  Its entries are Rat, or Python ints for
the integer-scaled N x N matrices of algebra elements (integer rows over one
common denominator, see algebras.Element.int_rows); mat_mul keeps the type
of its inputs, ints in and ints out.  The pipeline's eliminations are
echelon_rows, echelon_maps and echelon_kernel, for every subspace and every
numeric rank, and inverse; solve serves triples' Jacobson-Morozov step.
rref and rank_kernel return the same results in rational form and are kept
as references.  There are two integer eliminations: dense Gauss-Jordan for
row spaces, solve and inverse (_gauss_jordan, which the references read
too); sparse for kernels and sparse row spaces (_sparse_elimination, right
to left for echelon_kernel and the ranks of sparse rows in index's
normalizer-span and triples' Jordan-type check, left to right for
echelon_maps).
Either clears each row of its denominators once and runs on Python ints,
and a Rat is made only for each nonzero entry of the result.  echelon_rows,
echelon_maps and echelon_kernel make no Rat at all: they return reduced
echelon bases as primitive integer rows, positive at their pivots, the form
algebras.Subspace keeps.  echelon_maps and echelon_kernel take their rows as
their nonzero entries {column: value}; every other function takes row
lists.  Only rref
changes its input (it replaces the rows of the list); the other functions
copy what they eliminate.  A row of the wrong length, a column key outside
0..ncols-1, or a non-square input where a square one is needed, raises
ShapeError.  The pipeline's matrices (ad maps of nilpotent elements,
stacked bracket blocks, the inverse that maps delta coordinates to the
alphas) are mostly zero, so the loops skip zeros: mat_mul and mat_vec only
touch positions where both factors are nonzero, an elimination step leaves
every row with a zero in the pivot column untouched, and the sparse
elimination never stores a zero.  Skipping a zero never changes a value,
only the number of operations spent reaching it.
"""

from __future__ import annotations

import math

from ._scalar import ONE, Rat, ZERO, as_rat
from .errors import ContractError, DegreeMismatchError, ShapeError


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
    """Matrix times a coordinate vector, skipping zero entries of both."""
    nonzero = [(k, v) for k, v in enumerate(vec) if v]
    out = []
    for row in rows:
        if len(row) != len(vec):
            raise ShapeError("vector length mismatch")
        acc = ZERO
        for k, v in nonzero:
            w = row[k]
            if w:
                acc += w * v
        out.append(acc)
    return out


_INT = frozenset({int})
_INT_RAT = frozenset({int, Rat})


def _int_rows(rows, width: int):
    """Fresh primitive integer copies of the rows: each row times the lcm of
    its denominators, divided by its content.  Only nonzero entries are
    read; an entry that is neither an int nor a Rat (a string such as
    "3/4") is read through as_rat, so a float raises ContractError.
    ShapeError unless every row has width entries."""
    a = []
    for row in rows:
        if len(row) != width:
            raise ShapeError(f"expected rows of {width} entries, got one of {len(row)}")
        types = set(map(type, row))
        if types <= _INT:
            out = list(row)
        else:
            nz = [(j, v) for j, v in enumerate(row) if v is not ZERO]
            if not types <= _INT_RAT:
                nz = [(j, as_rat(v)) for j, v in nz]
            den = math.lcm(*{v.denominator for _, v in nz})
            out = [0] * width
            for j, v in nz:
                out[j] = v.numerator * (den // v.denominator)
        g = math.gcd(*out)
        a.append([v // g for v in out] if g > 1 else out)
    return a


def _gauss_jordan(a, ncols: int):
    """In-place integer Gauss-Jordan elimination of primitive integer rows
    (see _int_rows); returns the pivot columns, all among the first ncols.

    Columns are scanned left to right and the pivot is the first remaining
    row with a nonzero entry.  Only the rows with a nonzero entry f in the
    pivot column change: with pivot p and g = gcd(p, f), row <- (p/g) row -
    (f/g) pivot row, divided by its content.  So every row stays primitive
    and a nonzero multiple of the row rational Gauss-Jordan would hold: the
    reduced echelon form is each pivot row over its pivot entry.
    """
    pivots = []
    r = 0
    nrows = len(a)
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        prow = a[r]
        pv = prow[c]
        for i in range(nrows):
            f = a[i][c]
            if f and i != r:
                g = math.gcd(pv, f)
                mp, mf = pv // g, f // g
                new = [mp * x - mf * y if y else mp * x for x, y in zip(a[i], prow)]
                g = math.gcd(*new)
                a[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return pivots


def rref(rows, ncols: int):
    """In-place reduced row echelon form of a list of row lists: the
    rational reference for echelon_rows, which gives the same pivots.

    Returns the pivot column indices.  Pivot choice is the first row with a
    nonzero entry in the current column, scanning columns left to right.
    The list's rows are replaced by Rat rows: the pivot rows divided by
    their pivot, then the rows past the rank, zero in the first ncols
    columns and, past them, a nonzero multiple of what rational
    elimination leaves there.
    """
    a = _int_rows(rows, len(rows[0]) if rows else ncols)
    pivots = _gauss_jordan(a, ncols)
    for r, row in enumerate(a):
        pv = row[pivots[r]] if r < len(pivots) else 1
        rows[r] = [Rat(v, pv) if v else ZERO for v in row]
    return pivots


def rank_kernel(rows, ncols: int):
    """Exact rank and kernel of the matrix with these rows and ncols
    columns, in rational form: the reference for the pivot count of
    echelon_rows and for echelon_kernel.

    The kernel basis is in reduced column-echelon form: vector k for free
    column f has entry 1 at f, entry 0 at every other free column, and the
    negated echelon coefficients at the pivot columns.  Returned as
    coordinate lists, ordered by ascending free column.
    """
    a = _int_rows(rows, ncols)
    pivots = _gauss_jordan(a, ncols)
    pivot_set = set(pivots)
    kernel = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[f] = ONE
        for row, c in zip(a, pivots):
            if row[f]:
                vec[c] = Rat(-row[f], row[c])
        kernel.append(vec)
    return len(pivots), kernel


def echelon_rows(rows, ncols: int):
    """(pivots, basis): the reduced row echelon basis of the row space as
    primitive integer rows, each positive at its pivot.

    Row r is rref's row r times the least positive integer that clears its
    denominators, so equal row spaces give equal rows.  The input is not
    changed.
    """
    a = _int_rows(rows, ncols)
    pivots = _gauss_jordan(a, ncols)
    return pivots, [row if row[c] > 0 else [-v for v in row] for row, c in zip(a, pivots)]


def _int_maps(rows, ncols: int):
    """Fresh primitive integer copies of sparse rows {column: value}: what
    _int_rows does for dense rows, on the nonzero entries only.  A value
    that is neither an int nor a Rat is read through as_rat, so a float
    raises ContractError; ShapeError unless every column lies in
    0..ncols-1.  Zero values are dropped, and so is a row with none left."""
    a = []
    for row in rows:
        if row and (min(row) < 0 or max(row) >= ncols):
            raise ShapeError(f"expected columns 0..{ncols - 1}, got {sorted(row)}")
        types = set(map(type, row.values()))
        if types <= _INT:
            out = {j: v for j, v in row.items() if v}
        else:
            if not types <= _INT_RAT:
                row = {j: as_rat(v) for j, v in row.items()}
            nz = [(j, v) for j, v in row.items() if v]
            den = math.lcm(*(v.denominator for _, v in nz))
            out = {j: v.numerator * (den // v.denominator) for j, v in nz}
        if out:
            g = math.gcd(*out.values())
            a.append({j: v // g for j, v in out.items()} if g > 1 else out)
    return a


def _sparse_elimination(a, pick=max):
    """Right-to-left integer Gauss-Jordan elimination of primitive sparse
    rows (see _int_maps): {pivot column: pivot row}, the reduced echelon
    basis of the row space for the columns read right to left, or left to
    right for pick=min (a row's pivot is pick of its columns).

    Each row, in turn, is reduced by the pivot rows at the pivot columns it
    holds: with f its entry at pivot c and p_c the pivot, the remainder is
    L row - sum_c (L f / p_c) pivot row c, L the least positive integer
    that keeps every term integral, divided by its content.  A pivot row is zero at
    every other pivot column, so each subtraction leaves the other entries
    at pivots alone.  A nonzero remainder becomes a pivot row at its
    rightmost entry, and every earlier pivot row with an entry there is
    cleared the same way.  So each pivot row's rightmost entry is its pivot
    and the rows stay reduced; only rows with an entry at a pivot change.
    """
    pivot_rows = {}
    for row in a:
        hits = [(c, row[c], pivot_rows[c]) for c in row if c in pivot_rows]
        if hits:
            row = _clear(row, hits)
            if not row:
                continue
        c = pick(row)
        for d, prow in pivot_rows.items():
            if c in prow:
                pivot_rows[d] = _clear(prow, [(c, prow[c], row)])
        pivot_rows[c] = row
    return pivot_rows


def _clear(row, hits):
    """row times the least L > 0 that makes L f / p_c integral for every
    (c, f, pivot row with pivot p_c at c) in hits, minus (L f / p_c) times
    each pivot row, divided by its content: zero at every c, with its zero
    entries dropped."""
    scale = math.lcm(*(p[c] // math.gcd(p[c], f) for c, f, p in hits))
    out = {j: scale * v for j, v in row.items()} if scale > 1 else dict(row)
    for c, f, p in hits:
        m = scale * f // p[c]
        for j, v in p.items():
            out[j] = out.get(j, 0) - m * v
    out = {j: v for j, v in out.items() if v}
    g = math.gcd(*out.values())
    return {j: v // g for j, v in out.items()} if g > 1 else out


def echelon_maps(rows, ncols: int):
    """(pivots, basis) of echelon_rows for sparse rows {column: value}, from
    one _sparse_elimination that takes each row's leftmost entry as its
    pivot: a pivot row's leftmost entry stays its pivot as later pivot
    rows, all zero left of their own pivot, are cleared from it, so the
    pivot rows, signed positive at the pivot, are the reduced echelon rows.
    The input is not changed."""
    pivot_rows = _sparse_elimination(_int_maps(rows, ncols), min)
    pivots = sorted(pivot_rows)
    basis = []
    for c in pivots:
        row = pivot_rows[c]
        sign = 1 if row[c] > 0 else -1
        vec = [0] * ncols
        for j, v in row.items():
            vec[j] = sign * v
        basis.append(vec)
    return pivots, basis


def echelon_kernel(rows, ncols: int):
    """(pivots, basis): the reduced row echelon basis of the kernel of the
    matrix with these sparse rows {column: value} and ncols columns, in the
    form echelon_rows gives, from one elimination of the nonzero entries.

    The pivot columns are chosen right to left (_sparse_elimination).  A
    pivot row is then zero at every free column right of its pivot, so the
    kernel vector of free column f -- positive at f, zero at every other
    free column -- has its first nonzero entry at f.  These vectors are
    already reduced and echelon, with the free columns as their pivots: no
    second elimination is needed.  The input is not changed.
    """
    pivot_rows = _sparse_elimination(_int_maps(rows, ncols))
    used = {}  # free column f -> [(pivot c, entry at f, pivot entry)]
    for c, row in pivot_rows.items():
        p = row[c]
        for f, v in row.items():
            if f != c:
                used.setdefault(f, []).append((c, v, p))
    free, basis = [], []
    for f in range(ncols):
        if f in pivot_rows:
            continue
        terms = used.get(f, ())
        scale = math.lcm(*(p for _, _, p in terms))
        vec = [0] * ncols
        vec[f] = scale
        for c, v, p in terms:
            vec[c] = -v * (scale // p)
        g = math.gcd(*vec)
        free.append(f)
        basis.append([v // g for v in vec] if g > 1 else vec)
    return free, basis


def solve(rows, ncols: int, rhs):
    """One exact solution of rows . x = rhs (x of length ncols), or None
    when inconsistent.

    Deterministic: reduces the augmented matrix and sets every free
    variable to zero (the echelon-first particular solution).
    """
    if len(rhs) != len(rows):
        raise ShapeError("right-hand side length mismatch")
    a = _int_rows([[*row, b] for row, b in zip(rows, rhs)], ncols + 1)
    pivots = _gauss_jordan(a, ncols)
    if any(row[ncols] for row in a[len(pivots) :]):
        return None
    x = [ZERO] * ncols
    for row, c in zip(a, pivots):
        if row[ncols]:
            x[c] = Rat(row[ncols], row[c])
    return x


def inverse(rows):
    """Exact inverse of a square matrix, as rows; ShapeError if singular."""
    n = len(rows)
    # each identity row is scaled together with its row of the matrix
    eye = [[ZERO] * i + [ONE] + [ZERO] * (n - 1 - i) for i in range(n)]
    a = _int_rows([[*row, *e] for row, e in zip(rows, eye)], 2 * n)
    if len(_gauss_jordan(a, n)) != n:
        raise ShapeError("matrix is singular")
    return [[Rat(v, row[r]) if v else ZERO for v in row[n:]] for r, row in enumerate(a)]


def interpolate_vector_poly(samples, degree: int):
    """Exact coefficients c_0..c_degree of a vector-valued polynomial.

    samples: iterable of (t, value-vector) pairs at pairwise-distinct t,
    with int, Rat or string entries (a float raises ContractError).
    Interpolates the first degree+1 samples by Newton divided differences,
    O(degree^2) per value column, and expands the Newton form into monomial
    coefficients; then checks any remaining samples against the result.  A
    mismatch means the data has higher degree than declared and raises
    DegreeMismatchError.
    """
    samples = list(samples)
    nodes = [as_rat(t) for t, _ in samples]
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
    values = [[as_rat(x) for x in v] for _, v in samples]
    columns = []
    for column in zip(*values[: degree + 1]):
        # c[i] becomes the divided difference f[t_0, ..., t_i], in place
        c = list(column)
        for k in range(1, degree + 1):
            for i in range(degree, k - 1, -1):
                c[i] = (c[i] - c[i - 1]) / (nodes[i] - nodes[i - k])
        # expand the Newton form by Horner: poly <- poly (t - t_i) + c[i]
        poly = [c[degree]]
        for i in range(degree - 1, -1, -1):
            t = nodes[i]
            poly = [c[i] - t * poly[0], *[a - t * b for a, b in zip(poly, poly[1:])], poly[-1]]
        columns.append(poly)
    coeffs = [[poly[k] for poly in columns] for k in range(degree + 1)]
    for t, value in zip(nodes[degree + 1 :], values[degree + 1 :]):
        acc = [ZERO] * width
        p = ONE
        for c in coeffs:
            for j in range(width):
                acc[j] += p * c[j]
            p = p * t
        if acc != value:
            raise DegreeMismatchError(
                f"samples are not reproduced by a degree-{degree} polynomial"
            )
    return coeffs
