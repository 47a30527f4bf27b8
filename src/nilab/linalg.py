"""Exact linear algebra over the rationals.

Scalars are always-reduced arbitrary-precision rationals (see _scalar);
there is no floating point anywhere, so every rank / kernel / determinant
decision is discrete and reproducible.  Pivot choice is deterministic
(first nonzero entry in column order), which makes echelon forms, kernel
bases and solver output identical across runs and platforms.

Matrices are stored densely, but the pipeline's matrices (ad maps of
nilpotent elements, stacked bracket blocks) are mostly zero, so the loops
skip zero entries: products and row updates only touch positions where
both factors are nonzero.  Skipping a zero never changes a value, only the
number of rational operations spent reaching it.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._scalar import ONE, Rat, ZERO
from .errors import ContractError, DegreeMismatchError, ShapeError


class Mat:
    """Dense rational matrix, entries stored row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        data = [v if type(v) is Rat else Rat(v) for v in data]
        if len(data) != rows * cols:
            raise ShapeError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Mat":
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i * n + i] = ONE
        return m

    @classmethod
    def from_rows(cls, rows) -> "Mat":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise ShapeError("ragged row lengths")
            flat.extend(row)
        return cls(nrows, ncols, flat)

    @classmethod
    def column_vector(cls, values) -> "Mat":
        return cls(len(values), 1, list(values))

    def at(self, i: int, j: int):
        return self.data[i * self.cols + j]

    def row(self, i: int):
        return self.data[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int):
        return [self.data[i * self.cols + j] for i in range(self.rows)]

    def as_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.data)

    def trace(self):
        if self.rows != self.cols:
            raise ShapeError("trace of a non-square matrix")
        return sum((self.at(i, i) for i in range(self.rows)), ZERO)

    def transpose(self) -> "Mat":
        out = Mat.zeros(self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                out.data[j * self.rows + i] = self.at(i, j)
        return out

    def scale(self, c) -> "Mat":
        c = Rat(c)
        return Mat(self.rows, self.cols, [c * v for v in self.data])

    def __add__(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape mismatch in addition")
        return Mat(self.rows, self.cols, [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape mismatch in subtraction")
        return Mat(self.rows, self.cols, [a - b for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, [-v for v in self.data])

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ShapeError("shape mismatch in multiplication")
        out = Mat.zeros(self.rows, other.cols)
        oc = other.cols
        for i in range(self.rows):
            base = i * self.cols
            obase = i * oc
            for t in range(self.cols):
                v = self.data[base + t]
                if v:
                    tbase = t * oc
                    for j in range(oc):
                        w = other.data[tbase + j]
                        if w:
                            out.data[obase + j] += v * w
        return out

    def mul_vec(self, vec):
        if self.cols != len(vec):
            raise ShapeError("vector length mismatch")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            acc = ZERO
            for j, v in enumerate(vec):
                if v:
                    acc += self.data[base + j] * v
            out.append(acc)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.data)))

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(str(v) for v in self.row(i)) for i in range(self.rows))
        return f"Mat({self.rows}x{self.cols}: {rows})"


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


def rank_kernel(m: Mat):
    """Exact rank and kernel of m.

    The kernel basis is in reduced column-echelon form: vector k for free
    column f has entry 1 at f, entry 0 at every other free column, and the
    negated echelon coefficients at the pivot columns.  Returned as column
    vectors, ordered by ascending free column.
    """
    work = m.as_rows()
    pivots = rref(work, m.cols)
    rank = len(pivots)
    pivot_set = set(pivots)
    kernel = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        vec = [ZERO] * m.cols
        vec[f] = ONE
        for r, c in enumerate(pivots):
            vec[c] = -work[r][f]
        kernel.append(Mat.column_vector(vec))
    return rank, kernel


def det(m: Mat):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Rows are first cleared of denominators so the elimination runs over the
    integers; the scaling is divided back out at the end.
    """
    if m.rows != m.cols:
        raise ShapeError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return ONE
    a = []
    scale = ONE
    for i in range(n):
        row = m.row(i)
        den = math.lcm(*(int(v.denominator) for v in row)) if row else 1
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


def solve(m: Mat, rhs):
    """One exact solution of m x = rhs, or None when inconsistent.

    Deterministic: reduces the augmented matrix and sets every free
    variable to zero (the echelon-first particular solution).
    """
    if len(rhs) != m.rows:
        raise ShapeError("right-hand side length mismatch")
    work = [m.row(i) + [Rat(rhs[i])] for i in range(m.rows)]
    pivots = rref(work, m.cols)
    for i in range(len(pivots), m.rows):
        if work[i][m.cols] != 0:
            return None
    x = [ZERO] * m.cols
    for r, c in enumerate(pivots):
        x[c] = work[r][m.cols]
    return x


def inverse(m: Mat) -> Mat:
    """Exact inverse of a square matrix; raises ShapeError if singular."""
    if m.rows != m.cols:
        raise ShapeError("inverse of a non-square matrix")
    n = m.rows
    ident = Mat.identity(n)
    work = [m.row(i) + ident.row(i) for i in range(n)]
    pivots = rref(work, n)
    if len(pivots) != n:
        raise ShapeError("matrix is singular")
    return Mat.from_rows([row[n:] for row in work])


@lru_cache(maxsize=None)
def _vandermonde_inverse(nodes):
    """Inverse of the Vandermonde matrix (nodes[i]^k), built in closed form.

    Column i holds the coefficients of the Lagrange basis polynomial
    L_i(t) = prod_{l != i} (t - t_l) / (t_i - t_l), so no elimination runs
    and the cached value costs the same work whenever it is first needed.
    """
    n = len(nodes)
    data = [ZERO] * (n * n)
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
            data[k * n + i] = c / denom
    return Mat(n, n, data)


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
        vrow = vinv.row(k)
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
