"""Split matrix realizations of the classical simple Lie algebras.

Families and realizations (all with integer structure constants):

  A_r : sl(r+1), traceless matrices.
  B_r : so(2r+1) and D_r : so(2r), cut out by x^T S + S x = 0 with S the
        antidiagonal-ones form.
  C_r : sp(2r), cut out by x^T J + J x = 0 with J antidiagonal, +1 above
        the center and -1 below.

The antidiagonal ("split") forms make the Borel subalgebra literally upper
triangular, so nilpotent elements, triples and gradings stay rational.

Basis order is row-major over matrix positions and documented in each
builder, fixed once so that coordinates and reports are reproducible.

The invariant pairing is the defining-representation trace form tr(xy)
(optionally rescaled); it is a nonzero multiple of the Killing form, with
the per-family ratio recorded on the realization.  Ranks, vanishing
patterns and the index are insensitive to this rescaling.  No Gram matrix
is stored: trace_form multiplies the matrices, and every matrix comes back
to coordinates through the one checked read-off, coords_of_rows.

Every matrix, an N x N realization or a dim x dim map such as ad(x), is a
list of row lists, the one form linalg works on.  An element's N x N matrix
is kept integer-scaled: integer rows R and one positive common denominator
d with x = R / d, cleared once from its coordinates (as Bareiss clears
denominators before eliminating).  Brackets, products, traces, the
unipotent conjugation and the read-off then run on Python ints, and only
the coordinates that come back out are rationals.  The ad(h)-grading of a
diagonal h is read off the matrix positions of the basis, not solved for.
"""

from __future__ import annotations

import math

from ._scalar import ONE, Rat, ZERO, rat_str
from .errors import (
    ContractError,
    GraduationError,
    ShapeError,
    UnsupportedAlgebraError,
)
from .linalg import inverse, mat_mul, rank_kernel, rref


def _zero_rows(n):
    return [[ZERO] * n for _ in range(n)]


def _sl_basis(n):
    # Row-major over positions (i, j): off-diagonal (i, j) gives E_ij;
    # diagonal (i, i) with i < n-1 gives E_ii - E_{i+1,i+1}; (n-1, n-1) skipped.
    basis = []
    for i in range(n):
        for j in range(n):
            if i == j:
                if i < n - 1:
                    m = _zero_rows(n)
                    m[i][i] = ONE
                    m[i + 1][i + 1] = -ONE
                    basis.append(m)
            else:
                m = _zero_rows(n)
                m[i][j] = ONE
                basis.append(m)
    return basis


def _so_basis(n):
    # x in so(n) iff x_{ij} = -x_{s(j) s(i)} with s(i) = n-1-i (0-based);
    # representatives are the lexicographically smaller member of each
    # orbit pair {(i,j), (s(j),s(i))}, scanned row-major; antidiagonal
    # positions (j = s(i)) are forced to zero and skipped.
    basis = []
    for i in range(n):
        for j in range(n):
            if i + j == n - 1:
                continue
            pi, pj = n - 1 - j, n - 1 - i
            if (pi, pj) < (i, j):
                continue
            m = _zero_rows(n)
            m[i][j] = ONE
            m[pi][pj] = -ONE
            basis.append(m)
    return basis


def _sp_basis(n):
    # x in sp(n) iff x_{ij} = -eps(i) eps(j) x_{s(j) s(i)}, eps = +1 on the
    # first half, -1 on the second; antidiagonal positions are free.
    half = n // 2
    basis = []
    for i in range(n):
        for j in range(n):
            pi, pj = n - 1 - j, n - 1 - i
            if (pi, pj) == (i, j):
                m = _zero_rows(n)
                m[i][j] = ONE
                basis.append(m)
                continue
            if (pi, pj) < (i, j):
                continue
            ei = 1 if i < half else -1
            ej = 1 if j < half else -1
            m = _zero_rows(n)
            m[i][j] = ONE
            m[pi][pj] = Rat(-ei * ej)
            basis.append(m)
    return basis


def _form_matrix(family, n):
    if family in ("B", "D"):
        m = _zero_rows(n)
        for i in range(n):
            m[i][n - 1 - i] = ONE
        return m
    if family == "C":
        half = n // 2
        m = _zero_rows(n)
        for i in range(n):
            m[i][n - 1 - i] = ONE if i < half else -ONE
        return m
    return None


class AlgebraRealization:
    """A classical simple Lie algebra as N x N rational matrices.

    Built through build_algebra; immutable afterwards and safe to share.
    """

    def __init__(self, family, rank_r, *, form_scale=ONE):
        family = family.upper()
        if family == "A":
            if rank_r < 1:
                raise UnsupportedAlgebraError("A_r needs r >= 1")
            n = rank_r + 1
            basis = _sl_basis(n)
            degrees = list(range(2, n + 1))
            kinds = ["trace"] * rank_r
            killing_ratio = Rat(2 * n)
            simple = True
            name = f"sl({n})"
        elif family == "B":
            if rank_r < 1:
                raise UnsupportedAlgebraError("B_r needs r >= 1")
            n = 2 * rank_r + 1
            basis = _so_basis(n)
            degrees = [2 * k for k in range(1, rank_r + 1)]
            kinds = ["trace"] * rank_r
            killing_ratio = Rat(n - 2)
            simple = True
            name = f"so({n})"
        elif family == "C":
            if rank_r < 1:
                raise UnsupportedAlgebraError("C_r needs r >= 1")
            n = 2 * rank_r
            basis = _sp_basis(n)
            degrees = [2 * k for k in range(1, rank_r + 1)]
            kinds = ["trace"] * rank_r
            killing_ratio = Rat(n + 2)
            simple = True
            name = f"sp({n})"
        elif family == "D":
            if rank_r < 2:
                raise UnsupportedAlgebraError("D_r needs r >= 2")
            n = 2 * rank_r
            basis = _so_basis(n)
            pairs = [(2 * k, "trace") for k in range(1, rank_r)] + [(rank_r, "pfaffian")]
            pairs.sort(key=lambda dk: (dk[0], 0 if dk[1] == "trace" else 1))
            degrees = [d for d, _ in pairs]
            kinds = [k for _, k in pairs]
            killing_ratio = Rat(n - 2)
            simple = rank_r != 2  # D_2 = so(4) is semisimple, not simple
            name = f"so({n})"
        else:
            raise UnsupportedAlgebraError(f"unknown family {family!r}")

        self.family = family
        self.rank_r = rank_r
        self.matrix_size_N = n
        self.name = name
        self.simple = simple
        self.form = _form_matrix(family, n)
        self.form_scale = Rat(form_scale)
        if self.form_scale == 0:
            raise ContractError("form_scale must be nonzero")
        self.killing_ratio = killing_ratio
        self.generator_degrees = tuple(degrees)
        self.generator_kinds = tuple(kinds)
        self.exponents = tuple(d - 1 for d in degrees)
        self.distinct_exponents = len(set(self.exponents)) == rank_r
        self.dim = len(basis)
        # The basis matrices have integer entries.  Products read them as
        # ints: (i, j, value) triples in row-major order, and integer rows
        # with the columns of their nonzero entries.
        self._basis_sparse = [
            [(i, j, int(rows[i][j])) for i in range(n) for j in range(n) if rows[i][j]]
            for rows in basis
        ]
        self._basis_int = []
        for entries in self._basis_sparse:
            rows = _zero_int_rows(n)
            cols = [[] for _ in range(n)]
            for i, j, v in entries:
                rows[i][j] = v
                cols[i].append(j)
            self._basis_int.append((rows, cols))
        self._upper_indices = tuple(
            k
            for k, entries in enumerate(self._basis_sparse)
            if all(i < j for i, j, _ in entries)
        )
        self._init_coordinatizer(basis)

    def _init_coordinatizer(self, basis):
        # The pivot positions of the flattened basis determine a matrix's
        # coordinates: coords = inv * (entries at the pivots).  The inverse
        # pivot block is kept as integers times the lcm D0 of its
        # denominators.  Both it and the basis are mostly zero, so only their
        # nonzero entries are kept, each with the matrix position it reads.
        n = self.matrix_size_N
        vecs = [[v for line in rows for v in line] for rows in basis]
        work = [list(v) for v in vecs]
        pivots = rref(work, n * n)
        if len(pivots) != self.dim:
            raise ContractError("basis matrices are not linearly independent")
        inv = inverse([[vec[p] for vec in vecs] for p in pivots])
        terms = [[(p, c) for p, c in zip(pivots, line) if c] for line in inv]
        d0 = math.lcm(*(c.denominator for line in terms for _, c in line))
        self._coord_den = d0
        self._coord_terms = tuple(
            tuple((p // n, p % n, c.numerator * (d0 // c.denominator)) for p, c in line)
            for line in terms
        )
        pivot_set = set(pivots)
        self._nonpivot_terms = tuple(
            (q // n, q % n, tuple((k, int(vec[q])) for k, vec in enumerate(vecs) if vec[q]))
            for q in range(n * n)
            if q not in pivot_set
        )

    def coords_of_rows(self, rows, den=1, num=1):
        """Coordinates in the basis of the N x N matrix (num / den) * rows,
        for integer rows and integers num, den != 0.

        Each coordinate of rows, times D0, is read off as an integer from
        the entries at the basis pivot positions, through the precomputed
        nonzero entries of the integer inverse pivot block; zero matrix
        entries are skipped.  Every non-pivot entry is then checked in
        integers, sum_k C_k b_k == R_ij D0, so a matrix outside the span
        raises ContractError.  Only then is each nonzero coordinate made a
        rational, num C_k / (D0 den).
        """
        d0 = self._coord_den
        coords = []
        for terms in self._coord_terms:
            acc = 0
            for i, j, c in terms:
                v = rows[i][j]
                if v:
                    acc += c * v
            coords.append(acc)
        for i, j, terms in self._nonpivot_terms:
            acc = 0
            for k, b in terms:
                c = coords[k]
                if c:
                    acc += c * b
            if acc != rows[i][j] * d0:
                raise ContractError("matrix does not lie in the algebra")
        scale = d0 * den
        return [Rat(c * num, scale) if c else ZERO for c in coords]

    def element(self, coords) -> "Element":
        return Element(self, coords)

    def zero(self) -> "Element":
        return Element(self, [ZERO] * self.dim)

    def basis_element(self, k) -> "Element":
        coords = [ZERO] * self.dim
        coords[k] = ONE
        return Element(self, coords)

    def from_matrix(self, rows) -> "Element":
        """The element with these N x N matrix rows (ShapeError unless the
        matrix is N x N, ContractError unless it lies in the algebra)."""
        n = self.matrix_size_N
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ShapeError("matrix size does not match the realization")
        int_rows, den = _clear_denominators([[Rat(v) for v in r] for r in rows])
        return Element(self, self.coords_of_rows(int_rows, den))

    def full_space(self) -> "Subspace":
        return Subspace.from_coord_rows(
            self, [self.basis_element(k).coords for k in range(self.dim)]
        )

    def random_element(self, rng, bound: int = 3) -> "Element":
        return Element(self, [Rat(rng.randint(-bound, bound)) for _ in range(self.dim)])

    def random_upper_nilpotent(self, rng, bound: int = 2) -> "Element":
        """Random combination of the strictly-upper-triangular basis matrices
        (ad-nilpotent by construction); resampled once if it comes out zero."""
        for _ in range(8):
            coords = [ZERO] * self.dim
            for k in self._upper_indices:
                coords[k] = Rat(rng.randint(-bound, bound))
            el = Element(self, coords)
            if not el.is_zero():
                return el
        return Element(self, coords)

    def describe(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank_r,
            "matrix_size": self.matrix_size_N,
            "dim": self.dim,
            "name": self.name,
            "simple": self.simple,
            "generator_degrees": list(self.generator_degrees),
            "generator_kinds": list(self.generator_kinds),
            "exponents": list(self.exponents),
            "distinct_exponents": self.distinct_exponents,
            "killing_to_trace_ratio": rat_str(self.killing_ratio),
            "form_scale": rat_str(self.form_scale),
        }

    def __repr__(self) -> str:
        return f"AlgebraRealization({self.name}, dim={self.dim})"


def build_algebra(family: str, rank_r: int, *, form_scale=ONE) -> AlgebraRealization:
    """Split realization of A/B/C/D at the given rank.

    D_2 and D_3 are allowed for testing although D_2 is not simple (the
    realization records this via the `simple` flag).
    """
    return AlgebraRealization(family, rank_r, form_scale=form_scale)


def _zero_int_rows(n):
    return [[0] * n for _ in range(n)]


def _nonzero_columns(rows):
    """Per row, the columns of its nonzero entries."""
    return [[j for j, v in enumerate(row) if v] for row in rows]


def _clear_denominators(rows):
    """(R, d) with integer rows R and the least positive d such that the
    rational rows equal R / d."""
    den = math.lcm(*(v.denominator for row in rows for v in row if v))
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def _commutator_rows(a, a_cols, b, b_cols):
    """ab - ba for integer matrices a and b, accumulated into one output
    over the nonzero entries listed, per row, in a_cols and b_cols."""
    out = _zero_int_rows(len(a))
    for oi, ai, bi, ai_cols, bi_cols in zip(out, a, b, a_cols, b_cols):
        for t in ai_cols:
            v, bt = ai[t], b[t]
            for j in b_cols[t]:
                oi[j] += v * bt[j]
        for t in bi_cols:
            v, at = bi[t], a[t]
            for j in a_cols[t]:
                oi[j] -= v * at[j]
    return out


class Element:
    """A vector of the algebra, stored as exact coordinates in the basis.

    Its N x N matrix is built once, when first needed, in integer-scaled
    form (see int_rows); no rational copy of it is kept.
    """

    __slots__ = ("algebra", "coords", "_int")

    def __init__(self, algebra: AlgebraRealization, coords):
        coords = tuple([c if type(c) is Rat else Rat(c) for c in coords])
        if len(coords) != algebra.dim:
            raise ContractError("coordinate length does not match the algebra dimension")
        self.algebra = algebra
        self.coords = coords
        self._int = None

    def _int_form(self):
        """(R, d, columns of the nonzero entries of each row of R): the
        cached integer-scaled matrix."""
        if self._int is None:
            alg = self.algebra
            n = alg.matrix_size_N
            den = math.lcm(*(c.denominator for c in self.coords if c))
            rows = _zero_int_rows(n)
            for c, entries in zip(self.coords, alg._basis_sparse):
                if c:
                    c = c.numerator * (den // c.denominator)
                    for i, j, v in entries:
                        rows[i][j] += c * v
            self._int = (rows, den, _nonzero_columns(rows))
        return self._int

    def int_rows(self):
        """(R, d): integer rows R and a positive integer d with x = R / d,
        d the least common denominator of the coordinates.  R is the cached
        matrix itself and must not be changed."""
        rows, den, _ = self._int_form()
        return rows, den

    def matrix_rows(self):
        """The N x N matrix as fresh row lists of rationals."""
        rows, den = self.int_rows()
        return [[Rat(v, den) for v in row] for row in rows]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_nilpotent(self) -> bool:
        n = self.algebra.matrix_size_N
        rows, _ = self.int_rows()
        power = rows
        for _ in range(n - 1):
            if not any(any(row) for row in power):
                return True
            power = mat_mul(power, rows)
        return not any(any(row) for row in power)

    def __add__(self, other: "Element") -> "Element":
        _same_algebra(self, other)
        return Element(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Element") -> "Element":
        _same_algebra(self, other)
        return Element(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "Element":
        return Element(self.algebra, [-c for c in self.coords])

    def scale(self, c) -> "Element":
        c = Rat(c)
        return Element(self.algebra, [c * v for v in self.coords])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Element({self.algebra.name}, [{', '.join(str(c) for c in self.coords)}])"


def _same_algebra(x, y):
    if x.algebra is not y.algebra:
        raise ContractError("elements belong to different algebra realizations")


def bracket(x: Element, y: Element) -> Element:
    """Lie bracket [x, y] = xy - yx, back in basis coordinates."""
    _same_algebra(x, y)
    alg = x.algebra
    a, dx, a_cols = x._int_form()
    b, dy, b_cols = y._int_form()
    return Element(alg, alg.coords_of_rows(_commutator_rows(a, a_cols, b, b_cols), dx * dy))


def trace_form(x: Element, y: Element):
    """Invariant pairing tr(xy), times the realization's form_scale."""
    _same_algebra(x, y)
    a, dx, a_cols = x._int_form()
    b, dy = y.int_rows()
    acc = 0
    for i, (ai, cols) in enumerate(zip(a, a_cols)):
        for j in cols:
            acc += ai[j] * b[j][i]
    return Rat(acc, dx * dy) * x.algebra.form_scale


def ad_matrix(x: Element):
    """Rows of the matrix of ad(x): column k holds the coordinates of
    [x, basis_k]."""
    alg = x.algebra
    a, dx, a_cols = x._int_form()
    columns = [
        alg.coords_of_rows(_commutator_rows(a, a_cols, b, b_cols), dx)
        for b, b_cols in alg._basis_int
    ]
    return [list(row) for row in zip(*columns)]


class Subspace:
    """A subspace of the algebra, stored as a deterministic echelon basis.

    The rows are the reduced row echelon form of the generating coordinate
    vectors, so equal subspaces have equal row lists.
    """

    __slots__ = ("algebra", "rows", "pivots", "_basis", "_bracket_table")

    def __init__(self, algebra: AlgebraRealization, rows, pivots):
        self.algebra = algebra
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)
        self._basis = None
        self._bracket_table = None

    @classmethod
    def from_coord_rows(cls, algebra, rows) -> "Subspace":
        work = list(rows)
        pivots = rref(work, algebra.dim)
        return cls(algebra, work[: len(pivots)], pivots)

    @classmethod
    def from_elements(cls, algebra, elements) -> "Subspace":
        return cls.from_coord_rows(algebra, [e.coords for e in elements])

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self):
        if self._basis is None:
            self._basis = [Element(self.algebra, r) for r in self.rows]
        return self._basis

    def _eliminate(self, coords):
        """(coefficients in this basis, residual) of a coordinate vector."""
        residual = list(coords)
        out = []
        for r, c in enumerate(self.pivots):
            f = residual[c]
            out.append(f)
            if f:
                row = self.rows[r]
                residual = [a - f * b if b else a for a, b in zip(residual, row)]
        return out, residual

    def reduce(self, coords):
        """Residual of a coordinate vector after reduction by the basis;
        zero exactly when the vector lies in the subspace."""
        return self._eliminate(coords)[1]

    def contains(self, element: Element) -> bool:
        return not any(self.reduce(element.coords))

    def coords_of(self, element: Element):
        """Coefficients of element in this basis, or None if not a member."""
        out, residual = self._eliminate(element.coords)
        return None if any(residual) else tuple(out)

    def same_space(self, other: "Subspace") -> bool:
        return self.rows == other.rows

    def bracket_table(self):
        """Coordinates in this basis of [b_a, b_b] for every a < b, as
        table[a][b - a - 1].

        Each unordered pair is bracketed once and the table is kept, so the
        center and the normalizer share it; [b_b, b_a] is its negative and
        [b_a, b_a] is zero.  A bracket outside the span raises ContractError:
        building the table is the exact check that s is a subalgebra.
        """
        if self._bracket_table is None:
            basis = self.basis
            table = []
            for a, x in enumerate(basis):
                row = []
                for y in basis[a + 1 :]:
                    coords = self.coords_of(bracket(x, y))
                    if coords is None:
                        raise ContractError("subspace is not closed under the bracket")
                    row.append(coords)
                table.append(row)
            self._bracket_table = table
        return self._bracket_table

    def __repr__(self) -> str:
        return f"Subspace({self.algebra.name}, dim={self.dim})"


def centralizer(x: Element) -> Subspace:
    """z(x) = {y : [x, y] = 0}, the kernel of ad(x)."""
    _, kernel = rank_kernel(ad_matrix(x), x.algebra.dim)
    return Subspace.from_coord_rows(x.algebra, kernel)


def _combine(rows, coeffs, length):
    """sum_i coeffs[i] * rows[i] as a coordinate list."""
    out = [ZERO] * length
    for c, row in zip(coeffs, rows):
        if c:
            for q, v in enumerate(row):
                if v:
                    out[q] += c * v
    return out


def center_of(s: Subspace) -> Subspace:
    """{c in s : [c, u] = 0 for every basis vector u of s}.

    s must be closed under the bracket (checked; ContractError otherwise).
    The brackets come from s.bracket_table(), one per unordered pair of basis
    vectors, already in s-coordinates.  The center is the kernel of the
    k^2 x k matrix with entry coord_t([b_a, b_u]) in row (u, t), column a;
    only its nonzero rows are built, from the nonzero table entries.
    """
    k = s.dim
    rows = {}
    for a, line in enumerate(s.bracket_table()):
        for b, coords in enumerate(line, start=a + 1):
            for t, c in enumerate(coords):
                if c:  # coord_t [b_a, b_b] = c and coord_t [b_b, b_a] = -c
                    rows.setdefault((b, t), [ZERO] * k)[a] = c
                    rows.setdefault((a, t), [ZERO] * k)[b] = -c
    _, kernel = rank_kernel(list(rows.values()), k)
    return Subspace.from_coord_rows(
        s.algebra, [_combine(s.rows, x, s.algebra.dim) for x in kernel]
    )


def normalizer_of(s: Subspace) -> Subspace:
    """{y : [y, u] in s for every basis vector u of s}.

    s must be a subalgebra (checked through s.bracket_table(); ContractError
    otherwise).  Then s lies in its normalizer, so the normalizer is s plus
    the vectors y spanned by the basis directions off the pivots of s with
    [y, u] in s for all u.  That candidate set is refined one u at a time:
    after each u only the kernel of y -> [y, u] mod s is kept, so later u
    bracket fewer vectors and ad(u) is never built on all of g.
    """
    alg = s.algebra
    s.bracket_table()  # closure check: only then does s lie in its normalizer
    pivots = set(s.pivots)
    candidates = [alg.basis_element(q) for q in range(alg.dim) if q not in pivots]
    for u in s.basis:
        if not candidates:
            break
        images = [s.reduce(bracket(y, u).coords) for y in candidates]
        _, kernel = rank_kernel([r for r in zip(*images) if any(r)], len(candidates))
        if len(kernel) < len(candidates):
            coords = [y.coords for y in candidates]
            candidates = [Element(alg, _combine(coords, x, alg.dim)) for x in kernel]
    return Subspace.from_coord_rows(alg, list(s.rows) + [y.coords for y in candidates])


def h_graduation(h: Element, s: Subspace):
    """Weight-space decomposition of s under ad(h), for a diagonal h.

    Basis vector k is a weight vector of ad(h): if its first nonzero entry
    is at (i, j), its weight is h_ii - h_jj (the mirrored so/sp entry has the
    same weight because h lies in g).  So s is ad(h)-stable exactly when
    each echelon row of s is a weight vector, and the rows of one weight,
    with their pivots, are the echelon basis of that piece.  Pieces come
    back sorted by ascending weight and their dimensions sum to dim s.

    h must be diagonal, as every h of a triple built here is; a non-diagonal
    h or an unstable s raises GraduationError, and an h from another
    realization raises ContractError.
    """
    _same_algebra(h, s)
    alg = s.algebra
    rows, den = h.int_rows()
    if any(v for i, row in enumerate(rows) for j, v in enumerate(row) if i != j):
        raise GraduationError("h is not diagonal")
    weights = [
        Rat(rows[i][i] - rows[j][j], den)
        for i, j, _ in (entries[0] for entries in alg._basis_sparse)
    ]
    pieces = {}
    for row, pivot in zip(s.rows, s.pivots):
        mu = weights[pivot]
        if any(c and weights[q] != mu for q, c in enumerate(row)):
            raise GraduationError("subspace is not stable under ad(h)")
        pieces.setdefault(mu, []).append((row, pivot))
    return [(mu, Subspace(alg, *zip(*pieces[mu]))) for mu in sorted(pieces)]


def unipotent_conjugate(n: Element, x: Element) -> Element:
    """Ad(exp n) x = exp(n) x exp(-n), for a nilpotent n.

    With n = R / d and R^(K+1) = 0, exp(+-n) = E+- / D for D = d^K K! and
    the integer matrices E+- = sum_k (+-1)^k R^k D / (d^k k!); the product
    E+ X E- of integer rows is read back once over D^2 dx, which also checks
    that it lies in g.  A non-nilpotent n, or n and x from different
    realizations, raises ContractError.
    """
    _same_algebra(n, x)
    r, d = n.int_rows()
    size = n.algebra.matrix_size_N
    powers = []  # R^0, ..., R^K
    power = [[int(i == j) for j in range(size)] for i in range(size)]
    while any(any(row) for row in power):
        if len(powers) == size:
            raise ContractError("element is not nilpotent")
        powers.append(power)
        power = mat_mul(power, r)
    top = len(powers) - 1
    big = d**top * math.factorial(top)
    plus, minus = _zero_int_rows(size), _zero_int_rows(size)
    for k, power in enumerate(powers):
        c = big // (d**k * math.factorial(k))
        for p_row, m_row, row in zip(plus, minus, power):
            for j, v in enumerate(row):
                if v:
                    p_row[j] += c * v
                    m_row[j] += (-c if k % 2 else c) * v
    xr, dx = x.int_rows()
    rows = mat_mul(mat_mul(plus, xr), minus)
    return Element(x.algebra, x.algebra.coords_of_rows(rows, big * big * dx))
