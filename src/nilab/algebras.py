"""Split matrix realizations of the classical simple Lie algebras.

Families and realizations (all with integer structure constants, see
below):

  A_r : sl(r+1), traceless matrices.
  B_r : so(2r+1) and D_r : so(2r), cut out by x^T S + S x = 0 with S the
        antidiagonal-ones form.
  C_r : sp(2r), cut out by x^T J + J x = 0 with J antidiagonal, +1 above
        the center and -1 below.

The antidiagonal ("split") forms make the Borel subalgebra literally upper
triangular, so nilpotent elements, triples and gradings stay rational.
What sets the families apart is stated once, in _FAMILIES: the name, the
least rank, the matrix size (whose inverse, _family_rank_for_size, sits
beside it) and the Killing/trace ratio; so and sp share one basis builder,
_form_basis, read off the form.

Basis order is row-major over matrix positions and documented in each
builder, fixed once so that coordinates and reports are reproducible.  A
builder returns each basis matrix as its nonzero integer entries (i, j, v)
in row-major order, and the forms S and J are integer rows, so the
realization is built in integers.  The basis is its own echelon form: each
basis matrix starts with a 1 at a position where no earlier one starts, so
the read-off is an integer forward substitution set up with no elimination.

The invariant pairing is the defining-representation trace form tr(xy)
(optionally rescaled); it is a nonzero multiple of the Killing form, with
the per-family ratio recorded on the realization.  Ranks, vanishing
patterns and the index are insensitive to this rescaling.  No Gram matrix
is stored: trace_form multiplies the matrices, walking the nonzero entries
of the sparse rows each element builds once (_sparse_form), and every
matrix comes back to g through one checked forward substitution,
_coords_of_entries, on its nonzero entries: a commutator of two basis
matrices, a product of sparse rows (_product_rows: the one walk of an
element's powers, _power_walk, and the slope walks on it), each packed
gradient matrix of nilab.invariants, the matrices nilab.frame carries (the
triples, z(e)) and, through coords_of_rows, the dense rows of Ad(exp n).

Brackets need neither a matrix nor a read-off.  Each realization keeps one
table of integer structure constants, [b_i, b_j] = sum_k c_ijk b_k, built
row by row on first use (_bracket_row; build_algebra builds none), each
commutator of two basis matrices read back to g once.  bracket, the ad(x)
columns (_ad_columns) and a subspace's bracket table (_bracket_coords) are
bilinear sums over the rows of the first factor's nonzero coordinates.

Every matrix, an N x N realization or a dim x dim map such as
ad_matrix(x), is a list of row lists, the form linalg's dense functions
work on.  An element holds integer numerators over one positive
common denominator d, in lowest terms, and its N x N matrix is kept
integer-scaled in the same way: integer rows R with x = R / d (as Bareiss
clears denominators before eliminating).  Element arithmetic, brackets,
products, traces, the unipotent conjugation, the read-off and the subspace
reduction run on Python ints; a rational is made only where a caller reads
coordinates (Element.coords, Subspace.coords_of, ad_matrix).

The subspace layer works on nonzero entries only.  A subspace keeps its
reduced echelon basis as primitive integer rows and has one reduction,
Subspace._reduce, of a coordinate vector on g, given as its nonzero entries
{q: value}, modulo its rows: it serves contains and coords_of, the bracket
table's closure check and the rows of y -> [x, y] mod t (_bracket_rows),
which reduce each ad(x) column once.  Each subspace built here is one
sparse integer echelon kernel (linalg.echelon_kernel) of such rows: the
center off the distinct rows of the bracket table of s (_central_kernel,
which nilab.frame shares), the others off _bracket_rows(x, t), whose kernel
is preimage(x, t); the centralizer is the preimage of 0, and
normalizer_of(s) stacks the rows over the basis of s.  These kernels over g
serve any element: verify's samples, principal_triplet and the triplets
sl2_complete builds.  The orbit pipeline takes z(e) and its center off the
Jordan-block frame of a partition's triple instead (nilab.frame), and eta
as z + [f, delta] (nilab.index), and the tests hold both routes to these
kernels.
The ad(h)-grading of a diagonal h is read off the matrix positions of the
basis, not solved for.
"""

from __future__ import annotations

import functools
import heapq
import math
from itertools import compress

from ._scalar import ONE, Rat, ZERO, as_rat
from .errors import (
    ContractError,
    GraduationError,
    PartitionError,
    ShapeError,
    UnsupportedAlgebraError,
)
from .linalg import _int_rows, echelon_kernel, echelon_rows, mat_mul
from .reports import ValueRecord


def _sl_basis(n):
    # Each basis matrix as its nonzero entries (i, j, v), row-major, as in
    # every builder.  Row-major over positions (i, j): off-diagonal (i, j)
    # gives E_ij; diagonal (i, i) with i < n-1 gives E_ii - E_{i+1,i+1};
    # (n-1, n-1) skipped.
    basis = []
    for i in range(n):
        for j in range(n):
            if i != j:
                basis.append([(i, j, 1)])
            elif i < n - 1:
                basis.append([(i, i, 1), (i + 1, i + 1, -1)])
    return basis


def _form_basis(form):
    # x in so(n) or sp(n) iff x^T S + S x = 0 for the antidiagonal form S,
    # that is x_{ij} = c x_{s(j) s(i)} with s(i) = n-1-i (0-based) and
    # c = -S[i][s(i)] S[j][s(j)].  Representatives are the lexicographically
    # smaller member of each pair {(i,j), (s(j),s(i))}, scanned row-major,
    # with entries +1 at (i, j) and c at the mirror.  A position that is its
    # own mirror (j = s(i)) is free when c = 1 (sp) and forced to zero when
    # c = -1 (so).
    n = len(form)
    sign = [form[i][n - 1 - i] for i in range(n)]
    basis = []
    for i in range(n):
        for j in range(n):
            mirror = (n - 1 - j, n - 1 - i)
            c = -sign[i] * sign[j]
            if mirror == (i, j):
                if c == 1:
                    basis.append([(i, j, 1)])
            elif (i, j) < mirror:
                basis.append([(i, j, 1), (*mirror, c)])
    return basis


def _form_matrix(family, n):
    # S (B, D) or J (C): antidiagonal, J with -1 below the center
    if family == "A":
        return None
    m = _zero_int_rows(n)
    for i in range(n):
        m[i][n - 1 - i] = -1 if family == "C" and i >= n // 2 else 1
    return m


# What sets the families apart: the name prefix, the least rank, the matrix
# size N = a r + b as (a, b), and the Killing/trace ratio c N + d as (c, d).
# The form, the basis and the generator degrees follow from the family and N.
_FAMILIES = {
    "A": ("sl", 1, (1, 1), (2, 0)),
    "B": ("so", 1, (2, 1), (1, -2)),
    "C": ("sp", 1, (2, 0), (1, 2)),
    "D": ("so", 2, (2, 0), (1, -2)),
}


def _matrix_size(family, rank_r):
    a, b = _FAMILIES[family][2]
    return a * rank_r + b


def _family_rank_for_size(family: str, n: int) -> int:
    """The rank whose matrix size is n, the inverse of _matrix_size;
    PartitionError for an unknown family or a size of the wrong parity."""
    family = family.upper()
    if family not in _FAMILIES:
        raise PartitionError(f"unknown family {family!r}")
    a, b = _FAMILIES[family][2]
    rank_r, rest = divmod(n - b, a)
    if rest:
        raise PartitionError(f"{family} family needs {'odd' if b else 'even'} matrix size")
    return rank_r


class InvariantGenerator(ValueRecord):
    """One homogeneous generator of the invariant polynomials."""

    __slots__ = ("index_j", "degree", "exponent", "kind")

    def __init__(self, index_j: int, degree: int, exponent: int, kind: str):
        object.__setattr__(self, "index_j", index_j)  # 1-based position, ascending degree
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "kind", kind)  # "trace" or "pfaffian"

    def _key(self):
        return self.index_j, self.degree, self.exponent, self.kind

    def __repr__(self):
        return "InvariantGenerator(index_j=%r, degree=%r, exponent=%r, kind=%r)" % self._key()


class AlgebraRealization:
    """A classical simple Lie algebra as N x N matrices, spanned by integer
    basis matrices.

    Built through build_algebra; immutable afterwards and safe to share,
    apart from the rows of its structure constants, which are filled in on
    first use (_bracket_row) and are the same whichever caller builds them.
    """

    def __init__(self, family, rank_r, *, form_scale=ONE):
        family = family.upper()
        if family not in _FAMILIES:
            raise UnsupportedAlgebraError(f"unknown family {family!r}")
        prefix, least_rank, _, (c, d) = _FAMILIES[family]
        if rank_r < least_rank:
            raise UnsupportedAlgebraError(f"{family}_r needs r >= {least_rank}")
        self.form_scale = as_rat(form_scale)
        if self.form_scale == 0:
            raise ContractError("form_scale must be nonzero")
        n = _matrix_size(family, rank_r)
        self.family = family
        self.rank_r = rank_r
        self.matrix_size_N = n
        self.name = f"{prefix}({n})"
        self.simple = (family, rank_r) != ("D", 2)  # D_2 = so(4) is semisimple, not simple
        self.form = _form_matrix(family, n)
        self.killing_ratio = Rat(c * n + d)
        # tr(x^k) for k = 2..N on sl(N); on so/sp the odd powers are
        # traceless, and on so(2r) the Pfaffian, of degree r, replaces tr(x^2r)
        pairs = [(k, "trace") for k in range(2, n + 1, 1 if self.form is None else 2)]
        if family == "D":
            pairs[-1] = (rank_r, "pfaffian")
            pairs.sort(key=lambda dk: (dk[0], dk[1] != "trace"))
        # the InvariantGenerator of each degree, in order (see invariants.generators)
        self._generators = tuple(
            InvariantGenerator(i + 1, k, k - 1, kind) for i, (k, kind) in enumerate(pairs)
        )
        self.generator_degrees = tuple(g.degree for g in self._generators)
        self.generator_kinds = tuple(g.kind for g in self._generators)
        self.exponents = tuple(g.exponent for g in self._generators)
        self.distinct_exponents = len(set(self.exponents)) == rank_r
        basis = _sl_basis(n) if self.form is None else _form_basis(self.form)
        self.dim = len(basis)
        # Each basis matrix is its nonzero integer entries (i, j, value) in
        # row-major order.
        self._basis_sparse = basis
        self._upper_indices = tuple(
            k for k, entries in enumerate(basis) if all(i < j for i, j, _ in entries)
        )
        self._init_coordinatizer()

    def _init_coordinatizer(self):
        # The basis is its own echelon form: each basis matrix lists its
        # entries row-major, and its first entry, its pivot p_k, is 1 at a
        # position where no earlier basis matrix starts.  The pivot block is
        # then unit lower triangular, so the coordinates of a matrix are read
        # by forward substitution: in ascending position, C_k is what is left
        # at p_k once every earlier C_k' b_k' is subtracted.
        # _coords_of_entries runs it on a matrix's nonzero entries, finding
        # each basis matrix by its pivot in _pivot_terms: position i N + j ->
        # (k, the later entries of b_k as (position, value)).  The rows of
        # the structure constants (_rows) start empty; see _bracket_row.
        n = self.matrix_size_N
        self._full = None
        self._rows = [None] * self.dim
        self._by_index = None
        self._pivot_terms = {}
        last = -1
        for k, entries in enumerate(self._basis_sparse):
            positions = [i * n + j for i, j, _ in entries]
            if entries[0][2] != 1 or positions[0] <= last or positions != sorted(set(positions)):
                raise ContractError("basis matrices are not in unit echelon form")
            last = positions[0]
            tail = tuple((q, v) for q, (_, _, v) in zip(positions[1:], entries[1:]))
            self._pivot_terms[last] = (k, tail)

    def coords_of_rows(self, rows, den=1, num=1) -> "Element":
        """The element num C / den in lowest terms, for integer rows and
        integers num, den != 0, where C is the entry read-off
        (_coords_of_entries) of the rows' nonzero entries; a matrix outside
        the span raises ContractError."""
        n = self.matrix_size_N
        coords = self._coords_of_entries(
            {i * n + j: v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
        )
        if coords is None:
            raise ContractError("matrix does not lie in the algebra")
        vec = [0] * self.dim
        for k, c in coords.items():
            vec[k] = c * num
        return _element(self, vec, den)

    def _coords_of_entries(self, entries):
        """The nonzero integer coordinates {k: C_k}, in ascending k, of the
        integer N x N matrix with these nonzero entries {i N + j: value}, or
        None if the matrix does not lie in the algebra: the forward
        substitution of _init_coordinatizer, on the nonzero entries alone.

        The given positions are walked in ascending order.  Subtracting
        C_k b_k at the pivot p_k changes only later positions, and each one
        it fills in, absent from the entries, joins a heap that is merged
        into the walk, so a position is final when it is reached: at a pivot
        it is the coordinate, anywhere else it must be zero.  A dense matrix
        has no fill-in and makes no heap operation.  A matrix of one or two
        entries that is c b_k, as most commutators of two basis matrices
        are, is read without the walk.
        """
        pivot_terms = self._pivot_terms
        if 0 < len(entries) < 3:
            p = min(entries)
            hit = pivot_terms.get(p)
            if hit is None:
                return None
            k, tail = hit
            c = entries[p]
            if len(tail) == len(entries) - 1 and (
                not tail or entries.get(tail[0][0]) == c * tail[0][1]
            ):
                return {k: c}
        rest = dict(entries)
        end = self.matrix_size_N**2  # past every position
        order = sorted(rest)
        order.append(end)
        heap, coords, i = [], {}, 0
        while True:
            if heap and heap[0] < order[i]:
                p = heapq.heappop(heap)
            else:
                p = order[i]
                if p == end:
                    return coords
                i += 1
            c = rest[p]
            if not c:
                continue
            hit = pivot_terms.get(p)
            if hit is None:
                return None
            k, tail = hit
            coords[k] = c
            for q, b in tail:
                if q in rest:
                    rest[q] -= c * b
                else:
                    rest[q] = -c * b
                    heapq.heappush(heap, q)

    def _bracket_row(self, i):
        """Row i of the integer structure constants, {j: ((k, c_ijk), ...)}
        with [b_i, b_j] = sum_k c_ijk b_k, over the j with a nonzero
        commutator, k ascending; built on first use and kept in _rows.

        Only a b_j that shares a matrix index with b_i can fail to commute
        with it, so one walk over the entries (a, t) of b_i, through the
        basis entries by row and by column, gives every nonzero commutator
        of row i.  Each is read back to g once per basis pair: a row j
        already built gives c_ijk = -c_jik, any other commutator goes through
        the entry read-off, and one outside g raises ContractError.
        """
        n = self.matrix_size_N
        if self._by_index is None:
            by_row, by_col = [[] for _ in range(n)], [[] for _ in range(n)]
            for j, entries in enumerate(self._basis_sparse):
                for r, c, w in entries:
                    by_row[r].append((j, r * n + c, w))
                    by_col[c].append((j, r * n + c, w))
            self._by_index = by_row, by_col
        by_row, by_col = self._by_index
        rows = self._rows
        products, built = {}, set()
        for a, t, v in self._basis_sparse[i]:
            # b_i b_j at (a, c) for b_j at (t, c); -b_j b_i at (r, t) for b_j at (r, a)
            for partners, shift, f in ((by_row[t], (a - t) * n, v), (by_col[a], t - a, -v)):
                for j, p, w in partners:
                    if rows[j] is not None:
                        built.add(j)
                        continue
                    entries, q = products.get(j), p + shift
                    if entries is None:
                        products[j] = {q: f * w}
                    else:
                        entries[q] = entries.get(q, 0) + f * w
        row = {}
        for j in built:
            terms = rows[j].get(i)
            if terms:
                row[j] = tuple([(k, -c) for k, c in terms])
        for j, entries in products.items():
            entries = {q: v for q, v in entries.items() if v}
            if entries:
                coords = self._coords_of_entries(entries)
                if coords is None:
                    raise ContractError("commutator of basis matrices does not lie in the algebra")
                row[j] = tuple(coords.items())
        rows[i] = row
        return row

    def element(self, coords) -> "Element":
        return Element(self, coords)

    def zero(self) -> "Element":
        return _element(self, [0] * self.dim, 1)

    def basis_element(self, k) -> "Element":
        num = [0] * self.dim
        num[k] = 1
        return _element(self, num, 1)

    def from_matrix(self, rows) -> "Element":
        """The element with these N x N matrix rows (ShapeError unless the
        matrix is N x N; ContractError if it does not lie in the algebra or
        an entry is a float)."""
        n = self.matrix_size_N
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ShapeError("matrix size does not match the realization")
        int_rows, den = _clear_denominators([[as_rat(v) for v in r] for r in rows])
        return self.coords_of_rows(int_rows, den)

    def full_space(self) -> "Subspace":
        """All of g as a Subspace (unit rows, every coordinate a pivot),
        built once, on first call."""
        if self._full is None:
            unit = [[int(q == k) for q in range(self.dim)] for k in range(self.dim)]
            self._full = Subspace(self, unit, range(self.dim))
        return self._full

    def random_element(self, rng, bound: int = 3) -> "Element":
        return _element(self, [rng.randint(-bound, bound) for _ in range(self.dim)], 1)

    def random_upper_nilpotent(self, rng, bound: int = 2) -> "Element":
        """Random combination of the strictly-upper-triangular basis matrices
        (ad-nilpotent by construction).  A zero draw is redrawn, up to 8
        draws in all; if all 8 are zero, the zero element is returned."""
        for _ in range(8):
            num = [0] * self.dim
            for k in self._upper_indices:
                num[k] = rng.randint(-bound, bound)
            el = _element(self, num, 1)
            if not el.is_zero():
                return el
        return el

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
            "killing_to_trace_ratio": str(self.killing_ratio),
            "form_scale": str(self.form_scale),
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


def _sparse_rows(num, basis):
    """sum_k num_k b_k, for integers num_k and basis matrices b_k given as
    entries (i, j, v), as sparse rows, the form trace_form and the matrix
    products read: {i: [(j, value), ...]} over the nonzero entries, by row."""
    rows = {}
    for c, entries in zip(num, basis):
        if c:
            for i, j, v in entries:
                row = rows.get(i)
                if row is None:
                    rows[i] = {j: c * v}
                else:
                    row[j] = row.get(j, 0) + c * v
    return {i: [(j, v) for j, v in row.items() if v] for i, row in rows.items()}


def _product_rows(a, b):
    """ab as sparse rows (see _sparse_rows), for integer matrices a and b
    given as sparse rows; only nonzero entries are multiplied."""
    out = {}
    for i, ai in a.items():
        line = {}
        for t, v in ai:
            for c, w in b.get(t, ()):
                line[c] = line.get(c, 0) + v * w
        line = [(c, v) for c, v in line.items() if v]
        if line:
            out[i] = line
    return out


def _clear_denominators(rows):
    """(R, d) with integer rows R and the least positive d such that the
    rational rows equal R / d."""
    den = math.lcm(*(v.denominator for row in rows for v in row if v))
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


class Element:
    """A vector of the algebra: integer numerators num over one positive
    denominator den, in lowest terms (gcd(den, *num) = 1; den = 1 for the
    zero vector), so equal elements have equal num and den.

    den is the least common denominator of the coordinates.  Arithmetic,
    comparison and hashing run on these integers; coords, a tuple of Rat,
    is built only when first read.  The N x N matrix is likewise built once,
    when first needed, in integer-scaled form (see int_rows), and so are its
    sparse rows (_sparse_form), which trace_form and the sparse products
    (_product_rows) read.  A membership check and a bracket read neither:
    they work on num (see Subspace._reduce and bracket).
    """

    __slots__ = ("algebra", "num", "den", "_coords", "_int", "_sparse")

    def __init__(self, algebra: AlgebraRealization, coords):
        """Coordinates may be ints, Rats or strings such as "-3/4"; a float
        raises ContractError."""
        coords = [as_rat(c) for c in coords]
        if len(coords) != algebra.dim:
            raise ContractError("coordinate length does not match the algebra dimension")
        # every c is reduced, so their lcm leaves gcd(den, *num) = 1
        den = math.lcm(*(c.denominator for c in coords))
        self.algebra = algebra
        self.num = tuple([c.numerator * (den // c.denominator) for c in coords])
        self.den = den
        self._coords = None
        self._int = None
        self._sparse = None

    @property
    def coords(self):
        """The coordinates as a tuple of Rat (ZERO for the zeros), built
        once, on first read."""
        if self._coords is None:
            den = self.den
            self._coords = tuple([Rat(v, den) if v else ZERO for v in self.num])
        return self._coords

    def int_rows(self):
        """(R, d): integer rows R and a positive integer d with x = R / d,
        d the least common denominator of the coordinates.  R is the cached
        matrix itself and must not be changed."""
        if self._int is None:
            rows = _zero_int_rows(self.algebra.matrix_size_N)
            for c, entries in zip(self.num, self.algebra._basis_sparse):
                if c:
                    for i, j, v in entries:
                        rows[i][j] += c * v
            self._int = (rows, self.den)
        return self._int

    def _sparse_form(self):
        """R (see int_rows) as sparse rows (see _sparse_rows), what every
        matrix product reads; built once, on first use, and not to be
        changed."""
        if self._sparse is None:
            self._sparse = _sparse_rows(self.num, self.algebra._basis_sparse)
        return self._sparse

    def matrix_rows(self):
        """The N x N matrix as fresh row lists of rationals."""
        rows, den = self.int_rows()
        return [[Rat(v, den) for v in row] for row in rows]

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_nilpotent(self) -> bool:
        """Whether the walk of the matrix's powers (_power_walk) stops before R^N."""
        return len(_power_walk(self)) <= self.algebra.matrix_size_N

    def __add__(self, other: "Element") -> "Element":
        return _sum(self, other, 1)

    def __sub__(self, other: "Element") -> "Element":
        return _sum(self, other, -1)

    def __neg__(self) -> "Element":
        return _element(self.algebra, [-v for v in self.num], self.den)

    def scale(self, c) -> "Element":
        if type(c) is int:
            p, q = c, 1
        else:
            c = as_rat(c)
            p, q = c.numerator, c.denominator
        return _element(self.algebra, [p * v for v in self.num], self.den * q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.den, self.num))

    def __repr__(self) -> str:
        return f"Element({self.algebra.name}, [{', '.join(str(c) for c in self.coords)}])"


def _element(algebra, num, den):
    """The element num / den, for integers num and an integer den != 0,
    brought to lowest terms with a positive denominator."""
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = [v // g for v in num]
        den //= g
    x = Element.__new__(Element)
    x.algebra = algebra
    x.num = tuple(num)
    x.den = den
    x._coords = None
    x._int = None
    x._sparse = None
    return x


def _sum(x, y, sign):
    """x + sign * y for sign = +-1."""
    _same_algebra(x, y)
    den = math.lcm(x.den, y.den)
    fx, fy = den // x.den, sign * (den // y.den)
    return _element(x.algebra, [a * fx + b * fy for a, b in zip(x.num, y.num)], den)


def _same_algebra(x, y):
    if x.algebra is not y.algebra:
        raise ContractError("elements belong to different algebra realizations")


def bracket(x: Element, y: Element) -> Element:
    """Lie bracket [x, y] = xy - yx, in basis coordinates: for x = X / dx
    and y = Y / dy with integer numerators X and Y, the coordinate k is
    sum_ij X_i Y_j c_ijk / (dx dy), summed over the rows of the structure
    constants of x's nonzero coordinates (AlgebraRealization._bracket_row)
    with no matrix and no read-off."""
    _same_algebra(x, y)
    alg = x.algebra
    rows = alg._rows
    b = y.num
    num = [0] * alg.dim
    for i, ai in _nonzero(x.num).items():
        row = rows[i]
        if row is None:
            row = alg._bracket_row(i)
        for j, terms in row.items():
            bj = b[j]
            if bj:
                f = ai * bj
                for k, c in terms:
                    num[k] += f * c
    return _element(alg, num, x.den * y.den)


def _bracket_coords(alg, a, b):
    """The nonzero integer coordinates {k: value}, k ascending, of the
    bracket sum_ij A_i B_j [b_i, b_j] of integer coordinate vectors A and
    B, given as their nonzero entries a = {i: A_i} and b = {j: B_j}: the
    sum of bracket for the sparse vectors of a bracket table.  Each row of
    a's nonzero coordinates meets b by the shorter walk, over the row's
    partners j or over b's nonzero j."""
    acc = {}
    get = acc.get
    rows = alg._rows
    size = len(b)
    for i, ai in a.items():
        row = rows[i]
        if row is None:
            row = alg._bracket_row(i)
        if size < len(row):
            for j, bj in b.items():
                terms = row.get(j)
                if terms:
                    f = ai * bj
                    for k, c in terms:
                        acc[k] = get(k, 0) + f * c
        else:
            for j, terms in row.items():
                bj = b.get(j)
                if bj:
                    f = ai * bj
                    for k, c in terms:
                        acc[k] = get(k, 0) + f * c
    return {k: acc[k] for k in sorted(acc) if acc[k]} if acc else acc


def trace_form(x: Element, y: Element):
    """Invariant pairing tr(xy), times the realization's form_scale."""
    _same_algebra(x, y)
    n = x.algebra.matrix_size_N
    b = {t * n + j: w for t, row in y._sparse_form().items() for j, w in row}
    acc = 0
    for i, ai in x._sparse_form().items():
        for t, v in ai:
            acc += v * b.get(t * n + i, 0)
    return Rat(acc, x.den * y.den) * x.algebra.form_scale


@functools.lru_cache(maxsize=1)
def _ad_columns(x: Element):
    """The integer columns C_k, as their nonzero entries {q: value} in
    ascending q, with [x, basis_k] = C_k / dx for x = X / dx:
    C_k[q] = sum_i X_i c_ikq over the rows of the structure constants of
    x's nonzero coordinates.  One entry is cached: an orbit reads ad(e)
    once."""
    alg = x.algebra
    rows = alg._rows
    columns = [{} for _ in range(alg.dim)]
    for i, xi in _nonzero(x.num).items():
        row = rows[i]
        if row is None:
            row = alg._bracket_row(i)
        for j, terms in row.items():
            col = columns[j]
            for k, c in terms:
                col[k] = col.get(k, 0) + xi * c
    return tuple({q: col[q] for q in sorted(col) if col[q]} for col in columns)


def _nonzero(vec):
    """The nonzero entries {q: value} of a vector, in ascending q."""
    return dict(compress(enumerate(vec), vec))


def ad_matrix(x: Element):
    """Rows of the matrix of ad(x): column k holds the coordinates of
    [x, basis_k], as Rat; the tests' reference for _ad_columns."""
    columns = _ad_columns(x)
    return [
        [Rat(col[q], x.den) if q in col else ZERO for col in columns]
        for q in range(x.algebra.dim)
    ]


class Subspace:
    """A subspace of the algebra, stored as its reduced row echelon basis.

    The basis is kept as primitive integer rows I_r (num_rows), each
    positive at its pivot c_r, as linalg.echelon_rows and echelon_kernel
    leave them: the reduced echelon row is R_r = I_r / I_r[c_r], so equal
    subspaces have equal rows.  Basis vector r is the element with
    numerators I_r over I_r[c_r], read straight off the row.  Because the
    rows are reduced, a vector v lies in the span exactly when
    v = sum_r v[c_r] R_r, and then its coordinates are the v[c_r].

    A subspace works in coordinates on g alone: every membership check is
    the one integer reduction _reduce of a coordinate vector, as its
    nonzero entries, modulo the rows.  contains and coords_of reduce an
    element's numerators, _bracket_rows the columns of ad(x), and the
    bracket table the coordinates of the brackets of basis vectors, summed
    over the structure constants (_bracket_coords).
    """

    __slots__ = ("algebra", "num_rows", "pivots", "_basis", "_int_brackets", "_reduction")

    def __init__(self, algebra: AlgebraRealization, num_rows, pivots):
        """num_rows: the reduced echelon basis as primitive integer rows,
        each positive at its pivot (see linalg.echelon_rows)."""
        self.algebra = algebra
        self.num_rows = tuple(tuple(r) for r in num_rows)
        self.pivots = tuple(pivots)
        self._basis = None
        self._int_brackets = None
        self._reduction = None

    @classmethod
    def from_coord_rows(cls, algebra, rows) -> "Subspace":
        pivots, num_rows = echelon_rows(rows, algebra.dim)
        return cls(algebra, num_rows, pivots)

    @classmethod
    def from_elements(cls, algebra, elements) -> "Subspace":
        """The span of elements of algebra; an element of another
        realization raises ContractError."""
        elements = list(elements)
        if any(e.algebra is not algebra for e in elements):
            raise ContractError("elements belong to different algebra realizations")
        # a positive multiple of a row has the same echelon form
        return cls.from_coord_rows(algebra, [e.num for e in elements])

    @property
    def dim(self) -> int:
        return len(self.num_rows)

    @property
    def basis(self):
        if self._basis is None:
            self._basis = [
                _element(self.algebra, row, row[c]) for row, c in zip(self.num_rows, self.pivots)
            ]
        return self._basis

    def contains(self, element: Element) -> bool:
        """Whether element lies in the span: whether _reduce leaves no
        remainder of its numerators.  An element of another realization
        raises ContractError."""
        _same_algebra(element, self)
        return not self._reduce(_nonzero(element.num))[1]

    def coords_of(self, element: Element):
        """Coefficients of element in this basis, or None if not a member
        (see contains): for a member, its coordinates at the pivots, the G
        of _reduce over the element's denominator."""
        _same_algebra(element, self)
        g, rest = self._reduce(_nonzero(element.num))
        if rest:
            return None
        out = [ZERO] * self.dim
        for t, v in g:
            out[t] = Rat(v, element.den)
        return tuple(out)

    def same_space(self, other: "Subspace") -> bool:
        """Whether the spans are equal, that is their reduced echelon rows;
        a subspace of another realization raises ContractError."""
        _same_algebra(self, other)
        return self.num_rows == other.num_rows

    def _reduce(self, coords):
        """(G, rest) for an integer coordinate vector C on g, given as its
        nonzero entries {q: C_q} in ascending q: G, the nonzero pairs
        (t, C[c_t]) of the entry of C at the pivot of row t, in ascending t,
        and the remainder rest = Dz C - sum_t C[c_t] (Dz / I_t[c_t]) I_t, as
        its nonzero entries {q: value}, with Dz the lcm of the pivot
        entries I_t[c_t].

        Since the rows are reduced, rest is empty exactly when C lies in s,
        and then C = sum_t C[c_t] R_t.  Only the rows whose pivot C holds
        are subtracted.  Dz and, by pivot, the row index t and the nonzero
        entries of the scaled row (Dz / I_t[c_t]) I_t are built once per
        subspace.
        """
        if self._reduction is None:
            dz = math.lcm(*(row[c] for row, c in zip(self.num_rows, self.pivots)))
            self._reduction = dz, {
                c: (t, tuple((q, (dz // row[c]) * v) for q, v in enumerate(row) if v))
                for t, (row, c) in enumerate(zip(self.num_rows, self.pivots))
            }
        dz, by_pivot = self._reduction
        rest = {q: dz * v for q, v in coords.items()} if dz != 1 else dict(coords)
        g = []
        for c, gt in coords.items():
            hit = by_pivot.get(c)
            if hit is not None:
                t, row = hit
                g.append((t, gt))
                for q, v in row:
                    rest[q] = rest.get(q, 0) - gt * v
        if g:
            rest = {q: v for q, v in rest.items() if v}
        return g, rest

    def _brackets(self):
        """The nonzero pairs (t, G_t) of _reduce for [I_a, I_b], the
        bracket of the integer rows of basis vectors a < b, as
        table[a][b - a - 1]: G_t is the coordinate t of [I_a, I_b],
        I_a = I_a[c_a] b_a the integer row of basis vector a.

        Each unordered pair is bracketed once, as a bilinear sum over the
        structure constants (_bracket_coords), and the table is kept, so the
        center and the normalizer's closure check share it.  A zero
        commutator has no coordinates; any other is reduced modulo s, and a
        remainder raises ContractError, so building the table checks that s
        is a subalgebra.
        """
        if self._int_brackets is None:
            alg = self.algebra
            vectors = [_nonzero(row) for row in self.num_rows]
            table = []
            for a, x in enumerate(vectors):
                line = []
                for y in vectors[a + 1 :]:
                    coords = _bracket_coords(alg, x, y)
                    if not coords:
                        line.append(())
                        continue
                    g, rest = self._reduce(coords)
                    if rest:
                        raise ContractError("subspace is not closed under the bracket")
                    line.append(tuple(g))
                table.append(line)
            self._int_brackets = table
        return self._int_brackets

    def __repr__(self) -> str:
        return f"Subspace({self.algebra.name}, dim={self.dim})"


def _bracket_rows(x: Element, t: Subspace):
    """The nonzero integer rows of y -> [x, y] mod t, as their nonzero
    entries {k: value} in ascending k: column k is the remainder of
    t._reduce on C_k, the integer column of ad(x) summed over the
    structure constants (_ad_columns), that is
    D_t C_k - sum_r C_k[c_r] (D_t / I_r[c_r]) I_r with D_t the lcm of t's
    pivot entries.  Every column is at the one scale D_t dx, so the rows
    have the kernel of the map (a scale per column would not)."""
    rows = {}
    for k, col in enumerate(_ad_columns(x)):
        for q, v in t._reduce(col)[1].items():
            row = rows.get(q)
            if row is None:
                rows[q] = {k: v}
            else:
                row[k] = v
    return list(rows.values())


def preimage(x: Element, t: Subspace) -> Subspace:
    """{y : [x, y] in t}, from one echelon kernel of _bracket_rows(x, t).
    x and t from different realizations raise ContractError."""
    _same_algebra(x, t)
    pivots, rows = echelon_kernel(_bracket_rows(x, t), x.algebra.dim)
    return Subspace(x.algebra, rows, pivots)


def centralizer(x: Element) -> Subspace:
    """z(x) = {y : [x, y] = 0}, the preimage of the zero subspace."""
    return preimage(x, Subspace(x.algebra, (), ()))


def center_of(s: Subspace) -> Subspace:
    """{c in s : [c, u] = 0 for every basis vector u of s}.

    s must be closed under the bracket (checked; ContractError otherwise).
    The brackets come from the integer table of s, one per unordered pair of
    basis vectors, already at the pivots of s.  With I_a the integer row of
    basis vector a, c = sum_a w_a I_a is central exactly when w lies in the
    kernel of the integer k^2 x k matrix with entry G_t([I_a, I_u]) in row
    (u, t), column a; only its nonzero rows are built, and each distinct
    one, up to a scalar, is eliminated once.  The echelon kernel W of that
    matrix gives the center's echelon basis directly: sum_a W_a I_a
    is W_a I_a[c_a] at each pivot c_a of s and zero left of c_f, f the first
    nonzero of W, so the rows stay reduced and echelon and their pivots are
    the c_f of the pivots f of W.
    """
    rows = {}  # (u, t) -> {a: entry}, filled in ascending a
    for a, line in enumerate(s._brackets()):
        for b, terms in enumerate(line, start=a + 1):
            for t, g in terms:  # G_t [I_a, I_b] = g and G_t [I_b, I_a] = -g
                rows.setdefault((b, t), {})[a] = g
                rows.setdefault((a, t), {})[b] = -g
    free, kernel = _central_kernel(rows, s.dim)
    # the rows sum_a W_a I_a, each divided by its content
    combined = _int_rows(mat_mul(kernel, s.num_rows), s.algebra.dim)
    return Subspace(s.algebra, combined, [s.pivots[f] for f in free])


def _central_kernel(rows, k):
    """echelon_kernel of the rows {(u, t): {a: entry}} of a bracket table
    over k basis vectors.  Most rows repeat up to a scalar, so each
    distinct row, divided by its content and signed positive at its first
    entry, is eliminated once: the row space, so the kernel, is the same."""
    distinct = {}
    for row in rows.values():
        g = math.gcd(*row.values())
        if row[next(iter(row))] < 0:
            g = -g
        if g != 1:
            row = {a: v // g for a, v in row.items()}
        distinct[tuple(row.items())] = row
    return echelon_kernel(list(distinct.values()), k)


def normalizer_of(s: Subspace) -> Subspace:
    """{y : [u, y] in s for every basis vector u of s}, by its definition: one
    echelon kernel of the _bracket_rows(u, s) stacked over the u.  s must be
    a subalgebra (checked through its bracket table; ContractError
    otherwise).  The pipeline takes the normalizer of z(e) as z + [f, delta]
    instead (nilab.index._normalizer), which the tests hold to
    preimage(e, center_of(z))."""
    s._brackets()  # closure check
    rows = [row for u in s.basis for row in _bracket_rows(u, s)]
    pivots, kernel = echelon_kernel(rows, s.algebra.dim)
    return Subspace(s.algebra, kernel, pivots)


def _weights(h: Element):
    """The ad(h)-weight of each basis vector, for a diagonal h: basis
    vector k is a weight vector of ad(h), and if its first nonzero entry
    is at (i, j) its weight is h_ii - h_jj (the mirrored so/sp entry has
    the same weight because h lies in g).  So [h, x] only scales each
    coordinate of x by its weight.  A non-diagonal h raises GraduationError.
    """
    rows, den = h.int_rows()
    if any(v for i, row in enumerate(rows) for j, v in enumerate(row) if i != j):
        raise GraduationError("h is not diagonal")
    return [
        Rat(rows[i][i] - rows[j][j], den)
        for i, j, _ in (entries[0] for entries in h.algebra._basis_sparse)
    ]


def h_graduation(h: Element, s: Subspace):
    """Weight-space decomposition of s under ad(h), for a diagonal h.

    Every basis vector is a weight vector of ad(h), with the weight
    _weights reads off its first nonzero entry.  So s is ad(h)-stable
    exactly when each echelon row of s is a weight vector, and the rows of
    one weight, with their pivots, are the echelon basis of that piece.
    Pieces come back sorted by ascending weight and their dimensions sum to
    dim s.

    h must be diagonal, as every h of a triple built here is; a non-diagonal
    h or an unstable s raises GraduationError, and an h from another
    realization raises ContractError.
    """
    _same_algebra(h, s)
    weights = _weights(h)
    pieces = {}
    for row, pivot in zip(s.num_rows, s.pivots):
        mu = weights[pivot]
        if any(c and weights[q] != mu for q, c in enumerate(row)):
            raise GraduationError("subspace is not stable under ad(h)")
        pieces.setdefault(mu, []).append((row, pivot))
    return [(mu, Subspace(s.algebra, *zip(*pieces[mu]))) for mu in sorted(pieces)]


def unipotent_conjugate(n: Element, x: Element) -> Element:
    """Ad(exp n) x = exp(n) x exp(-n), for a nilpotent n.

    With exp(+-n) = E+- / D (see _exp_pair), the product E+ X E- of integer
    rows is read back once over D^2 dx, which also checks that it lies in g.
    A non-nilpotent n, or n and x from different realizations, raises
    ContractError.
    """
    _same_algebra(n, x)
    plus, minus, big = _exp_pair(n)
    xr, dx = x.int_rows()
    rows = mat_mul(mat_mul(plus, xr), minus)
    return x.algebra.coords_of_rows(rows, big * big * dx)


@functools.lru_cache(maxsize=1)
def _exp_pair(n: Element):
    """(E+, E-, D) with exp(+-n) = E+- / D: for n = R / d and R^(K+1) = 0,
    D = d^K K! and E+- = sum_k (+-1)^k R^k D / (d^k k!) over _power_walk(n).
    One entry is cached, so a verify sample's moved point and the conjugate
    of every P_j(x) share one pair; a non-nilpotent n raises ContractError
    on every call, since exceptions are not cached."""
    walk = _power_walk(n)
    size = n.algebra.matrix_size_N
    if len(walk) > size:
        raise ContractError("element is not nilpotent")
    d, top = n.den, len(walk) - 1
    big = d**top * math.factorial(top)
    plus = [[big if i == j else 0 for j in range(size)] for i in range(size)]
    minus = [row[:] for row in plus]
    for k in range(1, len(walk)):
        c = big // (d**k * math.factorial(k))
        for i, line in walk[k].items():
            for j, v in line:
                plus[i][j] += c * v
                minus[i][j] += (-c if k % 2 else c) * v
    return plus, minus, big


@functools.lru_cache(maxsize=1)
def _power_walk(x: Element):
    """[None, R, ..., R^K]: the powers of the integer rows of x = R / d as
    sparse rows, up to the last nonzero one (zero past the end), or up to
    R^N if x is not nilpotent.  The Jordan-type check, an orbit's P_j(e), y_j
    and audit derivatives, is_nilpotent and exp(+-n) all read it; one entry
    is cached, and the list is not to be changed."""
    size = x.algebra.matrix_size_N
    walk = [None]
    # built afresh, not cached on x: every verify sample keeps its n alive
    power = _sparse_rows(x.num, x.algebra._basis_sparse)
    while power:
        walk.append(power)
        if len(walk) > size:
            break
        power = _product_rows(walk[1], power)
    return walk
