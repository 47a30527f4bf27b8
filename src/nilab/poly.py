"""Sparse multivariate polynomials over the rationals.

A polynomial is a mapping {exponent tuple -> nonzero coefficient} over an
ordered variable list; the zero polynomial is the empty mapping.  This is
just enough polynomial algebra for the symbolic side of the bracket-matrix
analysis: one fraction-free (Bareiss) elimination that scans pivot columns
right to left and yields both the generic rank over the rational function
field and, for a square matrix, the exact determinant; the rank carries a
randomized prime-evaluation cross-check.  Both run on Python ints: the
matrix is cleared of its common denominator D once, each entry becomes an
integer term map {exponent tuple -> nonzero int}, and a rational is made
only for the determinant's coefficients, divided by D^s once.
"""

from __future__ import annotations

import random
from math import isqrt, lcm, prod
from operator import add, sub

from ._scalar import ONE, Rat, ZERO, as_rat
from .errors import ContractError, InternalError, ShapeError
from .linalg import echelon_rows
from .reports import ReadOnly

_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229,
)
_LARGE_PRIME_BOUND = 10_000  # pool for more variables than _PRIMES has
_RANK_CHECK_SAMPLES = 3  # prime points that cross-check a generic rank


def _primes_below(bound: int) -> tuple:
    return tuple(p for p in range(2, bound) if all(p % d for d in range(2, isqrt(p) + 1)))


class Poly:
    """Multivariate polynomial with exact rational coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        clean = {}
        nv = len(self.variables)
        for exp, coeff in terms.items():
            if len(exp) != nv:
                raise ShapeError("exponent length does not match variable count")
            coeff = as_rat(coeff)
            if coeff != 0:
                clean[tuple(exp)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, variables) -> "Poly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables, value) -> "Poly":
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def variable(cls, variables, index: int) -> "Poly":
        variables = tuple(variables)
        exp = [0] * len(variables)
        exp[index] = 1
        return cls(variables, {tuple(exp): ONE})

    @classmethod
    def linear(cls, variables, coeffs) -> "Poly":
        """The linear form sum(coeffs[k] * x_k)."""
        variables = tuple(variables)
        terms = {}
        for k, c in enumerate(coeffs):
            c = as_rat(c)
            if c:
                exp = [0] * len(variables)
                exp[k] = 1
                terms[tuple(exp)] = c
        return cls(variables, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_linear_form(self) -> bool:
        """True when every monomial has total degree exactly 1 (or zero poly)."""
        return all(sum(exp) == 1 for exp in self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def _check_same_vars(self, other: "Poly"):
        if self.variables != other.variables:
            raise ContractError("polynomials over different variable lists")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same_vars(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, ZERO) + c
        return Poly(self.variables, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_same_vars(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, ZERO) - c
        return Poly(self.variables, out)

    def __neg__(self) -> "Poly":
        return Poly(self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = as_rat(other)
            return Poly(self.variables, {e: c * v for e, v in self.terms.items()})
        self._check_same_vars(other)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(a + b for a, b in zip(ea, eb))
                out[exp] = out.get(exp, ZERO) + ca * cb
        return Poly(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ContractError("negative polynomial power")
        out = Poly.const(self.variables, 1)
        for _ in range(n):
            out = out * self
        return out

    def eval(self, point):
        """Exact value at a point given as a sequence, one value per variable."""
        if len(point) != len(self.variables):
            raise ShapeError("point length does not match variable count")
        point = [as_rat(v) for v in point]
        total = ZERO
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(point, exp):
                for _ in range(e):
                    term = term * v
            total += term
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), reverse=True)

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.variables, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly({self.text()})"


def _check_rect(entries):
    nrows = len(entries)
    if nrows == 0:
        raise ShapeError("empty matrix")
    ncols = len(entries[0])
    for row in entries:
        if len(row) != ncols:
            raise ShapeError("ragged polynomial matrix")
    variables = entries[0][0].variables
    for row in entries:
        for p in row:
            if p.variables != variables:
                raise ContractError("matrix entries over different variable lists")
    return nrows, ncols, variables


def _cleared(entries):
    """(D, rows): D the least common denominator of every coefficient of
    the matrix, and each entry times D as an integer term map."""
    den = lcm(*(c.denominator for row in entries for p in row for c in p.terms.values()))
    return den, [
        [{e: c.numerator * (den // c.denominator) for e, c in p.terms.items()} for p in row]
        for row in entries
    ]


def _mul(a, b):
    """Product of two integer term maps."""
    out = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _sub(a, b):
    """Difference a - b of two integer term maps."""
    out = dict(a)
    get = out.get
    for e, c in b.items():
        out[e] = get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def _quo(a, b):
    """Exact quotient a / b of integer term maps, b nonzero, by lex division
    on the leading term of b.  The fraction-free elimination only divides
    where the quotient is a minor of an integer matrix, so a coefficient
    that does not divide or a negative exponent means a bug and raises
    InternalError."""
    lead = max(b)
    top = b[lead]
    rem = dict(a)
    out = {}
    while rem:
        e = max(rem)
        q = tuple(map(sub, e, lead))
        c, r = divmod(rem[e], top)
        if r or any(v < 0 for v in q):
            raise InternalError("polynomial division was not exact")
        out[q] = c
        for eb, cb in b.items():
            m = tuple(map(add, q, eb))
            v = rem.get(m, 0) - c * cb
            if v:
                rem[m] = v
            else:
                del rem[m]
    return out


def _eliminate(den, a, variables):
    """Rank and, for a square matrix, determinant by one fraction-free
    (Bareiss) elimination over the polynomial ring.

    a is the matrix cleared of its common denominator D (_cleared), as
    integer term maps over variables; it is eliminated in place.  Pivot
    columns are scanned right to left, and the pivot p_k of step k is the
    first remaining row with a nonzero entry there.  Bareiss's step takes
    each row below to (p_k row - f pivot row) / p_(k-1), f its entry in the
    pivot column, p_0 = 1; after k steps every remaining entry is a
    (k+1)-minor of the cleared matrix (Sylvester's identity).  A row with
    f = 0 would only be scaled by p_k / p_(k-1), so it is left as it is and
    keeps the index k' of the last pivot it was brought to: at step k it
    stands for itself times p_(k-1) / p_k'.  With f != 0 it takes the step
    divided by p_k' instead of p_(k-1), the factors cancelling; becoming
    the pivot row, each entry is multiplied by p_(k-1) and divided by p_k'.
    Either way the result is a minor, so each division is exact in Z[t]
    (_quo).  A row swap carries the index with it; zero entries stay zero,
    so the pivots are those of the eager elimination.  A column with no
    pivot is zero below the pivot rows and is skipped.  A square matrix has
    full rank exactly when every column yields a pivot, and then the last
    pivot is the determinant of the column-reversed cleared matrix up to
    the sign of the row swaps; reversing s columns contributes
    (-1)^(s(s-1)/2), and the determinant of the input is that over D^s.
    This holds for any matrix; on a pseudo-triangular one (zero below the
    antidiagonal) no row swap happens and no row below a pivot is touched:
    each pivot row is only brought up to date, by one product per entry.

    Returns (rank, det), with det None when the matrix is not square.
    """
    nrows, ncols = len(a), len(a[0])
    sign = 1
    pivots = [None]  # pivots[k] = p_k; None stands for p_0 = 1
    since = [0] * nrows  # row i was last brought to p_since[i]
    r = 0
    for c in range(ncols - 1, -1, -1):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            since[r], since[p] = since[p], since[r]
            sign = -sign
        pivot_row = a[r]
        k = since[r]
        if k != len(pivots) - 1:
            last, stale = pivots[-1], pivots[k]
            for j in range(c + 1):
                if pivot_row[j]:
                    v = _mul(pivot_row[j], last)
                    pivot_row[j] = v if stale is None else _quo(v, stale)
        pivot = pivot_row[c]
        for i in range(r + 1, nrows):
            row = a[i]
            f = row[c]
            if not f:
                continue
            stale = pivots[since[i]]
            for j in range(c):
                num = _sub(_mul(row[j], pivot), _mul(f, pivot_row[j]))
                row[j] = num if stale is None else _quo(num, stale)
            row[c] = {}
            since[i] = len(pivots)
        pivots.append(pivot)
        r += 1
    if nrows != ncols:
        return r, None
    if r < nrows:
        return r, Poly.zero(variables)
    if (nrows * (nrows - 1) // 2) % 2:
        sign = -sign
    scale = den**nrows
    return r, Poly(variables, {e: Rat(sign * v, scale) for e, v in pivots[-1].items()})


def poly_det(entries) -> Poly:
    """Exact determinant of a square matrix of polynomials, from the one
    right-to-left fraction-free elimination that also gives the rank
    (see _eliminate); the tests' reference, as the pipeline reads det A off
    generic_rank_detail."""
    n, ncols, variables = _check_rect(entries)
    if n != ncols:
        raise ShapeError("determinant of a non-square matrix")
    return _eliminate(*_cleared(entries), variables)[1]


class GenericRankResult(ReadOnly):
    """Symbolic generic rank plus the randomized evaluation cross-check."""

    __slots__ = ("rank", "prime_samples", "eval_ranks", "det")

    def __init__(self, rank: int, prime_samples: tuple, eval_ranks: tuple, det: Poly | None):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "prime_samples", prime_samples)  # a tuple of primes per sample
        object.__setattr__(self, "eval_ranks", eval_ranks)
        object.__setattr__(self, "det", det)  # from the same elimination; None unless square


def generic_rank_detail(entries, *, seed: int = 0) -> GenericRankResult:
    """Generic rank of a matrix of homogeneous linear forms.

    Rank is computed symbolically over the polynomial ring by the one
    right-to-left fraction-free elimination (_eliminate), which also yields
    the determinant of a square matrix; the rank is then cross-checked by
    evaluating the variables at _RANK_CHECK_SAMPLES seeded tuples of
    distinct primes and taking the max evaluated rank; disagreement with
    the symbolic result raises InternalError.  The matrix is cleared of its
    denominators once (_cleared): the prime points are evaluated on those
    integer forms, which have the same rank at every point, and then the
    elimination runs on them in place.  The primes are drawn from
    _PRIMES for up to 50 variables and from the primes below
    _LARGE_PRIME_BOUND beyond that.
    """
    nrows, ncols, variables = _check_rect(entries)
    for row in entries:
        for p in row:
            if not p.is_linear_form():
                raise ContractError("generic_rank_detail requires linear-form entries")
    den, forms = _cleared(entries)
    nvars = max(1, len(variables))
    pool = _PRIMES if nvars <= len(_PRIMES) else _primes_below(_LARGE_PRIME_BOUND)
    if nvars > len(pool):
        raise ContractError(f"generic_rank_detail supports at most {len(pool)} variables")
    rng = random.Random(f"generic-rank:{seed}")
    prime_samples = []
    eval_ranks = []
    for _ in range(_RANK_CHECK_SAMPLES):
        primes = tuple(rng.sample(pool, nvars))[: len(variables)]
        values = [
            [sum(c * prod(map(pow, primes, e)) for e, c in form.items()) for form in row]
            for row in forms
        ]
        rank = len(echelon_rows(values, ncols)[0])
        prime_samples.append(primes)
        eval_ranks.append(rank)
    symbolic, det = _eliminate(den, forms, variables)
    if max(eval_ranks) != symbolic:
        raise InternalError(
            f"generic rank cross-check mismatch: symbolic {symbolic}, "
            f"evaluations {eval_ranks}"
        )
    return GenericRankResult(symbolic, tuple(prime_samples), tuple(eval_ranks), det)
