"""Invariant generator functions, their gradient fields, and exact
higher directional derivatives.

A generator is tr(x^d) for the trace-power kind, or the Pfaffian of the
form-twisted matrix S x for the one degree-r generator of the D family.
Its gradient field P is defined against the realization's trace form:
<dp(x), y> = T(P(x), y).  Both kinds are one matrix of the algebra (the
projected power x^(d-1), or the so(2r) element of signed minor Pfaffians
of S x), formed on the element's integer rows, scaled and read through the
one checked read-off; no Gram matrix is formed.  P itself, its first
derivatives, the Taylor terms along a line and the mixed terms in two
directions all come from one closed-form expansion, _line_terms, of
P(x + s y + t u) in s and t.  It packs the integer rows as
M = X + B Y + B^(T+1) U (Kronecker substitution), evaluates the generator's
matrix on M with plain integer products, cut to the low base-B digits it
reads, and reads that packed matrix off g once: the t^a s^b term is a
balanced base-B digit of its coordinates.  B = 2^K with K from a proven
bound on the coefficients and on the read-off's digits (_digit_width).
The trace-kind gradients are prefixes of one power chain M, M^2, ..., so
_line_table reads every generator off one chain per direction.
Interpolation is kept only as the independent oracle: scalar values of p_j
at the points x + t y, t = 0..deg_j, give <dp_j(x), y>, which the pairing
check of verify_field_identities and gradient compare against.  It shares
no code with _line_table: each point is one plain power chain of its
integer rows, read for every generator.

The suite functions at the bottom verify exactly the invariance identities
the fields satisfy: equivariance, Taylor exchange symmetry, the bracket
propagation rule for derivatives, membership of P(x) in the center of the
centralizer, invariance under unipotent adjoint action, and the sl(2)
eigenvector relations attached to a triple.  verify_field_identities runs
sample by sample and reads each line it checks off one packed evaluation
for every generator.
"""

from __future__ import annotations

import math
import random
import warnings
from functools import cached_property
from itertools import chain

from ._scalar import Rat, as_rat
from .algebras import (
    AlgebraRealization,
    Element,
    InvariantGenerator,
    Subspace,
    _element,
    bracket,
    center_of,
    centralizer,
    h_graduation,
    trace_form,
    unipotent_conjugate,
)
from .errors import ContractError, IdentityError, InternalError, NilabError
from .linalg import interpolate_vector_poly, mat_mul
from .reports import CheckReport, ReadOnly
from .triples import Triplet, principal_triplet


def generators(alg: AlgebraRealization):
    """The generators of the invariant polynomials, by ascending degree, as
    a tuple of InvariantGenerator built once per realization."""
    return alg._generators


def _generator(alg: AlgebraRealization, j: int) -> InvariantGenerator:
    if not 1 <= j <= alg.rank_r:
        raise ContractError(f"generator index {j} out of range 1..{alg.rank_r}")
    return generators(alg)[j - 1]


def _pfaffian(rows, idx, memo):
    if not idx:
        return 1
    cached = memo.get(idx)
    if cached is not None:
        return cached
    i0 = idx[0]
    total = 0
    sign = 1
    for k in range(1, len(idx)):
        a = rows[i0][idx[k]]
        if a:
            rest = idx[1:k] + idx[k + 1 :]
            total += sign * a * _pfaffian(rows, rest, memo)
        sign = -sign
    memo[idx] = total
    return total


def pfaffian(rows):
    """Exact Pfaffian of an antisymmetric matrix given as row lists.

    Entries are only added and multiplied: integer rows give an integer."""
    n = len(rows)
    if n % 2:
        return 0
    return _pfaffian(rows, tuple(range(n)), {})


def _values(alg: AlgebraRealization, x: Element, gens):
    """{j: p_j(x)} for the generators gens, given in ascending degree, off
    one power chain of the integer rows R of x = R / d: tr(x^degree) is
    tr(R^(degree-1) R) / d^degree, read as sum_ij P_ij R_ji with no last
    product formed, and Pf(S x) = Pf(S R) / d^(N/2), S x being x with its
    rows reversed (S is the antidiagonal-ones form).  An x of another
    realization raises ContractError."""
    if x.algebra is not alg:
        raise ContractError("element does not belong to the given algebra")
    rows, den = x.int_rows()
    out = {}
    power, k = rows, 1  # power = R^k
    for gen in gens:
        if gen.kind == "trace":
            while k < gen.degree - 1:
                power, k = mat_mul(power, rows), k + 1
            acc = 0
            for i, line in enumerate(power):
                for t, v in enumerate(line):
                    if v:
                        acc += v * rows[t][i]
            out[gen.index_j] = Rat(acc, den**gen.degree)
        else:
            out[gen.index_j] = Rat(pfaffian(rows[::-1]), den ** (alg.matrix_size_N // 2))
    return out


def eval_generator(alg: AlgebraRealization, j: int, x: Element):
    """Value of the j-th generator at x: tr(x^degree), or Pf(S x), where
    S x is x with its rows reversed (S is the antidiagonal-ones form),
    evaluated on the integer rows of x (see _values).  An x of another
    realization raises ContractError.
    """
    return _values(alg, x, (_generator(alg, j),))[j]


def _digit_width(alg: AlgebraRealization, gens, size: int) -> int:
    """K, the bits per digit of the packed evaluation in _line_table, for
    the generators gens on N x N integer matrices X, Y[, U] with
    size = S = |X| + |Y| + |U|, |.| the largest absolute entry.

    An entry of (X + sY + tU)^m is a sum over N^(m-1) index paths of
    products of m entries whose coefficients sum in absolute value to at
    most S, so each of its coefficients is at most N^(m-1) S^m.  An
    order-(N-2) minor Pfaffian is a sum of (N-3)!! products of m = r - 1
    such entries, so its coefficients are at most (N-3)!! S^m.  With beta
    the largest bound, K >= bit_length(beta) + 2 puts every coefficient
    below B/4.  The digits of the read-off's coordinates and residuals,
    those of the digit matrices, must stay below B/2.  On so/sp each is an
    entry, or one entry less +-1 times another, below 2 beta, so
    K = bit_length(beta) + 2 serves.  On sl(N) the trace part is taken
    off as N v - tr: an off-diagonal coordinate is N v, and the one at
    diagonal pivot i, a partial sum of the diagonal, is
    (N - i - 1) S_i - (i + 1) R_i, S_i the sum of the first i + 1 diagonal
    entries and R_i of the others, at most
    2 (i + 1)(N - i - 1) beta <= N^2 beta / 2; the residual is the trace,
    zero.  So sl(N) takes K = bit_length(beta) + bit_length(N^2 - 1), which
    makes B > N^2 beta.
    """
    n = alg.matrix_size_N
    bound = max(
        (n ** (gen.exponent - 1) if gen.kind == "trace" else math.prod(range(n - 3, 0, -2)))
        * size**gen.exponent
        for gen in gens
    )
    return bound.bit_length() + ((n * n - 1).bit_length() if alg.family == "A" else 2)


def _line_table(alg: AlgebraRealization, js, x: Element, y, u, wanted):
    """{j: _line_terms(alg, j, x, y, u, wanted)} for the generators j in js,
    all read off one packed evaluation.

    With X, Y, U the integer rows of x, y, u and T the largest exponent in
    js, the entries of X + sY + tU are packed into single integers
    M = X + B Y + B^(T+1) U, B = 2^K with K from _digit_width (Kronecker
    substitution).  Every generator's matrix then evaluates on M with the
    integer code as it is: the trace kind reads the power M^m off one chain
    M, M^2, ..., M^T shared by all of js, the Pfaffian kind the memoized
    signed minor Pfaffians of S M.  The t^a s^b coefficient of an entry is
    its balanced base-B digit d_i at index i = a (T + 1) + b, |d_i| < B/4.
    Only the L digits up to the highest index wanted are read, so M, each
    power and the Pfaffian's matrix, once they have digits past L, are cut
    to their balanced low part ((v + H) & (B^L - 1)) - H, H = B^L / 2,
    which is sum_{i<L} d_i B^i.  Each generator's matrix is then read off g
    once (_projected_coords).  That is linear, so a coordinate or residual
    is sum_{i<L} C_i B^i, C_i that of digit matrix i, |C_i| < B/2
    (_digit_width): a residual is zero exactly when it is in every digit, so
    a digit matrix outside g raises ContractError, and term (a, b) is digit
    i of the coordinates.  With O = (B/2) sum_{i<L} B^i, the digits of c + O
    are C_i + B/2 in (0, B), so each is ((c + O) >> iK & (B - 1)) - B/2.
    An x, y or u of another realization raises ContractError.
    """
    gens = [_generator(alg, j) for j in js]
    if any(v is not None and v.algebra is not alg for v in (x, y, u)):
        raise ContractError("element does not belong to the given algebra")
    n = alg.matrix_size_N
    forms = [v.int_rows() if v is not None else (None, 1) for v in (x, y, u)]
    (xr, dx), (yr, dy), (ur, du) = forms
    top = max(gen.exponent for gen in gens)
    size = sum(max(map(abs, chain.from_iterable(rows))) for rows, _ in forms if rows is not None)
    width = _digit_width(alg, gens, size)
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    keys = [(a, b, (a * (top + 1) + b) * width) for a, b in wanted]
    digits = 1 + max((shift for a, b, shift in keys if a + b <= top), default=0) // width
    low = (1 << (digits * width)) - 1
    middle = (low + 1) >> 1
    reach = top + 1 if ur is not None else int(yr is not None)  # M's last digit index

    def cut(rows, k):  # rows of degree k in M have no digit past index k reach
        if k * reach < digits:
            return rows
        return [[((v + middle) & low) - middle for v in line] for line in rows]

    packed = xr
    for rows, shift in ((yr, width), (ur, (top + 1) * width)):
        if rows is not None:
            packed = [[a + (b << shift) for a, b in zip(pr, line)] for pr, line in zip(packed, rows)]
    packed = cut(packed, 1)
    offset = half * (low // mask)
    chain_top = max((gen.exponent for gen in gens if gen.kind == "trace"), default=1)
    powers = [None, packed]  # powers[k] = M^k mod B^L
    while len(powers) <= chain_top:
        powers.append(cut(mat_mul(powers[-1], packed), len(powers)))
    table = {}
    for gen in gens:
        m = gen.exponent
        if gen.kind == "trace":
            matrix = powers[m]
        else:
            # dPf(S x).y = sum_{a<b} c_ab y[n-1-a][b] with c_ab the signed
            # minor Pfaffians of S x.  That is tr(M y) / 2 for the element M
            # of so(n) with M[b][n-1-a] = c_ab and M[a][n-1-b] = -c_ab, so P
            # is M / (2 form_scale).
            entries = packed[::-1]
            memo = {}
            matrix = [[0] * n for _ in range(n)]
            for a in range(n):
                for b in range(a + 1, n):
                    minor = tuple(i for i in range(n) if i != a and i != b)
                    value = _pfaffian(entries, minor, memo)
                    c = value if (a + b) % 2 else -value
                    matrix[b][n - 1 - a] = c
                    matrix[a][n - 1 - b] = -c
            matrix = cut(matrix, m)
        coords, scale = _projected_coords(
            alg, {i * n + j: v for i, line in enumerate(matrix) for j, v in enumerate(line) if v}
        )
        lifted = [(k, c + offset) for k, c in coords.items()]
        p, q = _gradient_factor(alg, gen)
        out = table[gen.index_j] = {}
        for a, b, shift in keys:
            if a + b > m:
                out[(a, b)] = alg.zero()
                continue
            num = [0] * alg.dim
            for k, c in lifted:
                num[k] = (((c >> shift) & mask) - half) * p
            out[(a, b)] = _element(alg, num, dx ** (m - a - b) * dy**b * du**a * scale * q)
    return table


def _gradient_factor(alg: AlgebraRealization, gen: InvariantGenerator):
    """(p, q), integers, q possibly negative: P is p / q times the
    generator's matrix projected onto g, degree / form_scale (trace kind)
    or 1 / (2 form_scale).  Not reduced; the read-offs bring their
    elements to lowest terms."""
    s = alg.form_scale
    if gen.kind == "trace":
        return gen.degree * s.denominator, s.numerator
    return s.denominator, 2 * s.numerator


def _projected_coords(alg: AlgebraRealization, entries):
    """(C, scale): the nonzero coordinates {k: C_k} of scale times the
    projection onto g, along the trace form, of the integer matrix with
    these nonzero entries {i N + j: value}, by the checked entry read-off
    (ContractError outside g).  On sl(n) the trace part is taken off,
    n v - tr on the diagonal and n v elsewhere (scale n); on so/sp the
    matrices read here (odd powers, e^(2k) z for z commuting with e, the
    Pfaffian's M) lie in g."""
    n = alg.matrix_size_N
    tr = sum(entries.get(q, 0) for q in range(0, n * n, n + 1)) if alg.family == "A" else 0
    if tr:
        entries = {q: n * v for q, v in entries.items()}
        for q in range(0, n * n, n + 1):
            v = entries.get(q, 0) - tr
            if v:
                entries[q] = v
            else:
                del entries[q]
    coords = alg._coords_of_entries(entries)
    if coords is None:
        raise ContractError("matrix does not lie in the algebra")
    return coords, n if tr else 1


def _read_gradient_rows(alg: AlgebraRealization, rows, den, factor):
    """p / q times the projection onto g (_projected_coords) of the matrix
    rows / den, for sparse integer rows (see algebras._sparse_rows), an
    integer den != 0 and factor = (p, q), integers: the orbit pipeline's
    products of e, read on their nonzero entries alone."""
    n = alg.matrix_size_N
    entries = {i * n + j: v for i, line in rows.items() for j, v in line}
    coords, scale = _projected_coords(alg, entries)
    p, q = factor
    num = [0] * alg.dim
    for k, c in coords.items():
        num[k] = c * p
    return _element(alg, num, den * scale * q)


def _line_terms(alg: AlgebraRealization, j: int, x: Element, y, u, wanted):
    """{(a, b): coefficient of t^a s^b in P_j(x + s y + t u)} for the keys
    in wanted, that is d^(a+b) P_j(x).u^(a).y^(b) / (a! b!); y or u may be
    None when no wanted key uses it, and keys with a + b > m are zero.

    P_j is homogeneous of degree m, the exponent, so on the integer rows
    X, Y, U of x = X/dx, y = Y/dy, u = U/du term (a, b) is the t^a s^b
    coefficient of the same expression in X + sY + tU over
    dx^(m-a-b) dy^b du^a, read off one packed evaluation (_line_table).
    """
    return _line_table(alg, (j,), x, y, u, wanted)[j]


def _gradient_raw(alg: AlgebraRealization, j: int, x: Element) -> Element:
    return _line_terms(alg, j, x, None, None, [(0, 0)])[(0, 0)]


def _scalar_derivatives(alg: AlgebraRealization, gens, x: Element, y: Element):
    """{j: <dp_j(x), y>} for the generators gens, given in ascending
    degree, each interpolated from the scalar values of p_j at x + t y,
    t = 0..deg_j.  Each point is built once, for t up to the largest
    degree, and its one power chain (_values) is read for every generator
    whose degree reaches t."""
    values = [
        _values(alg, x + y.scale(t), [gen for gen in gens if gen.degree >= t])
        for t in range(gens[-1].degree + 1)
    ]
    out = {}
    for gen in gens:
        j = gen.index_j
        samples = [(Rat(t), [values[t][j]]) for t in range(gen.degree + 1)]
        out[j] = interpolate_vector_poly(samples, gen.degree)[1][0]
    return out


def directional_scalar_derivative(alg, j, x, y):
    """<dp_j(x), y>, extracted from scalar values of p_j along x + t y."""
    return _scalar_derivatives(alg, (_generator(alg, j),), x, y)[j]


def gradient(alg: AlgebraRealization, j: int, x: Element) -> Element:
    """Gradient field of the j-th generator at x, checked: the defining
    pairing <dp_j(x), y> = T(P_j(x), y) is re-derived from scalar values of
    p_j on five seeded directions and compared exactly; a mismatch raises
    InternalError.  The pipeline reads the unchecked line expansion
    (_line_table), and verify_field_identities checks the pairing itself.
    """
    value = _gradient_raw(alg, j, x)
    rng = random.Random(f"gradient-check:{alg.family}:{alg.rank_r}:{j}")
    for _ in range(5):
        y = alg.random_element(rng, 2)
        if directional_scalar_derivative(alg, j, x, y) != trace_form(value, y):
            raise InternalError("gradient does not match the scalar derivative")
    return value


class TaylorTerms(ReadOnly):
    """Coefficients of P_j along a line: terms[k] = d^k P_j(x).y^(k) / k!."""

    __slots__ = ("j", "base", "direction", "terms")

    def __init__(self, j: int, base: Element, direction: Element, terms: tuple):
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "terms", terms)


def taylor_terms(alg: AlgebraRealization, j: int, x: Element, y: Element) -> TaylorTerms:
    m = _generator(alg, j).exponent
    line = _line_terms(alg, j, x, y, None, [(0, k) for k in range(m + 1)])
    terms = tuple(line[(0, k)] for k in range(m + 1))
    _check_endpoints(terms, _gradient_raw(alg, j, x), _gradient_raw(alg, j, y))
    return TaylorTerms(j, x, y, terms)


def _check_endpoints(terms, px, py):
    """The Taylor terms of P along x + s y start at P(x) and end at P(y);
    InternalError otherwise."""
    if terms[0] != px:
        raise InternalError("constant Taylor term is not P(x)")
    if terms[-1] != py:
        raise InternalError("top Taylor term is not P(y)")


def bivariate_terms(alg: AlgebraRealization, j: int, x: Element, u: Element, y: Element):
    """Table c[a][b] with d^{a+b} P_j(x).u^(a).y^(b) = a! b! c[a][b]: the
    t^a s^b coefficients of P_j(x + t u + s y), zero when a + b exceeds the
    exponent; the tests' reference for mixed_term."""
    m = _generator(alg, j).exponent
    keys = [(a, b) for a in range(m + 1) for b in range(m + 1)]
    line = _line_terms(alg, j, x, y, u, keys)
    return [[line[(a, b)] for b in range(m + 1)] for a in range(m + 1)]


def mixed_term(
    alg: AlgebraRealization, j: int, x: Element, u: Element, a: int, y: Element, b: int
) -> Element:
    """d^{a+b} P_j(x).u^(a).y^(b); zero when a + b exceeds the exponent."""
    if a < 0 or b < 0:
        raise ContractError("derivative orders must be nonnegative")
    term = _line_terms(alg, j, x, y, u, [(a, b)])[(a, b)]
    return term.scale(Rat(math.factorial(a) * math.factorial(b)))


class IdentitySample:
    """One random test point for the identity suites."""

    def __init__(self, x: Element, y: Element, z: Element, n: Element):
        self.x = x
        self.y = y
        self.z = z
        self.n = n

    @cached_property
    def moved(self) -> Element:
        """Ad(exp n) x, shared by every generator."""
        return unipotent_conjugate(self.n, self.x)

    @cached_property
    def center(self) -> Subspace:
        """The center of the centralizer of x, shared by every generator."""
        return center_of(centralizer(self.x))


def make_samples(alg: AlgebraRealization, count: int, seed: int):
    """Yield count IdentitySamples drawn from one seeded random stream, one
    at a time: a sample and the matrix forms its elements cache are
    released once the caller moves on (take a list to keep them)."""
    rng = random.Random(f"samples:{alg.family}:{alg.rank_r}:{seed}")
    for _ in range(count):
        yield IdentitySample(
            x=alg.random_element(rng),
            y=alg.random_element(rng),
            z=alg.random_element(rng),
            n=alg.random_upper_nilpotent(rng),
        )


def verify_field_identities(alg: AlgebraRealization, samples) -> list:
    """Exact verification of the invariance identities of every P_j, one
    CheckReport per generator, in j order.

    The samples are checked one at a time, and every line a check reads is
    one packed evaluation for all generators (_line_table): P at x, at y
    and at the moved point, the slope along [y, x], the Taylor terms along
    x + s y and y + s x, the propagation rows along x + s y + t [z, x] and
    x + s y + t [z, y], and P at x + (m + 1) y once per distinct exponent m.
    The pairing check compares each gradient with interpolated scalar
    values of p_j, off one set of points x + t y per sample, each with one
    power chain for every generator (_scalar_derivatives).  Failures are
    recorded, never raised: a NilabError becomes sample-error in every
    report that reads the failing step.
    """
    gens = generators(alg)
    js = [gen.index_j for gen in gens]
    top = max(alg.exponents)
    taylor, rows = [(0, k) for k in range(top + 1)], [(1, k) for k in range(top + 1)]
    reports = [CheckReport(f"{alg.name} generator {g.index_j} (degree {g.degree})") for g in gens]
    for idx, sample in enumerate(samples):
        x, y, z = sample.x, sample.y, sample.z
        tag = f"[{idx}]"
        try:
            px, py, pmoved = (
                _line_table(alg, js, v, None, None, [(0, 0)]) for v in (x, y, sample.moved)
            )
            slope = _line_table(alg, js, x, bracket(y, x), None, [(0, 1)])
            along_y = _line_table(alg, js, x, y, None, taylor)
            along_x = _line_table(alg, js, y, x, None, taylor)
            # row[k] = d^(1+k) P_j(x).u.y^(k) / k!, the t s^k term along
            # x + s y + t u, for u = [z, x] and u = [z, y]
            row_zx = _line_table(alg, js, x, y, bracket(z, x), rows)
            row_zy = _line_table(alg, js, x, y, bracket(z, y), rows)
            pairing = _scalar_derivatives(alg, gens, x, y)
        except NilabError as exc:  # record, never throw
            for report in reports:
                report.add(f"sample-error{tag}", False, str(exc))
            continue
        rebuilt = {}  # exponent m -> P at x + (m + 1) y
        for gen, report in zip(gens, reports):
            j, m = gen.index_j, gen.exponent
            try:
                p, q = px[j][(0, 0)], py[j][(0, 0)]
                report.add(f"gradient-pairing{tag}", trace_form(p, y) == pairing[j])
                report.add(f"equivariance{tag}", slope[j][(0, 1)] == bracket(y, p))
                tx = [along_y[j][key] for key in taylor[: m + 1]]
                ty = [along_x[j][key] for key in taylor[: m + 1]]
                _check_endpoints(tx, p, q)
                _check_endpoints(ty, q, p)
                report.add(f"taylor-exchange{tag}", tx == ty[::-1])
                # the expansion really terminates at degree m: its terms
                # rebuild P at x + (m + 1) y, evaluated directly
                acc = sum((term.scale((m + 1) ** k) for k, term in enumerate(tx)), alg.zero())
                if m not in rebuilt:
                    same = [g.index_j for g in gens if g.exponent == m]
                    rebuilt[m] = _line_table(alg, same, x + y.scale(m + 1), None, None, [(0, 0)])
                report.add(f"taylor-reconstruction{tag}", acc == rebuilt[m][j][(0, 0)])
                propagation = all(
                    bracket(z, tx[k])
                    == (row_zx[j][(1, k)] + row_zy[j][(1, k - 1)] if k else row_zx[j][(1, 0)])
                    for k in range(m + 1)
                )
                report.add(f"derivative-propagation{tag}", propagation)
                report.add(f"center-membership{tag}", sample.center.contains(p))
                moved_ok = pmoved[j][(0, 0)] == unipotent_conjugate(sample.n, p)
                report.add(f"unipotent-invariance{tag}", moved_ok)
            except NilabError as exc:  # record, never throw
                report.add(f"sample-error{tag}", False, str(exc))
    return reports


class Sl2VectorFamily(ReadOnly):
    """The eigenvector ladders v[j][k] = d^k P_j(h).e^(k) and
    w[j][k] = d^k P_j(h).f^(k), 0 <= k <= m_j, j indexed from 0."""

    __slots__ = ("triplet", "v", "w")

    def __init__(self, triplet: Triplet, v: tuple, w: tuple):
        object.__setattr__(self, "triplet", triplet)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)


def sl2_vectors(alg: AlgebraRealization, triplet: Triplet) -> Sl2VectorFamily:
    """Build the ladders and verify their bracket relations exactly.

    Raises IdentityError on any failure: the relations are theorems.
    """
    h, e, f = triplet.h, triplet.e, triplet.f
    v_all = []
    w_all = []
    for gen in generators(alg):
        j, m = gen.index_j, gen.exponent
        te = taylor_terms(alg, j, h, e)
        tf = taylor_terms(alg, j, h, f)
        v_row = tuple(
            te.terms[k].scale(Rat(math.factorial(k))) for k in range(m + 1)
        )
        w_row = tuple(
            tf.terms[k].scale(Rat(math.factorial(k))) for k in range(m + 1)
        )
        pe = _gradient_raw(alg, j, e)
        for k in range(m + 1):
            if bracket(h, v_row[k]) != v_row[k].scale(2 * k):
                raise IdentityError(f"[h, v_{j},{k}] != 2k v: ladder broken")
            step = v_row[k + 1] if k < m else alg.zero()
            if bracket(e, v_row[k]) != step.scale(-2):
                raise IdentityError(f"[e, v_{j},{k}] != -2 v_(k+1): ladder broken")
            if bracket(h, w_row[k]) != w_row[k].scale(-2 * k):
                raise IdentityError(f"[h, w_{j},{k}] != -2k w: ladder broken")
            wstep = w_row[k + 1] if k < m else alg.zero()
            if bracket(f, w_row[k]) != wstep.scale(2):
                raise IdentityError(f"[f, w_{j},{k}] != 2 w_(k+1): ladder broken")
            pumped = v_row[k]
            for _ in range(m - k):
                pumped = bracket(e, pumped)
            if pumped != pe.scale(Rat((-2) ** (m - k) * math.factorial(m))):
                raise IdentityError(
                    f"(ad e)^{m - k} v_{j},{k} != (-2)^(m-k) m! P(e)"
                )
        v_all.append(v_row)
        w_all.append(w_row)
    return Sl2VectorFamily(triplet, tuple(v_all), tuple(w_all))


def kostant_independence(alg: AlgebraRealization, triplet: Triplet) -> CheckReport:
    """Independence and primitivity of the gradients at a regular nilpotent.

    Raises IdentityError if any statement fails.
    """
    h, e = triplet.h, triplet.e
    report = CheckReport(f"{alg.name} gradient independence at regular e")
    grads = [_gradient_raw(alg, gen.index_j, e) for gen in generators(alg)]
    span = Subspace.from_elements(alg, grads)
    report.add("independent", span.dim == alg.rank_r, f"span dim {span.dim}")
    for gen, pe in zip(generators(alg), grads):
        report.add(f"annihilated-by-e[{gen.index_j}]", bracket(e, pe).is_zero())
        report.add(
            f"h-weight[{gen.index_j}]",
            bracket(h, pe) == pe.scale(2 * gen.exponent),
        )
    if not report.passed:
        raise IdentityError("; ".join(item.name for item in report.failures()))
    return report


class TriangularDecomposition(ReadOnly):
    __slots__ = ("triplet", "h_space", "n_plus", "n_minus")

    def __init__(self, triplet: Triplet, h_space: Subspace, n_plus: Subspace, n_minus: Subspace):
        object.__setattr__(self, "triplet", triplet)
        object.__setattr__(self, "h_space", h_space)
        object.__setattr__(self, "n_plus", n_plus)
        object.__setattr__(self, "n_minus", n_minus)


def triangular_decomposition(
    alg: AlgebraRealization, triplet: Triplet | None = None
) -> TriangularDecomposition:
    """g = n_- + h + n_+ built from the sl(2) ladders of a principal triple.

    h is spanned by the P_j(h), n_+ by the v ladders with k >= 1, n_- by
    the w ladders with k >= 1.  Dimensions, direct-sum totality and the
    match with the ad(h) graduation (zero piece = h, positive pieces = n_+)
    are all verified exactly; a mismatch raises IdentityError.
    """
    if triplet is None:
        triplet = principal_triplet(alg)
    return _decomposition_from_ladders(alg, sl2_vectors(alg, triplet))


def _decomposition_from_ladders(
    alg: AlgebraRealization, family: Sl2VectorFamily
) -> TriangularDecomposition:
    """triangular_decomposition from ladders already built by sl2_vectors,
    so that a caller that reports on the ladders builds them once."""
    triplet = family.triplet
    r = alg.rank_r
    h_space = Subspace.from_elements(alg, [row[0] for row in family.v])
    plus_vecs = [vec for row in family.v for vec in row[1:]]
    minus_vecs = [vec for row in family.w for vec in row[1:]]
    n_plus = Subspace.from_elements(alg, plus_vecs)
    n_minus = Subspace.from_elements(alg, minus_vecs)
    half = (alg.dim - r) // 2
    if h_space.dim != r or n_plus.dim != half or n_minus.dim != half:
        raise IdentityError(
            f"decomposition dims ({h_space.dim}, {n_plus.dim}, {n_minus.dim}) "
            f"!= ({r}, {half}, {half})"
        )
    everything = Subspace.from_coord_rows(
        alg, list(h_space.num_rows) + list(n_plus.num_rows) + list(n_minus.num_rows)
    )
    if everything.dim != alg.dim:
        raise IdentityError("ladders do not span the whole algebra")
    pieces = h_graduation(triplet.h, alg.full_space())
    zero_piece = next((sp for lam, sp in pieces if lam == 0), None)
    if zero_piece is None or not zero_piece.same_space(h_space):
        raise IdentityError("zero graduation piece differs from the P_j(h) span")
    pos_rows = [row for lam, sp in pieces if lam > 0 for row in sp.num_rows]
    neg_rows = [row for lam, sp in pieces if lam < 0 for row in sp.num_rows]
    if not Subspace.from_coord_rows(alg, pos_rows).same_space(n_plus):
        raise IdentityError("positive graduation does not match n_+")
    if not Subspace.from_coord_rows(alg, neg_rows).same_space(n_minus):
        raise IdentityError("negative graduation does not match n_-")
    return TriangularDecomposition(triplet, h_space, n_plus, n_minus)


def mf_shift_rank(alg: AlgebraRealization, triplet: Triplet, t_samples) -> int:
    """Dimension of span{[e, P_j(e + t h)] : j, t in t_samples}.

    For a principal triple with enough distinct nonzero shifts this equals
    half the dimension of the nilpotent orbit of e, that is
    (dim g - dim z(e)) / 2.
    """
    t_samples = [as_rat(t) for t in t_samples]
    max_m = max(alg.exponents)
    distinct_nonzero = {t for t in t_samples if t != 0}
    if len(distinct_nonzero) < max_m + 1:
        warnings.warn(
            "fewer than max-exponent+1 distinct nonzero shifts: "
            "the sampled span may be degenerate",
            stacklevel=2,
        )
    h, e = triplet.h, triplet.e
    vectors = []
    for gen in generators(alg):
        for t in t_samples:
            shifted = _gradient_raw(alg, gen.index_j, e + h.scale(t))
            vectors.append(bracket(e, shifted))
    return Subspace.from_elements(alg, vectors).dim
