"""The integer-scaled matrix path against plain rational references.

An element's matrix is kept as integer rows over one common denominator, and
brackets, traces, gradients and the read-off run on those integers.  Each
test here recomputes the same quantity with rational matrices only (products
written out in the test, coordinates from a rational solve over the
flattened basis) on elements whose coordinates have denominators 2, 3 and 6
and mixed signs, so a scaling or denominator slip shows as a mismatch.
The packed line expansion is also compared with the coefficient-wise
expansion it replaced, kept here as reference_line_terms.
"""

import math
import random

import pytest

from nilab import (
    ContractError,
    Rat,
    bracket,
    build_algebra,
    eval_generator,
    generators,
    mixed_term,
    pfaffian,
    taylor_terms,
    trace_form,
)
from nilab.algebras import ad_matrix
from nilab.invariants import (
    _digit_width,
    _gradient_raw,
    _line_table,
    _line_terms,
    _scalar_derivatives,
    bivariate_terms,
    directional_scalar_derivative,
)
from nilab.linalg import interpolate_vector_poly, mat_mul, solve

from readoff import dense_coords_of_rows


def gradient_derivative(alg, j, x, y):
    """First derivative dP_j(x).y: term (0, 1) of the line expansion."""
    return _line_terms(alg, j, x, y, None, [(0, 1)])[(0, 1)]


SCALES = [Rat(1), Rat(5), Rat(-3, 2)]
TRACE_ALGEBRAS = [("A", 2), ("A", 3), ("B", 2), ("C", 3)]


def fractional_element(alg, rng):
    """Coordinates p/q with q in 2, 3, 6 and both signs; every denominator
    occurs, so the common denominator is 6."""
    coords = [
        Rat(rng.choice([-5, -3, -1, 1, 2, 4]), rng.choice([2, 3, 6])) for _ in range(alg.dim)
    ]
    coords[0], coords[1], coords[2] = Rat(1, 2), Rat(-2, 3), Rat(5, 6)
    return alg.element(coords)


def basis_matrices(alg):
    return [alg.basis_element(k).matrix_rows() for k in range(alg.dim)]


def dense(alg, x):
    """x as rational rows: sum_k c_k B_k."""
    n = alg.matrix_size_N
    rows = [[Rat(0)] * n for _ in range(n)]
    for c, b in zip(x.coords, basis_matrices(alg)):
        for i in range(n):
            for j in range(n):
                rows[i][j] += c * b[i][j]
    return rows


def product(a, b):
    n = len(a)
    return [
        [sum((a[i][t] * b[t][j] for t in range(n)), Rat(0)) for j in range(n)] for i in range(n)
    ]


def trace(a):
    return sum((a[i][i] for i in range(len(a))), Rat(0))


def reference_coords(alg, rows):
    """Coordinates of a rational matrix from a rational solve over the
    flattened basis (None when it is not in the algebra)."""
    cols = [[v for line in b for v in line] for b in basis_matrices(alg)]
    system = [list(r) for r in zip(*cols)]
    return solve(system, alg.dim, [v for line in rows for v in line])


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("C", 3), ("D", 4)])
def test_int_rows_clear_the_coordinate_denominators(family, rank):
    alg = build_algebra(family, rank)
    x = fractional_element(alg, random.Random(1))
    rows, den = x.int_rows()
    assert den == 6 == math.lcm(*(c.denominator for c in x.coords))
    assert all(type(v) is int for line in rows for v in line)
    assert x.matrix_rows() == dense(alg, x)
    assert [[Rat(v, den) for v in line] for line in rows] == dense(alg, x)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("C", 3), ("D", 4)])
def test_bracket_matches_rational_commutator(family, rank):
    alg = build_algebra(family, rank)
    rng = random.Random(2)
    for _ in range(3):
        x, y = fractional_element(alg, rng), fractional_element(alg, rng)
        xm, ym = dense(alg, x), dense(alg, y)
        xy, yx = product(xm, ym), product(ym, xm)
        expected = reference_coords(alg, [[a - b for a, b in zip(r, s)] for r, s in zip(xy, yx)])
        assert list(bracket(x, y).coords) == expected


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("D", 3)])
def test_ad_matrix_columns_match_rational_commutators(family, rank):
    alg = build_algebra(family, rank)
    x = fractional_element(alg, random.Random(10))
    xm = dense(alg, x)
    columns = [list(col) for col in zip(*ad_matrix(x))]
    for col, b in zip(columns, basis_matrices(alg)):
        xb, bx = product(xm, b), product(b, xm)
        assert col == reference_coords(alg, [[u - v for u, v in zip(r, s)] for r, s in zip(xb, bx)])


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("D", 3)])
def test_trace_form_matches_rational_trace(family, rank, scale):
    alg = build_algebra(family, rank, form_scale=scale)
    rng = random.Random(3)
    x, y = fractional_element(alg, rng), fractional_element(alg, rng)
    assert trace_form(x, y) == trace(product(dense(alg, x), dense(alg, y))) * scale


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("C", 2), ("D", 3), ("D", 4)])
def test_eval_generator_matches_rational_values(family, rank):
    alg = build_algebra(family, rank)
    x = fractional_element(alg, random.Random(4))
    xm = dense(alg, x)
    for gen in generators(alg):
        if gen.kind == "trace":
            power = xm
            for _ in range(gen.degree - 1):
                power = product(power, xm)
            expected = trace(power)
        else:
            expected = pfaffian(xm[::-1])  # rational rows in, rational Pfaffian out
        assert eval_generator(alg, gen.index_j, x) == expected


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("family,rank", TRACE_ALGEBRAS)
def test_trace_gradient_matches_rational_power(family, rank, scale):
    # P_j(x) = (d / scale) proj(x^(d-1)), proj removing the trace part on sl(n)
    alg = build_algebra(family, rank, form_scale=scale)
    n = alg.matrix_size_N
    x = fractional_element(alg, random.Random(5))
    xm = dense(alg, x)
    for gen in generators(alg):
        power = xm
        for _ in range(gen.exponent - 1):
            power = product(power, xm)
        shift = trace(power) / n if family == "A" else Rat(0)
        factor = Rat(gen.degree) / scale
        rows = [
            [(v - shift if i == j else v) * factor for j, v in enumerate(line)]
            for i, line in enumerate(power)
        ]
        assert list(_gradient_raw(alg, gen.index_j, x).coords) == reference_coords(alg, rows)


def element_over(alg, rng, q):
    """Random coordinates whose least common denominator is exactly q."""
    coords = [Rat(rng.randint(-4, 4), q) for _ in range(alg.dim)]
    coords[0] = Rat(1, q)
    return alg.element(coords)


def gradient_coords(alg, j, point):
    return list(_gradient_raw(alg, j, point).coords)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("family,rank", TRACE_ALGEBRAS + [("D", 3), ("D", 4)])
def test_gradient_derivative_matches_interpolation_on_fractions(family, rank, scale):
    # reference: the gradient at s = 0..m+1 along x + s y, interpolated (the
    # extra node checks the degree); x and y have denominators 2 and 3, so a
    # wrong power of either shows
    alg = build_algebra(family, rank, form_scale=scale)
    rng = random.Random(6)
    for _ in range(2):
        x, y = element_over(alg, rng, 2), element_over(alg, rng, 3)
        for gen in generators(alg):
            j, m = gen.index_j, gen.exponent
            samples = [(s, gradient_coords(alg, j, x + y.scale(s))) for s in range(m + 2)]
            expected = [alg.element(c) for c in interpolate_vector_poly(samples, m)]
            assert gradient_derivative(alg, j, x, y) == expected[1]
            assert list(taylor_terms(alg, j, x, y).terms) == expected


@pytest.mark.parametrize(
    "family,rank",
    [("A", r) for r in range(1, 6)] + [(f, r) for f in "BCD" for r in range(2, 6)],
)
def test_scalar_derivatives_match_interpolated_values(family, rank):
    # reference: p_j at x + t y, t = 0..deg_j, on the integer rows over the
    # least common denominator L = 30 of x (denominator 6) and y (10), with
    # the full power chain or the Pfaffian, interpolated by
    # interpolate_vector_poly; the oracle scales by dx dy = 60 and steps its
    # so/sp chain by the square, so a wrong power of either shows
    alg = build_algebra(family, rank)
    rng = random.Random(f"oracle:{family}{rank}")
    x, y = element_over(alg, rng, 6), element_over(alg, rng, 10)
    (xr, dx), (yr, dy) = x.int_rows(), y.int_rows()
    assert (dx, dy) == (6, 10)
    gens = generators(alg)
    got = _scalar_derivatives(alg, gens, x, y)
    for gen in gens:
        samples = []
        for t in range(gen.degree + 1):
            rows = [[5 * a + 3 * t * b for a, b in zip(p, q)] for p, q in zip(xr, yr)]
            if gen.kind == "trace":
                power = rows
                for _ in range(gen.degree - 1):
                    power = mat_mul(power, rows)
                value = sum(power[i][i] for i in range(len(rows)))
            else:
                value = pfaffian(rows[::-1])
            samples.append((t, [Rat(value, 30**gen.degree)]))
        want = interpolate_vector_poly(samples, gen.degree)[1][0]
        assert got[gen.index_j] == want, gen.index_j
        assert directional_scalar_derivative(alg, gen.index_j, x, y) == want
    kinds = {gen.kind for gen in gens}
    assert kinds == ({"trace", "pfaffian"} if family == "D" else {"trace"})


@pytest.mark.parametrize(
    "family,rank,scale",
    [
        ("A", 3, Rat(5)),
        ("B", 2, Rat(-3, 2)),
        ("C", 3, Rat(1)),
        ("D", 3, Rat(-3, 2)),
        ("D", 4, Rat(5)),
    ],
)
def test_bivariate_terms_match_grid_interpolation_on_fractions(family, rank, scale):
    # reference: the gradient on the grid x + t u + s y, t, s = 0..m,
    # interpolated in s and then in t; x, y, u have denominators 2, 3 and 5.
    # mixed_term asks for one term only, so it reads a single digit.
    alg = build_algebra(family, rank, form_scale=scale)
    rng = random.Random(8)
    x, y, u = (element_over(alg, rng, q) for q in (2, 3, 5))
    for gen in generators(alg):
        j, m = gen.index_j, gen.exponent
        per_t = []
        for t in range(m + 1):
            base = x + u.scale(t)
            samples = [(s, gradient_coords(alg, j, base + y.scale(s))) for s in range(m + 1)]
            per_t.append(interpolate_vector_poly(samples, m))
        table = bivariate_terms(alg, j, x, u, y)
        for b in range(m + 1):
            by_t = interpolate_vector_poly([(t, per_t[t][b]) for t in range(m + 1)], m)
            for a in range(m + 1):
                assert table[a][b] == alg.element(by_t[a])
                weight = Rat(math.factorial(a) * math.factorial(b))
                assert mixed_term(alg, j, x, u, a, y, b) == table[a][b].scale(weight)


def _reference_minor_series(rows, idx, memo, keep):
    """The signed-minor Pfaffian recursion on entries held as {(a, b): int}
    coefficient maps, truncated to keep[len(idx) // 2]."""
    if not idx:
        return {(0, 0): 1}
    cached = memo.get(idx)
    if cached is not None:
        return cached
    wanted = keep[len(idx) // 2]
    total = {}
    sign = 1
    for k in range(1, len(idx)):
        entry = rows[idx[0]][idx[k]]
        if entry:
            rest = _reference_minor_series(rows, idx[1:k] + idx[k + 1 :], memo, keep)
            for (a1, b1), v1 in entry.items():
                for (a2, b2), v2 in rest.items():
                    key = (a1 + a2, b1 + b2)
                    if key in wanted:
                        total[key] = total.get(key, 0) + sign * v1 * v2
        sign = -sign
    memo[idx] = total
    return total


def reference_line_terms(alg, j, x, y, u, wanted):
    """({(a, b): integer matrix}, {(a, b): element}): the t^a s^b
    coefficient matrix of the generator's matrix on X + sY + tU, before
    projection and scaling, and the term of P_j(x + s y + t u) read off
    from it, for the keys with a + b <= m.  This is the coefficient-wise
    expansion the packed evaluation replaced: the trace kind runs
    E'[a][b] = E[a][b] X + E[a][b-1] Y + E[a-1][b] U, keeping at degree k
    only the keys that can still reach a wanted one; the Pfaffian kind runs
    the signed-minor recursion on entries in Z[s, t]."""
    gen = generators(alg)[j - 1]
    m = gen.exponent
    n = alg.matrix_size_N
    live = [(a, b) for a, b in wanted if a + b <= m]
    keep = [
        {(p, q) for a, b in live for p in range(a + 1) for q in range(b + 1)
         if p + q <= k and a + b - p - q <= m - k}
        for k in range(m + 1)
    ]
    parts = [(key, *v.int_rows()) for key, v in (((0, 0), x), ((0, 1), y), ((1, 0), u))]
    dens = {key: den for key, _, den in parts}
    if gen.kind == "trace":
        coeffs = {key: rows for key, rows, _ in parts if key in keep[1]}
        for k in range(2, m + 1):
            new = {}
            for p, q in keep[k]:
                prods = [mat_mul(coeffs[(p - dp, q - dq)], rows)
                         for (dp, dq), rows, _ in parts if (p - dp, q - dq) in coeffs]
                new[(p, q)] = [[sum(vs) for vs in zip(*group)] for group in zip(*prods)]
            coeffs = new
    else:
        entries = [[{key: rows[n - 1 - i][c] for key, rows, _ in parts if rows[n - 1 - i][c]}
                    for c in range(n)] for i in range(n)]
        memo = {}
        coeffs = {key: [[0] * n for _ in range(n)] for key in live}
        for a in range(n):
            for b in range(a + 1, n):
                minor = tuple(i for i in range(n) if i != a and i != b)
                for key, value in _reference_minor_series(entries, minor, memo, keep).items():
                    c = value if (a + b) % 2 else -value
                    coeffs[key][b][n - 1 - a] = c
                    coeffs[key][a][n - 1 - b] = -c
    factor = (Rat(gen.degree) if gen.kind == "trace" else Rat(1, 2)) / alg.form_scale
    terms = {}
    for a, b in live:
        rows = coeffs[(a, b)]
        den = dens[(0, 0)] ** (m - a - b) * dens[(0, 1)] ** b * dens[(1, 0)] ** a
        tr = sum(rows[i][i] for i in range(n)) if alg.family == "A" else 0
        if tr:
            rows = [[n * v - tr if i == c else n * v for c, v in enumerate(line)]
                    for i, line in enumerate(rows)]
            den *= n
        terms[(a, b)] = dense_coords_of_rows(
            alg, rows, den * factor.denominator, factor.numerator
        )
    return {key: coeffs[key] for key in live}, terms


def large_element(alg, rng):
    """Numerators up to 10^30 in size over two denominators up to 10^9."""
    dens = [rng.randint(1, 10**9) for _ in range(2)]
    return alg.element(
        [Rat(rng.randint(-10**30, 10**30), rng.choice(dens)) for _ in range(alg.dim)]
    )


@pytest.mark.parametrize(
    "family,rank,scale",
    [
        ("A", 1, Rat(1)),
        ("A", 3, Rat(-3, 2)),
        ("B", 2, Rat(5)),
        ("C", 3, Rat(1)),
        ("D", 3, Rat(-3, 2)),
        ("D", 4, Rat(1)),
        ("D", 5, Rat(5)),
    ],
)
def test_packed_line_expansion_matches_coefficientwise_reference(family, rank, scale):
    # every (a, b) key, including those past the degree, on small integer,
    # fractional, large and zero points; the coefficients the reference
    # computes stay below B/4 for the digit width the code chose
    alg = build_algebra(family, rank, form_scale=scale)
    rng = random.Random(f"packed:{family}{rank}")
    makers = [lambda: alg.random_element(rng), lambda: fractional_element(alg, rng), alg.zero]
    if rank < 5:  # on D5 the degree-8 generator makes large points cost seconds
        makers.append(lambda: large_element(alg, rng))
    k = len(makers)
    points = [(makers[i](), makers[(i + 1) % k](), makers[(i + 2) % k]()) for i in range(k)]
    n = alg.matrix_size_N
    for x, y, u in points:
        for gen in generators(alg):
            j, m = gen.index_j, gen.exponent
            keys = [(a, b) for a in range(m + 2) for b in range(m + 2)]
            raw, want = reference_line_terms(alg, j, x, y, u, keys)
            got = _line_terms(alg, j, x, y, u, keys)
            for key in keys:
                assert got[key] == want.get(key, alg.zero()), (j, key)
            tops = [max(abs(c) for line in w.int_rows()[0] for c in line) for w in (x, y, u)]
            width = _digit_width(alg, [gen], sum(tops))
            biggest = max(abs(v) for rows in raw.values() for line in rows for v in line)
            # the proven entry bound beta, with the two bits that put it below B/4
            paths = n ** (m - 1) if gen.kind == "trace" else math.prod(range(n - 3, 0, -2))
            beta = paths * sum(tops) ** m
            assert 4 * biggest < 2 ** (beta.bit_length() + 2)
            # the packed read-off decodes every coordinate digit, so each
            # stays below B/2; on sl(N) that needs B > N^2 beta
            for rows in raw.values():
                assert 2 * max(map(abs, digit_coords(alg, rows)), default=0) < 2**width, j
            if alg.family == "A":
                assert n * n * biggest < 2**width
        # the multi-generator form reads every generator off the one chain
        js = [gen.index_j for gen in generators(alg)]
        table = _line_table(alg, js, x, y, None, [(0, 0), (0, 1), (0, 2)])
        for j in js:
            assert table[j] == _line_terms(alg, j, x, y, None, [(0, 0), (0, 1), (0, 2)])


def digit_coords(alg, rows):
    """The integer coordinates the packed read-off decodes for one digit
    matrix: those of rows, taken on sl(N) after the trace part comes off as
    N v - tr on the diagonal and N v elsewhere."""
    n = alg.matrix_size_N
    if alg.family == "A":
        tr = sum(rows[i][i] for i in range(n))
        rows = [[n * v - tr if i == c else n * v for c, v in enumerate(line)]
                for i, line in enumerate(rows)]
    return dense_coords_of_rows(alg, rows).num


def blocked_diagonal(alg, big):
    """The sl(N) element diag(big, ..., big, -big, ..., -big), N even: its
    diagonal coordinates, the partial sums of the diagonal, reach N big / 2,
    the largest a read-off of entries up to big can give."""
    n = alg.matrix_size_N
    return alg.from_matrix(
        [[(big if 2 * i < n else -big) if i == j else 0 for j in range(n)] for i in range(n)]
    )


@pytest.mark.parametrize(
    "family,rank", [("A", 5), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("D", 5)]
)
def test_line_table_matches_the_reference_on_130_bit_points(family, rank):
    # the packed chain is cut to the digits read and each generator's packed
    # matrix is read off g at once, so the digits of its coordinates must
    # stay below B/2.  On sl(6) the blocked diagonal point, whose entries all
    # have 130 bits, gives P_1 diagonal coordinates of 3 times its entries,
    # past B/2 unless family A gets its extra bits (_digit_width)
    alg = build_algebra(family, rank)
    rng = random.Random(f"packed-130:{family}{rank}")
    top = max(alg.exponents)
    keysets = [
        [(0, 0)],
        [(0, k) for k in range(top + 1)],
        [(1, k) for k in range(top + 1)] + [(2, 0), (0, 1)],
    ]
    points = [tuple(large_element(alg, rng) for _ in range(3))]
    if family == "A":
        small = (alg.random_element(rng), alg.random_element(rng))
        points.append((blocked_diagonal(alg, 3 << 128), *small))
    for x, y, u in points:
        assert max(abs(v) for line in x.int_rows()[0] for v in line).bit_length() > 120
        for keys, (y_used, u_used) in zip(keysets, [(None, None), (y, None), (y, u)]):
            y_ref, u_ref = (v if v is not None else alg.zero() for v in (y_used, u_used))
            want = {
                gen.index_j: reference_line_terms(alg, gen.index_j, x, y_ref, u_ref, keys)[1]
                for gen in generators(alg)
            }
            groups = [[gen.index_j] for gen in generators(alg)] + [list(want)]
            for js in groups:
                table = _line_table(alg, js, x, y_used, u_used, keys)
                for j in js:
                    for key in keys:
                        assert table[j][key] == want[j].get(key, alg.zero()), (js, j, key)


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 2), ("D", 3)])
def test_line_table_refuses_one_digit_matrix_outside_g(monkeypatch, family, rank):
    # the top power M^T of the chain gets one more unit in the digit of s^1
    # at the mirror of the first basis matrix's pivot: that one digit matrix
    # leaves g, every other digit stays in it, and the packed read-off of the
    # line must refuse it
    import nilab.invariants as invariants_module

    alg = build_algebra(family, rank)
    rng = random.Random(f"one-digit:{family}{rank}")
    x, y = alg.random_element(rng), alg.random_element(rng)
    js = [gen.index_j for gen in generators(alg)]
    keys = [(0, k) for k in range(max(alg.exponents) + 1)]
    want = _line_table(alg, js, x, y, None, keys)
    mirror_i, mirror_j, _ = alg._basis_sparse[0][1]
    real_width, real_mul = invariants_module._digit_width, invariants_module.mat_mul
    widths, products = [], []

    def recording_width(*args):
        widths.append(real_width(*args))
        return widths[-1]

    def perturbed_mul(a, b):
        out = real_mul(a, b)
        products.append(out)
        if len(products) == max(alg.exponents) - 1:  # M^T
            out[mirror_i][mirror_j] += 1 << widths[-1]
        return out

    monkeypatch.setattr(invariants_module, "_digit_width", recording_width)
    monkeypatch.setattr(invariants_module, "mat_mul", perturbed_mul)
    with pytest.raises(ContractError, match="matrix does not lie in the algebra"):
        _line_table(alg, js, x, y, None, keys)
    # the same line with the product left alone reads as before
    monkeypatch.setattr(invariants_module, "mat_mul", real_mul)
    assert _line_table(alg, js, x, y, None, keys) == want


@pytest.mark.parametrize("scale", [Rat(1), Rat(-3, 2)])
@pytest.mark.parametrize("rank", [3, 4])
def test_pfaffian_gradient_matches_rational_pairing(rank, scale):
    # T(P(x), b_k) must equal d/dt Pf(S(x + t b_k)) at t = 0 for every basis
    # vector, with the trace, the Pfaffians and the derivative all taken on
    # rational matrices; T is nondegenerate, so this pins P(x) down
    alg = build_algebra("D", rank, form_scale=scale)
    (j,) = [gen.index_j for gen in generators(alg) if gen.kind == "pfaffian"]
    x = fractional_element(alg, random.Random(7 + rank))
    xm = dense(alg, x)
    pm = dense(alg, _gradient_raw(alg, j, x))
    for b in basis_matrices(alg):
        samples = []
        for t in range(rank + 1):
            point = [[u + t * v for u, v in zip(r, s)] for r, s in zip(xm, b)]
            samples.append((t, [pfaffian(point[::-1])]))
        derivative = interpolate_vector_poly(samples, rank)[1][0]
        assert trace(product(pm, b)) * scale == derivative


@pytest.mark.parametrize(
    "family,rank,rows",
    [
        # trace 1/2 + 1/3 is not zero
        ("A", 1, [["1/2", "-1/6"], ["2/3", "1/3"]]),
        # so(3) needs x[1][0] = -x[2][1]; here both are 1/6
        ("B", 1, [["1/2", "1/3", 0], ["1/6", 0, "-1/3"], [0, "1/6", "-1/2"]]),
        # sp(2) = sl(2): a nonzero trace again, with denominator 6
        ("C", 1, [["5/6", "1/2"], ["-1/3", "1/6"]]),
    ],
)
def test_read_off_rejects_fractional_matrix_outside_algebra(family, rank, rows):
    alg = build_algebra(family, rank)
    with pytest.raises(ContractError):
        alg.from_matrix(rows)
    int_rows = [[int(Rat(v) * 6) for v in line] for line in rows]
    with pytest.raises(ContractError):
        alg.coords_of_rows(int_rows, 6)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("C", 3), ("D", 4)])
def test_from_matrix_round_trips_fractional_elements(family, rank):
    alg = build_algebra(family, rank)
    x = fractional_element(alg, random.Random(8))
    assert alg.from_matrix(dense(alg, x)) == x
    rows, den = x.int_rows()
    assert alg.coords_of_rows(rows, den) == x
    assert alg.coords_of_rows(rows, den).coords == x.coords
    assert alg.coords_of_rows(rows, den, -3) == x.scale(-3)
    assert alg.coords_of_rows(rows, den, -3).coords == tuple(-3 * c for c in x.coords)


def rescaled_basis_algebra(family, rank, factor):
    """The realization with every basis matrix multiplied by factor, so the
    first entry of each is factor rather than 1."""
    alg = build_algebra(family, rank)
    alg._basis_sparse = [[(i, j, factor * v) for i, j, v in b] for b in alg._basis_sparse]
    alg._init_coordinatizer()  # also rebuilds the sparse rows products read
    return alg


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2), ("D", 3)])
def test_read_off_refuses_a_rescaled_basis(family, rank):
    # the read-off is a forward substitution through a unit pivot block; a
    # basis whose first entries are not 1 is refused, not read at a scale
    with pytest.raises(ContractError):
        rescaled_basis_algebra(family, rank, 6)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("D", 3)])
def test_read_off_refuses_first_positions_out_of_order(family, rank):
    # two basis matrices swapped: the later one starts before the earlier
    alg = build_algebra(family, rank)
    alg._basis_sparse[0], alg._basis_sparse[1] = alg._basis_sparse[1], alg._basis_sparse[0]
    with pytest.raises(ContractError):
        alg._init_coordinatizer()


def test_read_off_refuses_entries_out_of_row_major_order():
    # E00 + E22 - 2 E11 lies in sl(3) and starts with 1 at (0, 0), but its
    # entries are not listed row-major
    alg = build_algebra("A", 2)
    k = alg._basis_sparse.index([(0, 0, 1), (1, 1, -1)])
    alg._basis_sparse[k] = [(0, 0, 1), (2, 2, 1), (1, 1, -2)]
    with pytest.raises(ContractError):
        alg._init_coordinatizer()
