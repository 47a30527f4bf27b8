"""Multivariate polynomials: arithmetic, determinants, generic rank."""

import random
from itertools import permutations

import pytest

from nilab import ContractError, Poly, Rat, ShapeError, generic_rank_detail, poly_det, rank_kernel
from nilab.poly import _eliminate, generic_rank_detail

V2 = ("x", "y")


def x_(vars_=V2):
    return Poly.variable(vars_, 0)


def y_(vars_=V2):
    return Poly.variable(vars_, 1)


def test_poly_basic_arithmetic():
    x, y = x_(), y_()
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert p.eval([3, 2]) == 5


def test_poly_no_zero_terms_stored():
    x = x_()
    assert (x - x).terms == {}
    assert (x - x).is_zero()


def test_exact_division():
    x, y = x_(), y_()
    num = (x + y) * (x * x - 2 * y)
    assert num.exact_div(x + y) == x * x - 2 * y


def test_poly_det_diagonal_and_antidiagonal():
    x, y = x_(), y_()
    zero = Poly.zero(V2)
    assert poly_det([[x, zero], [zero, y]]) == x * y
    # pseudo-triangular 2x2 with zero corner: det = -(antidiagonal product)
    a, b, c = x, y, x + y
    assert poly_det([[a, b], [c, zero]]) == -(b * c)


def test_poly_det_matches_numeric_det():
    rng = random.Random(23)
    vars1 = ("t",)
    for _ in range(10):
        entries = [
            [Poly.const(vars1, rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)
        ]
        sym = poly_det(entries)
        numeric = [[Poly.const((), p.eval([0])) for p in row] for row in entries]
        assert sym.eval([0]) == leibniz_det(numeric).eval(())


def test_generic_rank_diagonal():
    x, y = x_(), y_()
    zero = Poly.zero(V2)
    assert generic_rank_detail([[x, zero], [zero, y]]).rank == 2


def test_generic_rank_repeated_row():
    x, y = x_(), y_()
    assert generic_rank_detail([[x, y], [x, y]]).rank == 1


def test_generic_rank_bracket_matrix_shape():
    # the regular sl(3) bracket matrix in center coordinates:
    # [[8 t0, 24 t1], [24 t1, 0]]; rank 2 since the determinant -576 t1^2
    # is nonzero (evaluate at t0 = 0, t1 = 1).
    t0, t1 = Poly.variable(V2, 0), Poly.variable(V2, 1)
    zero = Poly.zero(V2)
    m = [[8 * t0, 24 * t1], [24 * t1, zero]]
    assert generic_rank_detail(m).rank == 2
    assert poly_det(m).eval([0, 1]) == -576


def test_generic_rank_rejects_nonlinear():
    x = x_()
    with pytest.raises(ContractError):
        generic_rank_detail([[x * x]])


def test_generic_rank_matches_random_evaluations():
    rng = random.Random(31)
    vars3 = ("a", "b", "c")
    for _ in range(10):
        entries = []
        for _ in range(3):
            row = []
            for _ in range(4):
                coeffs = [rng.randint(-2, 2) for _ in range(3)]
                row.append(Poly.linear(vars3, coeffs))
            entries.append(row)
        symbolic = generic_rank_detail(entries).rank
        best = 0
        for _ in range(10):
            point = [Rat(rng.randint(-50, 50)) for _ in range(3)]
            m = [[p.eval(point) for p in row] for row in entries]
            best = max(best, rank_kernel(m, 4)[0])
        assert symbolic == best


def test_generic_rank_detail_records_primes():
    x, y = x_(), y_()
    zero = Poly.zero(V2)
    detail = generic_rank_detail([[x, zero], [zero, y]], seed=0)
    assert detail.rank == 2
    assert len(detail.prime_samples) >= 3
    for primes in detail.prime_samples:
        assert len(set(primes)) == len(primes)  # distinct primes per sample
    again = generic_rank_detail([[x, zero], [zero, y]], seed=0)
    assert again.prime_samples == detail.prime_samples  # seeded, reproducible


def test_generic_rank_detail_beyond_fifty_variables():
    variables = tuple(f"t{k}" for k in range(51))
    entry = Poly.linear(variables, [1] * len(variables))
    detail = generic_rank_detail([[entry]], seed=0)
    assert detail.rank == 1
    assert detail.eval_ranks == (1, 1, 1)
    for primes in detail.prime_samples:
        assert len(primes) == 51 and len(set(primes)) == 51
    too_many = tuple(f"t{k}" for k in range(1230))  # 1229 primes below 10,000
    with pytest.raises(ContractError):
        generic_rank_detail([[Poly.linear(too_many, [1] * len(too_many))]])


def leibniz_det(entries):
    """Independent determinant oracle: the permutation expansion."""
    n = len(entries)
    variables = entries[0][0].variables
    total = Poly.zero(variables)
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = Poly.const(variables, -1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * entries[i][j]
        total = total + term
    return total


def random_linear_matrix(rng, nrows, ncols, variables, zero_share=0.3):
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            if rng.random() < zero_share:
                row.append(Poly.zero(variables))
            else:
                row.append(Poly.linear(variables, [rng.randint(-3, 3) for _ in variables]))
        rows.append(row)
    return rows


def make_rank_deficient(rng, entries):
    """Overwrite one row with a rational combination of two others, or
    zero out one column."""
    n = len(entries)
    if rng.random() < 0.5:
        a, b = rng.sample(range(n), 2)
        ca, cb = Rat(rng.randint(-2, 2)), Rat(rng.randint(1, 3), 2)
        target = rng.randrange(n)
        combo = [entries[a][j] * ca + entries[b][j] * cb for j in range(n)]
        entries[target] = combo
    else:
        col = rng.randrange(n)
        for row in entries:
            row[col] = Poly.zero(row[col].variables)
    return entries


def test_elimination_det_matches_leibniz_on_linear_forms():
    rng = random.Random(41)
    variables = ("a", "b", "c")
    deficient = 0
    for size in range(1, 6):
        for trial in range(12):
            entries = random_linear_matrix(rng, size, size, variables)
            if size >= 2 and trial % 3 == 0:
                entries = make_rank_deficient(rng, entries)
            expected = leibniz_det(entries)
            assert poly_det(entries) == expected
            rank, det = _eliminate(entries)
            assert det == expected
            assert (rank == size) == (not expected.is_zero())
            if rank < size:
                deficient += 1
            detail = generic_rank_detail(entries, seed=trial)
            assert (detail.rank, detail.det) == (rank, expected)
    assert deficient >= 10  # the rank-deficient branch really ran


def test_elimination_det_of_pseudo_triangular_matrix():
    # zero below the antidiagonal: det = eps * product of the antidiagonal,
    # eps = (-1)^(s(s-1)/2)
    rng = random.Random(5)
    variables = ("a", "b")
    for size in range(1, 7):
        entries = random_linear_matrix(rng, size, size, variables, zero_share=0.0)
        for i in range(size):
            for j in range(size):
                if i + j > size - 1:
                    entries[i][j] = Poly.zero(variables)
        product = Poly.const(variables, -1 if (size * (size - 1) // 2) % 2 else 1)
        for i in range(size):
            product = product * entries[i][size - 1 - i]
        assert poly_det(entries) == product
        if size <= 5:
            assert leibniz_det(entries) == product


def test_elimination_handles_nonlinear_entries():
    x, y = x_(), y_()
    one = Poly.const(V2, 1)
    entries = [[x * x, y, one], [x * y, x + y, y * y], [one, x, x * y * y]]
    assert poly_det(entries) == leibniz_det(entries)


def test_elimination_rank_on_rectangular_matrices():
    rng = random.Random(43)
    variables = ("a", "b", "c")
    point = [Rat(1009), Rat(1013), Rat(1019)]
    for nrows, ncols in [(1, 4), (2, 5), (3, 4), (4, 2), (5, 3), (4, 6), (6, 4)]:
        for trial in range(6):
            entries = random_linear_matrix(rng, nrows, ncols, variables, zero_share=0.4)
            if trial % 2 and nrows >= 2:
                entries[-1] = [p * Rat(2) for p in entries[0]]  # repeated row
            rank, det = _eliminate(entries)
            assert det is None
            at_point = [[p.eval(point) for p in row] for row in entries]
            assert rank == rank_kernel(at_point, ncols)[0]
            assert generic_rank_detail(entries, seed=trial).det is None


def test_poly_det_rejects_non_square():
    x, y = x_(), y_()
    with pytest.raises(ShapeError):
        poly_det([[x, y]])
