"""Multivariate polynomials: arithmetic, determinants, generic rank."""

import random

import pytest

from nilab import ContractError, Mat, Poly, Rat, generic_rank, poly_det, rank_kernel
from nilab.poly import generic_rank_detail

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
        numeric = Mat.from_rows([[p.eval([0]) for p in row] for row in entries])
        from nilab import det

        assert sym.eval([0]) == det(numeric)


def test_generic_rank_diagonal():
    x, y = x_(), y_()
    zero = Poly.zero(V2)
    assert generic_rank([[x, zero], [zero, y]]) == 2


def test_generic_rank_repeated_row():
    x, y = x_(), y_()
    assert generic_rank([[x, y], [x, y]]) == 1


def test_generic_rank_bracket_matrix_shape():
    # the regular sl(3) bracket matrix in center coordinates:
    # [[8 t0, 24 t1], [24 t1, 0]]; rank 2 since the determinant -576 t1^2
    # is nonzero (evaluate at t0 = 0, t1 = 1).
    t0, t1 = Poly.variable(V2, 0), Poly.variable(V2, 1)
    zero = Poly.zero(V2)
    m = [[8 * t0, 24 * t1], [24 * t1, zero]]
    assert generic_rank(m) == 2
    assert poly_det(m).eval([0, 1]) == -576


def test_generic_rank_rejects_nonlinear():
    x = x_()
    with pytest.raises(ContractError):
        generic_rank([[x * x]])


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
        symbolic = generic_rank(entries)
        best = 0
        for _ in range(10):
            point = [Rat(rng.randint(-50, 50)) for _ in range(3)]
            m = Mat(3, 4, [p.eval(point) for row in entries for p in row])
            best = max(best, rank_kernel(m)[0])
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
