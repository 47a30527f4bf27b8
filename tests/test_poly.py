"""Multivariate polynomials: arithmetic, determinants, generic rank."""

import random
from itertools import permutations

import pytest

from nilab import (
    ContractError,
    InternalError,
    Poly,
    Rat,
    ShapeError,
    generic_rank_detail,
)
from nilab.linalg import rank_kernel
from nilab.poly import _cleared, _eliminate, _quo, generic_rank_detail, poly_det

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


def int_terms(p):
    """p as the elimination's integer term map (p must have integer
    coefficients)."""
    den, rows = _cleared([[p]])
    assert den == 1
    return rows[0][0]


def test_exact_division():
    # the elimination's integer quotient: exact, or InternalError
    x, y = x_(), y_()
    num = (x + y) * (x * x - 2 * y)
    assert _quo(int_terms(num), int_terms(x + y)) == int_terms(x * x - 2 * y)
    with pytest.raises(InternalError):  # a remainder y: a negative exponent
        _quo(int_terms(num + y), int_terms(x + y))
    with pytest.raises(InternalError):  # 2x / 3x is not integral
        _quo(int_terms(2 * x), int_terms(3 * x))


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


def eliminate(entries):
    """(rank, det) of the one elimination, on the cleared matrix."""
    return _eliminate(*_cleared(entries), entries[0][0].variables)


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
    # at half zeros most steps leave some rows below the pivot untouched
    rng = random.Random(41)
    variables = ("a", "b", "c")
    deficient = 0
    for size, zero_share in [(size, share) for share in (0.3, 0.5) for size in range(1, 6)]:
        for trial in range(12):
            entries = random_linear_matrix(rng, size, size, variables, zero_share)
            if size >= 2 and trial % 3 == 0:
                entries = make_rank_deficient(rng, entries)
            expected = leibniz_det(entries)
            assert poly_det(entries) == expected
            rank, det = eliminate(entries)
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


def test_lazy_elimination_touches_no_row_below_a_pseudo_triangular_pivot(monkeypatch):
    # every row below the pivot is zero in the pivot column, so no row is
    # updated: each pivot row is only brought up to date when it is reached.
    # It was never touched, so that is one product per entry, by the last
    # pivot, and no division
    import nilab.poly as poly_module

    counts = {"mul": 0, "quo": 0}
    real_mul, real_quo = poly_module._mul, poly_module._quo

    def mul(a, b):
        counts["mul"] += 1
        return real_mul(a, b)

    def quo(a, b):
        counts["quo"] += 1
        return real_quo(a, b)

    monkeypatch.setattr(poly_module, "_mul", mul)
    monkeypatch.setattr(poly_module, "_quo", quo)
    rng = random.Random(7)
    variables = ("a", "b")
    for size in range(1, 7):
        entries = [
            [Poly.linear(variables, [rng.randint(1, 3), rng.randint(1, 3)])
             if i + j <= size - 1 else Poly.zero(variables) for j in range(size)]
            for i in range(size)
        ]
        counts.update(mul=0, quo=0)
        rank, det = eliminate(entries)
        assert (counts["mul"], counts["quo"]) == (size * (size - 1) // 2, 0)
        product = Poly.const(variables, -1 if (size * (size - 1) // 2) % 2 else 1)
        for i in range(size):
            product = product * entries[i][size - 1 - i]
        assert rank == size and det == product


def test_lazy_elimination_catches_up_stale_rows_swapped_into_the_pivot_row():
    # columns are read right to left, and a row is left at the last pivot it
    # was brought to while its entry in the pivot column is zero
    a, b = x_(), y_()
    zero = Poly.zero(V2)
    # row 1 is brought to the first pivot and row 2 to the second; row 3
    # stays at the start for three pivots.  At the third pivot row 2 is zero
    # in the column and the stale row 3 is swapped in; at the fourth the
    # stale row 4 has an entry there and takes the step at once
    entries = [
        [a, b, zero, a, b],
        [b, a, zero, b, a],
        [a + b, a, zero, a - b, zero],
        [b, a + b, a, zero, zero],
        [a - b, b, b, zero, zero],
    ]
    expected = leibniz_det(entries)
    assert not expected.is_zero()
    assert eliminate(entries) == (5, expected)
    assert poly_det(entries) == expected
    # the same rows in other orders, and with a column of zeros
    for perm in [(2, 0, 3, 1, 4), (3, 4, 2, 1, 0), (4, 3, 0, 2, 1)]:
        rows = [entries[i] for i in perm]
        assert eliminate(rows) == (5, leibniz_det(rows))
    rows = [[zero if j == 1 else p for j, p in enumerate(row)] for row in entries]
    assert eliminate(rows) == (4, Poly.zero(V2))
    # row 2 is brought to the first pivot only; the stale row 3 is swapped
    # past it at the third, and at the fourth it is swapped once more
    entries = [
        [a, a, zero, zero, a],
        [b, a, a, a, zero],
        [a, b, zero, zero, b],
        [a, b, b, zero, zero],
        [a + b, b, a, b, a - b],
    ]
    assert eliminate(entries) == (5, leibniz_det(entries))
    # singular: rows 0 and 3 agree and row 4 is zero.  Row 2 is brought to
    # the first pivot, then the stale row 5 is swapped past it, and then it
    # is swapped into the pivot row past row 3, brought to the second pivot
    entries = [
        [zero, zero, zero, zero, b, zero],
        [zero, zero, a + b, zero, zero, a - b],
        [zero, zero, zero, zero, zero, b],
        [zero, zero, zero, zero, b, zero],
        [zero] * 6,
        [zero, zero, zero, b, zero, zero],
    ]
    assert leibniz_det(entries).is_zero()
    assert eliminate(entries) == (4, Poly.zero(V2))
    assert generic_rank_detail(entries).rank == 4


def test_elimination_handles_nonlinear_entries():
    x, y = x_(), y_()
    one = Poly.const(V2, 1)
    entries = [[x * x, y, one], [x * y, x + y, y * y], [one, x, x * y * y]]
    assert poly_det(entries) == leibniz_det(entries)


def test_elimination_rank_on_rectangular_matrices():
    rng = random.Random(43)
    variables = ("a", "b", "c")
    point = [Rat(1009), Rat(1013), Rat(1019)]
    shapes = [(1, 4, 0.4), (2, 5, 0.4), (3, 4, 0.4), (4, 2, 0.4), (5, 3, 0.4), (4, 6, 0.4),
              (6, 4, 0.4), (5, 2, 0.6), (7, 4, 0.6)]
    for nrows, ncols, zero_share in shapes:
        for trial in range(6):
            entries = random_linear_matrix(rng, nrows, ncols, variables, zero_share)
            if trial % 2 and nrows >= 2:
                entries[-1] = [p * Rat(2) for p in entries[0]]  # repeated row
            rank, det = eliminate(entries)
            assert det is None
            at_point = [[p.eval(point) for p in row] for row in entries]
            assert rank == rank_kernel(at_point, ncols)[0]
            assert generic_rank_detail(entries, seed=trial).det is None


def test_generic_rank_cross_check_catches_a_lost_pivot(monkeypatch):
    # the prime-point ranks check the symbolic rank: an echelon_rows that
    # drops one pivot at every point must be refused
    import nilab.poly as poly_module

    real = poly_module.echelon_rows

    def dropping(rows, ncols):
        pivots, basis = real(rows, ncols)
        return pivots[:-1], basis[:-1]

    x, y = x_(), y_()
    entries = [[x, y], [y, x]]
    assert generic_rank_detail(entries).rank == 2
    monkeypatch.setattr(poly_module, "echelon_rows", dropping)
    message = r"generic rank cross-check mismatch: symbolic 2, evaluations \[1, 1, 1\]"
    with pytest.raises(InternalError, match=message):
        generic_rank_detail(entries)


def test_poly_det_rejects_non_square():
    x, y = x_(), y_()
    with pytest.raises(ShapeError):
        poly_det([[x, y]])


def rational_linear_matrix(rng, nrows, ncols, variables, zero_share=0.3):
    """Linear forms whose coefficients have denominators 1, 2, 3, 5 and 7."""
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            if rng.random() < zero_share:
                row.append(Poly.zero(variables))
            else:
                coeffs = [Rat(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7))) for _ in variables]
                row.append(Poly.linear(variables, coeffs))
        rows.append(row)
    return rows


def rational_eval_ranks(entries, detail):
    """The rank of the matrix at each prime point of detail, evaluated in Rat
    and ranked by the rational reference."""
    ncols = len(entries[0])
    ranks = []
    for primes in detail.prime_samples:
        point = [Rat(p) for p in primes]
        ranks.append(rank_kernel([[p.eval(point) for p in row] for row in entries], ncols)[0])
    return tuple(ranks)


def test_integer_elimination_matches_leibniz_with_denominators():
    # the elimination clears the common denominator D and divides det by
    # D^s once: compare with the permutation expansion in Rat
    rng = random.Random(61)
    variables = ("a", "b", "c")
    dens = set()
    for size in range(1, 6):
        for trial in range(8):
            entries = rational_linear_matrix(rng, size, size, variables)
            if size >= 2 and trial % 4 == 3:
                entries = make_rank_deficient(rng, entries)
            dens.update(c.denominator for row in entries for p in row for c in p.terms.values())
            expected = leibniz_det(entries)
            rank, det = eliminate(entries)
            assert det == expected
            assert (rank == size) == (not expected.is_zero())
            detail = generic_rank_detail(entries, seed=trial)
            assert (detail.rank, detail.det) == (rank, expected)
            assert detail.eval_ranks == rational_eval_ranks(entries, detail)
    assert {2, 3, 5, 7} <= dens


def test_integer_elimination_rank_on_rational_rectangular_matrices():
    rng = random.Random(67)
    variables = ("a", "b", "c")
    for nrows, ncols in [(1, 3), (2, 4), (3, 2), (4, 3), (3, 5), (5, 4)]:
        for trial in range(4):
            entries = rational_linear_matrix(rng, nrows, ncols, variables, zero_share=0.4)
            if trial % 2 and nrows >= 2:
                entries[-1] = [p * Rat(3, 7) for p in entries[0]]  # repeated row
            detail = generic_rank_detail(entries, seed=trial)
            assert detail.det is None
            assert detail.eval_ranks == rational_eval_ranks(entries, detail)
            assert detail.rank == max(detail.eval_ranks) == eliminate(entries)[0]


def test_integer_elimination_row_swap_sign():
    # the rightmost column's first nonzero entry is not in the first row,
    # so the elimination swaps rows; its sign must reach the determinant
    a, b = x_(), y_()
    zero = Poly.zero(V2)
    half = Poly.const(V2, Rat(1, 2))
    cases = [
        [[a, zero], [b, a]],
        [[a * half, b, zero], [b, a, a], [a + b, b, a * half]],
        [[b, a, zero], [a, zero, zero], [zero, b, a]],
        [[zero, a, zero], [a, b, zero], [b, a, b * half]],
    ]
    for entries in cases:
        assert entries[0][-1].is_zero()
        expected = leibniz_det(entries)
        assert not expected.is_zero()
        assert poly_det(entries) == expected
    assert poly_det(cases[0]) == a * a


def test_integer_elimination_of_zero_variable_constants():
    rng = random.Random(71)
    for size in range(1, 6):
        for trial in range(6):
            entries = [
                [Poly.const((), Rat(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7))))
                 for _ in range(size)]
                for _ in range(size)
            ]
            if size >= 2 and trial % 3 == 0:
                entries[-1] = [p * Rat(-5, 3) for p in entries[0]]
            expected = leibniz_det(entries)
            rank, det = eliminate(entries)
            assert det == expected and det.variables == ()
            assert rank == rank_kernel([[p.eval(()) for p in row] for row in entries], size)[0]


def test_prime_evaluation_reads_each_variable_at_its_own_prime():
    # p1 t0 - p0 t1 vanishes at the first prime point (p0, p1) and nowhere
    # else it is evaluated; a point with its primes permuted would not see it
    probe = generic_rank_detail([[Poly.linear(V2, [1, 1])]], seed=3)
    p0, p1 = probe.prime_samples[0]
    entries = [[Poly.linear(V2, [p1, -p0])]]
    detail = generic_rank_detail(entries, seed=3)
    assert detail.prime_samples == probe.prime_samples
    assert detail.eval_ranks == rational_eval_ranks(entries, detail)
    assert detail.eval_ranks[0] == 0 and detail.rank == 1
