"""Exact linear algebra: rank/kernel, determinant, solving, interpolation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilab import (
    ContractError,
    DegreeMismatchError,
    Poly,
    Rat,
    ShapeError,
    interpolate_vector_poly,
    inverse,
)
from nilab.linalg import (
    _gauss_jordan,
    _int_rows,
    echelon_kernel,
    echelon_maps,
    echelon_rows,
    mat_mul,
    mat_vec,
    rank_kernel,
    rref,
    solve,
)
from nilab.poly import poly_det


def identity(n):
    return [[Rat(int(i == j)) for j in range(n)] for i in range(n)]


def random_rows(rng, nrows, ncols, low, high):
    return [[Rat(rng.randint(low, high)) for _ in range(ncols)] for _ in range(nrows)]


def sparse_rows(rng, nrows, ncols):
    """Random small entries, about 70 % of them zero."""
    return [
        [Rat(rng.randint(-3, 3)) if rng.random() < 0.3 else Rat(0) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def det(rows):
    """Determinant of a rational matrix through poly_det, the one Bareiss
    elimination, on constant polynomials in no variables."""
    return poly_det([[Poly.const((), v) for v in row] for row in rows]).eval(())


def cofactor_det(rows):
    """Independent determinant oracle: recursive cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Rat(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def dense_rref(rows, ncols):
    """Reference Gauss-Jordan elimination that updates every entry."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot = rows[r][c]
        rows[r] = [v / pivot for v in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def test_rref_matches_dense_reference_on_sparse_matrices():
    rng = random.Random(4)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows = sparse_rows(rng, nrows, ncols)
        expected_rows, expected_pivots = dense_rref(rows, ncols)
        work = [list(r) for r in rows]
        assert rref(work, ncols) == expected_pivots
        assert work == expected_rows


def fraction_rows(rng, nrows, ncols, density):
    """Random entries p/q with q in 2..7; each entry is nonzero with
    probability density."""
    return [
        [
            Rat(rng.randint(-9, 9), rng.randint(2, 7)) if rng.random() < density else Rat(0)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def deficient_rows(rng, nrows, ncols, rank, density):
    """nrows rows spanning at most rank dimensions: rank random rows and
    rational combinations of them (zero rows when rank is 0), shuffled."""
    base = fraction_rows(rng, rank, ncols, density)
    rows = list(base)
    while len(rows) < nrows:
        coeffs = [Rat(rng.randint(-3, 3), rng.randint(1, 4)) for _ in base]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), Rat(0)) for j in range(ncols)])
    rng.shuffle(rows)
    return rows


def kernel_test_matrices(seed):
    """(rows, ncols): sparse and dense fractional matrices, rank-deficient
    ones with zero rows, and matrices of Python ints."""
    rng = random.Random(seed)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        yield fraction_rows(rng, nrows, ncols, 0.25), ncols
        yield fraction_rows(rng, nrows, ncols, 1.0), ncols
        rank = rng.randint(0, min(nrows, ncols))
        rows = deficient_rows(rng, nrows, ncols, rank, rng.choice((0.3, 1.0)))
        rows.insert(rng.randint(0, nrows), [Rat(0)] * ncols)
        yield rows, ncols
        yield [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)], ncols
    yield [[0, 0, 0], [0, 0, 0]], 3
    yield [[Rat(0)] * 4, [Rat(1, 2), Rat(0), Rat(-3, 7), Rat(0)], [Rat(0)] * 4], 4


def reference_kernel(rows, ncols):
    """Kernel basis read off the textbook elimination, one vector per free
    column: 1 there, minus the echelon coefficients at the pivot columns."""
    reduced, pivots = dense_rref(rows, ncols)
    kernel = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Rat(0)] * ncols
        vec[f] = Rat(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        kernel.append(vec)
    return len(pivots), kernel


def all_rat(rows):
    return all(type(v) is Rat for row in rows for v in row)


def test_integer_kernel_matches_rational_gauss_jordan():
    for rows, ncols in kernel_test_matrices(31):
        rows = [[Rat(v) for v in row] for row in rows]
        expected_rows, expected_pivots = dense_rref(rows, ncols)
        work = [list(r) for r in rows]
        assert rref(work, ncols) == expected_pivots
        assert work == expected_rows and all_rat(work)
        rank, kernel = rank_kernel(rows, ncols)
        assert (rank, kernel) == reference_kernel(rows, ncols) and all_rat(kernel)


def test_integer_kernel_takes_int_rows_and_leaves_them_unchanged():
    for rows, ncols in kernel_test_matrices(37):
        before = [list(r) for r in rows]
        as_rat = [[Rat(v) for v in row] for row in rows]
        assert rank_kernel(rows, ncols) == rank_kernel(as_rat, ncols)
        work = list(rows)  # rref replaces the rows of the list, not their entries
        assert rref(work, ncols) == dense_rref(as_rat, ncols)[1]
        assert work == dense_rref(as_rat, ncols)[0] and all_rat(work)
        assert rows == before


def test_rref_of_rows_wider_than_ncols():
    # pivots only among the first ncols columns; the pivot rows are reduced
    # over the full width, and each row past the rank is zero on the first
    # ncols columns and a nonzero multiple of the textbook row past them
    rng = random.Random(41)
    for _ in range(60):
        nrows, ncols, extra = rng.randint(1, 6), rng.randint(1, 5), rng.randint(1, 3)
        rank = rng.randint(0, min(nrows, ncols))
        left = deficient_rows(rng, nrows, ncols, rank, rng.choice((0.3, 1.0)))
        rows = [row + fraction_rows(rng, 1, extra, 0.5)[0] for row in left]
        expected_rows, expected_pivots = dense_rref(rows, ncols)
        work = [list(r) for r in rows]
        assert rref(work, ncols) == expected_pivots
        rank = len(expected_pivots)
        assert work[:rank] == expected_rows[:rank] and all_rat(work)
        for got, want in zip(work[rank:], expected_rows[rank:]):
            assert not any(got[:ncols]) and not any(want[:ncols])
            nonzero = [(g, w) for g, w in zip(got, want) if g or w]
            assert all(g and w for g, w in nonzero)
            assert len({g / w for g, w in nonzero}) <= 1


def reference_solve(rows, ncols, rhs):
    reduced, pivots = dense_rref([list(r) + [Rat(b)] for r, b in zip(rows, rhs)], ncols)
    if any(row[ncols] for row in reduced[len(pivots) :]):
        return None
    x = [Rat(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = reduced[r][ncols]
    return x


def test_solve_matches_rational_reference():
    rng = random.Random(43)
    consistent = inconsistent = 0
    for rows, ncols in kernel_test_matrices(43):
        rows = [[Rat(v) for v in row] for row in rows]
        x0 = fraction_rows(rng, 1, ncols, 0.7)[0]
        for rhs in (mat_vec(rows, x0), fraction_rows(rng, 1, len(rows), 1.0)[0]):
            x = solve(rows, ncols, rhs)
            assert x == reference_solve(rows, ncols, rhs)
            if x is None:
                inconsistent += 1
            else:
                consistent += 1
                assert mat_vec(rows, x) == rhs and all(type(v) is Rat for v in x)
    assert consistent > 50 and inconsistent > 20
    # inconsistent by construction: row 2 is row 0 + row 1, its rhs is not
    rows = [[Rat(1, 2), Rat(0), Rat(3)], [Rat(0), Rat(2, 3), Rat(-1)]]
    rows.append([a + b for a, b in zip(*rows)])
    assert solve(rows, 3, [Rat(1), Rat(1, 5), Rat(6, 5)]) == reference_solve(
        rows, 3, [Rat(1), Rat(1, 5), Rat(6, 5)]
    )
    assert solve(rows, 3, [Rat(1), Rat(1, 5), Rat(7, 5)]) is None


def test_inverse_matches_rational_reference():
    rng = random.Random(47)
    invertible = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = fraction_rows(rng, n, n, rng.choice((0.4, 1.0)))
        eye = [[Rat(int(i == j)) for j in range(n)] for i in range(n)]
        reduced, pivots = dense_rref([r + e for r, e in zip(rows, eye)], n)
        if len(pivots) < n:
            with pytest.raises(ShapeError):
                inverse(rows)
            continue
        invertible += 1
        got = inverse(rows)
        assert got == [row[n:] for row in reduced] and all_rat(got)
        assert mat_mul(rows, got) == eye
    assert invertible > 20
    with pytest.raises(ShapeError):
        inverse(deficient_rows(rng, 4, 4, 3, 1.0))


def test_elimination_keeps_primitive_multiples_of_the_textbook_rows():
    # every integer row is primitive (its content is 1) and a nonzero
    # multiple of the row the rational elimination holds
    for rows, ncols in kernel_test_matrices(53):
        rows = [[Rat(v) for v in row] for row in rows]
        expected_rows, expected_pivots = dense_rref(rows, ncols)
        a = _int_rows(rows, ncols)
        assert all(math.gcd(*row) == 1 for row in a if any(row))
        assert _gauss_jordan(a, ncols) == expected_pivots
        for row, want in zip(a, expected_rows):
            assert all(type(v) is int for v in row)
            assert not any(row) or math.gcd(*row) == 1
            nonzero = [(g, w) for g, w in zip(row, want) if g or w]
            assert all(g and w for g, w in nonzero)
            assert len({Rat(g) / w for g, w in nonzero}) <= 1


def test_rows_with_zero_in_the_pivot_column_stay_untouched():
    # row 1 has a zero in the other pivot columns, so it is never rebuilt;
    # row 2 becomes 2 row 2 - row 0 = (0, 0, 7, -1), then row 0 becomes
    # 7 row 0 - row 2 = (14, 0, 0, 22), divided by its content 2
    a = [[2, 0, 1, 3], [0, -1, 0, 5], [1, 0, 4, 1]]
    rows = list(a)
    assert _gauss_jordan(a, 4) == [0, 1, 2]
    assert a == [[7, 0, 0, 11], [0, -1, 0, 5], [0, 0, 7, -1]]
    assert a[1] is rows[1]


def as_maps(rows):
    """The rows as {column: value} over their nonzero entries, the form
    echelon_kernel reads."""
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def assert_echelon_form(pivots, basis, want_rows, want_pivots):
    """basis is want_rows (rational reduced echelon rows) as primitive
    integer rows, each positive at its pivot."""
    assert pivots == want_pivots and len(basis) == len(want_rows)
    for row, c, want in zip(basis, pivots, want_rows):
        assert all(type(v) is int for v in row)
        assert row[c] > 0 and math.gcd(*row) == 1
        assert [Rat(v, row[c]) for v in row] == want


@st.composite
def kernel_inputs(draw):
    """(rows, ncols) of every shape: no rows, more rows than columns, zero
    and full-rank matrices, with fractional and string entries."""
    ncols = draw(st.integers(min_value=0, max_value=6))
    entry = st.one_of(
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=-4, max_value=4),
        st.builds(Rat, st.integers(-5, 5), st.integers(1, 4)),
        st.sampled_from(["3/4", "-2", "0"]),
    )
    kind = draw(st.sampled_from(["random", "zero", "full", "sparse"]))
    if kind == "zero":
        return [[0] * ncols for _ in range(draw(st.integers(0, 4)))], ncols
    if kind == "full":
        # upper triangular with a nonzero diagonal, rows shuffled
        rows = [
            [draw(st.integers(1, 5)) if j == i else draw(st.integers(-3, 3)) if j > i else 0
             for j in range(ncols)]
            for i in range(ncols)
        ]
        return draw(st.permutations(rows)), ncols
    nrows = draw(st.integers(min_value=0, max_value=8))
    if kind == "sparse":
        entry = st.one_of(st.just(0), st.just(0), entry)
    return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)], ncols


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
def test_right_to_left_kernel_is_the_echelon_form_of_the_kernel(case):
    # the kernel from one right-to-left elimination is already in reduced
    # echelon form: rref of rank_kernel's vectors, as echelon_rows gives it
    rows, ncols = case
    before = [list(r) for r in rows]
    rank, kernel = rank_kernel(rows, ncols)
    reduced = [list(v) for v in kernel]
    want_pivots = rref(reduced, ncols)
    maps = as_maps(rows)
    got_pivots, basis = echelon_kernel(maps, ncols)
    assert len(basis) == ncols - rank
    assert_echelon_form(got_pivots, basis, reduced[: len(want_pivots)], want_pivots)
    assert echelon_rows(kernel, ncols) == (got_pivots, basis)
    assert rows == before and maps == as_maps(rows)
    as_rat = [[Rat(v) for v in row] for row in rows]
    for vec in basis:
        assert not any(mat_vec(as_rat, vec))


@settings(max_examples=100, deadline=None)
@given(kernel_inputs())
def test_echelon_rows_are_the_positive_primitive_rref_rows(case):
    rows, ncols = case
    work = [list(r) for r in rows]
    pivots = rref(work, ncols)
    got = echelon_rows(rows, ncols)
    assert_echelon_form(*got, work[: len(pivots)], pivots)


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
def test_left_to_right_sparse_elimination_gives_the_echelon_rows(case):
    # echelon_maps, one sparse elimination with each row's leftmost entry as
    # its pivot, gives the rows echelon_rows gives on the dense rows
    rows, ncols = case
    maps = as_maps(rows)
    assert echelon_maps(maps, ncols) == echelon_rows(rows, ncols)
    assert maps == as_maps(rows)


def test_echelon_kernel_edge_shapes():
    assert echelon_kernel([], 3) == ([0, 1, 2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert echelon_kernel(as_maps([[0, 0, 0], [0, 0, 0]]), 3) == echelon_kernel([], 3)
    assert echelon_kernel([{0: 0, 2: 0}, {}], 3) == echelon_kernel([], 3)
    assert echelon_kernel(as_maps([[2, 1], [1, 1]]), 2) == ([], [])
    assert echelon_kernel([], 0) == ([], [])
    # free column 0 is left of pivot column 1: the kernel vector starts at 0
    assert echelon_kernel(as_maps([[2, -3]]), 2) == ([0], [[3, 2]])
    assert rank_kernel([[2, -3]], 2)[1] == [[Rat(3, 2), Rat(1)]]
    for fn, form in ((echelon_kernel, as_maps), (echelon_rows, list), (rank_kernel, list)):
        with pytest.raises(ShapeError):
            fn(form([[1, 2, 3]]), 2)  # rows wider than ncols
        with pytest.raises(ShapeError):
            fn(form([[1, 2], [1, 2, 3]]), 2)


def integer_rows_of_rank(rng, nrows, ncols, rank, fill):
    """nrows integer rows spanning at most rank dimensions: rank random
    rows with entries nonzero with probability fill, integer combinations
    of them, one zero row and one duplicate row, shuffled."""
    base = [[rng.randint(-6, 6) if rng.random() < fill else 0 for _ in range(ncols)]
            for _ in range(rank)]
    rows = [list(b) for b in base]
    while len(rows) < nrows:
        coeffs = [rng.choice((0, 0, 1, -1, 2, -3)) for _ in base]
        rows.append([sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(ncols)])
    rows.append([0] * ncols)
    rows.append(list(rng.choice(rows)))
    rng.shuffle(rows)
    return rows


def test_sparse_kernel_matches_the_rational_reference_on_seeded_matrices():
    # echelon_kernel eliminates the nonzero entries right to left, rank_kernel
    # runs the dense left-to-right elimination in rationals: they must span
    # one kernel, so the sparse basis is the echelon form of the reference's
    rng = random.Random(61)
    shapes = fills = 0
    for ncols in range(13):
        for fill in (1.0, 0.1):
            for _ in range(6):
                nrows = rng.randint(0, 2 * ncols + 2)
                rank = rng.randint(0, min(nrows, ncols))
                rows = integer_rows_of_rank(rng, nrows, ncols, rank, fill)
                want_rank, kernel = rank_kernel(rows, ncols)
                maps = as_maps(rows)
                pivots, basis = echelon_kernel(maps, ncols)
                assert len(basis) == ncols - want_rank, (ncols, rows)
                assert (pivots, basis) == echelon_rows(kernel, ncols), (ncols, rows)
                assert all(not any(mat_vec(rows, vec)) for vec in basis)
                assert maps == as_maps(rows)  # the input is not changed
                shapes += 1
                fills += fill < 1 and 0 < want_rank < ncols
    assert shapes == 13 * 2 * 6 and fills > 10


def test_echelon_kernel_refuses_a_column_outside_the_matrix():
    # a sparse row names its columns, so a key past either end is what a
    # dense row of the wrong length is: ShapeError, not a wider matrix
    for row in ({0: 1, 2: 1}, {-1: 1}, {3: 0}, {5: 2, 0: 1}):
        with pytest.raises(ShapeError):
            echelon_kernel([{0: 1}, row], 2)
    with pytest.raises(ShapeError):
        echelon_kernel([{0: 1}], 0)
    assert echelon_kernel([{1: 1}, {0: 0}], 2) == ([0], [[1, 0]])


def test_rat_always_reduced_positive_denominator():
    q = Rat(2, 4)
    assert q.numerator == 1 and q.denominator == 2
    q = Rat(1, -2)
    assert q.numerator == -1 and q.denominator == 2
    assert Rat(6, 3) == 2


def test_rank_kernel_identity():
    rank, kernel = rank_kernel(identity(2), 2)
    assert rank == 2 and kernel == []


def test_rank_kernel_zero_matrix():
    rank, kernel = rank_kernel([[0, 0], [0, 0]], 2)
    assert rank == 0 and len(kernel) == 2


def test_rank_kernel_rank_one():
    # hand elimination: row 2 = 2 * row 1, kernel spanned by (-2, 1)
    rank, kernel = rank_kernel([[1, 2], [2, 4]], 2)
    assert rank == 1
    assert len(kernel) == 1
    assert kernel[0] == [Rat(-2), Rat(1)]


def test_kernel_vectors_annihilated():
    rng = random.Random(11)
    for _ in range(20):
        m = random_rows(rng, 4, 5, -4, 4)
        rank, kernel = rank_kernel(m, 5)
        assert rank + len(kernel) == 5
        for vec in kernel:
            assert all(v == 0 for v in mat_vec(m, vec))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    )
)
def test_rank_nullity_property(rows):
    rank, kernel = rank_kernel(rows, 3)
    assert rank + len(kernel) == 3
    for vec in kernel:
        assert all(v == 0 for v in mat_vec(rows, vec))


def test_det_trivial_cases():
    assert det(identity(3)) == 1
    assert det([[0, 1], [1, 0]]) == -1


def test_det_against_cofactor_oracle():
    assert det([[2, 3], [4, 5]]) == cofactor_det([[2, 3], [4, 5]]) == -2
    rng = random.Random(5)
    for _ in range(20):
        rows = [[Rat(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)] for _ in range(4)]
        assert det(rows) == cofactor_det(rows)


def test_det_multiplicative():
    rng = random.Random(17)
    for _ in range(20):
        a = random_rows(rng, 4, 4, -5, 5)
        b = random_rows(rng, 4, 4, -5, 5)
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_det_rejects_non_square():
    with pytest.raises(ShapeError):
        det([[0, 0, 0], [0, 0, 0]])


def test_solve_particular_and_inconsistent():
    m = [[1, 2], [2, 4]]
    assert solve(m, 2, [1, 2]) == [Rat(1), Rat(0)]  # free variable pinned to zero
    assert solve(m, 2, [1, 3]) is None
    x = solve([[2, "1/3"]], 2, ["-5/10"])  # int and string entries become Rat
    assert x == [Rat(-1, 4), Rat(0)] and all(type(v) is Rat for v in x)


def test_inverse_round_trip():
    m = [[2, 1], [7, 4]]
    assert mat_mul(m, inverse(m)) == identity(2)
    with pytest.raises(ShapeError):
        inverse([[1, 2], [2, 4]])


def test_interpolate_constant():
    coeffs = interpolate_vector_poly([(0, [5, 7]), (1, [5, 7])], 0)
    assert coeffs == [[Rat(5), Rat(7)]]


def test_interpolate_square():
    coeffs = interpolate_vector_poly([(0, [0]), (1, [1]), (2, [4])], 2)
    assert coeffs == [[Rat(0)], [Rat(0)], [Rat(1)]]


def test_interpolate_reproduces_samples():
    rng = random.Random(3)
    for _ in range(20):
        true = [[Rat(rng.randint(-5, 5)) for _ in range(3)] for _ in range(4)]
        samples = []
        for t in range(6):  # over-determined on purpose
            t = Rat(t)
            value = [sum((true[k][j] * t**k for k in range(4)), Rat(0)) for j in range(3)]
            samples.append((t, value))
        assert interpolate_vector_poly(samples, 3) == true


def test_interpolate_rejects_repeated_nodes():
    with pytest.raises(ContractError):
        interpolate_vector_poly([(1, [0]), (1, [1])], 1)


def test_interpolate_rejects_too_few_samples():
    with pytest.raises(ContractError):
        interpolate_vector_poly([(0, [1])], 1)


def test_interpolate_degree_mismatch():
    # values of t^2 declared as degree 1
    samples = [(0, [0]), (1, [1]), (2, [4])]
    with pytest.raises(DegreeMismatchError):
        interpolate_vector_poly(samples, 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3))
def test_interpolate_round_trip_property(coeff_ints):
    coeffs = [[Rat(c)] for c in coeff_ints]
    samples = []
    for t in range(len(coeffs)):
        t = Rat(t)
        samples.append((t, [sum((coeffs[k][0] * t**k for k in range(len(coeffs))), Rat(0))]))
    assert interpolate_vector_poly(samples, len(coeffs) - 1) == coeffs


def test_interpolate_rational_nodes_vector_values_and_extra_samples():
    # distinct rational nodes in any order, degrees 0-6, widths 1-4 and up
    # to two extra samples: consistent ones give the coefficients back, and
    # moving one entry of the last extra sample raises DegreeMismatchError
    rng = random.Random(67)

    def rational():
        return Rat(rng.randint(-9, 9), rng.randint(1, 6))

    mismatches = 0
    for _ in range(150):
        degree, width, extra = rng.randint(0, 6), rng.randint(1, 4), rng.randint(0, 2)
        coeffs = [[rational() for _ in range(width)] for _ in range(degree + 1)]
        nodes = set()
        while len(nodes) < degree + 1 + extra:
            nodes.add(rational())
        samples = [
            (t, [sum((c[j] * t**k for k, c in enumerate(coeffs)), Rat(0)) for j in range(width)])
            for t in rng.sample(sorted(nodes), len(nodes))
        ]
        assert interpolate_vector_poly(samples, degree) == coeffs
        if extra:
            t, value = samples[-1]
            moved = list(value)
            moved[rng.randrange(width)] += Rat(rng.randint(1, 9), rng.randint(1, 6))
            with pytest.raises(DegreeMismatchError):
                interpolate_vector_poly([*samples[:-1], (t, moved)], degree)
            mismatches += 1
    assert mismatches > 50


def test_ragged_rows_raise_shape_error():
    ragged = [[1, 2, 3], [4, 5]]
    with pytest.raises(ShapeError):
        rank_kernel(ragged, 3)
    with pytest.raises(ShapeError):
        solve(ragged, 3, [0, 0])
    with pytest.raises(ShapeError):
        rank_kernel([[1, 2, 3]], 2)  # a row longer than ncols


def test_non_square_input_raises_shape_error():
    for rows in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]]):
        with pytest.raises(ShapeError):
            inverse(rows)
        with pytest.raises(ShapeError):
            det(rows)


def test_rank_kernel_of_no_rows_is_everything():
    rank, kernel = rank_kernel([], 3)
    assert rank == 0
    assert kernel == identity(3)


def test_inputs_are_not_changed():
    rows = [[Rat(2), Rat(1)], [Rat(7), Rat(4)]]
    before = [list(r) for r in rows]
    rank_kernel(rows, 2)
    solve(rows, 2, [1, 1])
    inverse(rows)
    det(rows)
    assert rows == before


def test_mat_mul_matches_naive_triple_loop():
    rng = random.Random(23)
    for _ in range(40):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a, b = sparse_rows(rng, n, k), sparse_rows(rng, k, m)
        naive = [
            [sum((a[i][t] * b[t][j] for t in range(k)), Rat(0)) for j in range(m)]
            for i in range(n)
        ]
        assert mat_mul(a, b) == naive
    with pytest.raises(ShapeError):
        mat_mul([[1, 2]], [[1, 2]])


def test_mat_vec_matches_rows_times_vector():
    rows = [[Rat(1), Rat(2), Rat(0)], [Rat(0), Rat(-1), Rat(3)]]
    assert mat_vec(rows, [Rat(1), Rat(0), Rat(2)]) == [Rat(1), Rat(6)]
    with pytest.raises(ShapeError):
        mat_vec(rows, [Rat(1)])
