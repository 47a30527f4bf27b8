"""Algebra realizations: brackets, trace form, subspace calculus."""

import heapq
import math
import random
import sys
from collections import Counter
from functools import lru_cache

import pytest

import nilab.algebras
import nilab.index
import nilab.linalg
from nilab import (
    ContractError,
    Element,
    ShapeError,
    GraduationError,
    Partition,
    PartitionError,
    Poly,
    Rat,
    Subspace,
    UnsupportedAlgebraError,
    analyze_orbit,
    bracket,
    build_algebra,
    build_pair_data,
    center_of,
    centralizer,
    h_graduation,
    nilpotent_from_partition,
    principal_triplet,
    sl2_complete,
    trace_form,
    triple_from_partition,
    unipotent_conjugate,
    valid_partitions,
)
from nilab.algebras import ad_matrix, normalizer_of, preimage
from nilab.index import _family_rank_for_size
from nilab.invariants import make_samples, verify_field_identities
from nilab.linalg import (
    _int_rows,
    echelon_kernel,
    echelon_rows,
    inverse,
    mat_mul,
    mat_vec,
    rank_kernel,
    rref,
)
from nilab.poly import poly_det

from readoff import dense_coords_of_rows

EXPECTED_DIMS = {
    ("A", 1): 3,
    ("A", 2): 8,
    ("A", 3): 15,
    ("B", 2): 10,
    ("B", 3): 21,
    ("C", 2): 10,
    ("C", 3): 21,
    ("D", 2): 6,
    ("D", 3): 15,
}


def E(n, i, j):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return rows


def identity(n):
    return [[Rat(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


# Rational views of a subspace for the references below, which eliminate in
# Rat; cached per subspace, since the references read them again and again.


@lru_cache(maxsize=16)
def rat_rows(s):
    """The reduced echelon rows of s as tuples of Rat, I_r / I_r[c_r]."""
    return tuple(tuple(Rat(v, row[c]) for v in row) for row, c in zip(s.num_rows, s.pivots))


@lru_cache(maxsize=16)
def rat_bracket_table(s):
    """The nonzero coordinates (t, coordinate t) in the basis of s of
    [b_a, b_b], for every a < b, as table[a][b - a - 1]: the integer table
    of Subspace._brackets over I_a[c_a] I_b[c_b].  Building it checks that s
    is a subalgebra (ContractError otherwise)."""
    dens = [row[c] for row, c in zip(s.num_rows, s.pivots)]
    return [
        [
            tuple((t, Rat(g, dens[a] * dens[b])) for t, g in terms)
            for b, terms in enumerate(line, start=a + 1)
        ]
        for a, line in enumerate(s._brackets())
    ]


@pytest.mark.parametrize("family,rank", sorted(EXPECTED_DIMS))
def test_dimensions_and_degrees(family, rank):
    alg = build_algebra(family, rank)
    assert alg.dim == EXPECTED_DIMS[(family, rank)]
    assert len(alg.generator_degrees) == rank
    assert list(alg.generator_degrees) == sorted(alg.generator_degrees)


def test_generator_degree_tables():
    assert build_algebra("A", 1).generator_degrees == (2,)
    assert build_algebra("A", 2).generator_degrees == (2, 3)
    assert build_algebra("A", 3).generator_degrees == (2, 3, 4)
    assert build_algebra("B", 3).generator_degrees == (2, 4, 6)
    assert build_algebra("C", 2).generator_degrees == (2, 4)
    assert build_algebra("D", 3).generator_degrees == (2, 3, 4)
    assert build_algebra("D", 4).generator_degrees == (2, 4, 4, 6)
    assert not build_algebra("D", 4).distinct_exponents


def test_unsupported_families():
    with pytest.raises(UnsupportedAlgebraError):
        build_algebra("D", 1)
    with pytest.raises(UnsupportedAlgebraError):
        build_algebra("E", 6)
    with pytest.raises(UnsupportedAlgebraError):
        build_algebra("A", 0)


# matrix size N of rank r: sl(r+1), so(2r+1), sp(2r), so(2r)
CLOSED_FORM_SIZES = {
    "A": lambda r: r + 1, "B": lambda r: 2 * r + 1, "C": lambda r: 2 * r, "D": lambda r: 2 * r
}


@pytest.mark.parametrize("family", "ABCD")
def test_size_to_rank_inverts_the_rank_to_size_map(family):
    for rank in range(1, 13):
        n = nilab.algebras._matrix_size(family, rank)
        assert n == CLOSED_FORM_SIZES[family](rank)
        assert _family_rank_for_size(family, n) == rank
        assert _family_rank_for_size(family.lower(), n) == rank
        if rank <= 4 and (family, rank) != ("D", 1):
            assert build_algebra(family, rank).matrix_size_N == n


def test_size_to_rank_keeps_its_messages():
    for family, n, message in [
        ("B", 6, "B family needs odd matrix size"),
        ("C", 5, "C family needs even matrix size"),
        ("d", 7, "D family needs even matrix size"),
        ("E", 8, "unknown family 'E'"),
    ]:
        with pytest.raises(PartitionError) as info:
            _family_rank_for_size(family, n)
        assert str(info.value) == message


@pytest.mark.parametrize("family,rank", sorted(EXPECTED_DIMS))
def test_basis_satisfies_defining_equations(family, rank):
    alg = build_algebra(family, rank)
    basis = [alg.basis_element(k).matrix_rows() for k in range(alg.dim)]
    if alg.form is None:
        for b in basis:
            assert sum(b[i][i] for i in range(len(b))) == 0
    else:
        s = alg.form
        for b in basis:
            left, right = mat_mul(transpose(b), s), mat_mul(s, b)
            assert all(x + y == 0 for rl, rr in zip(left, right) for x, y in zip(rl, rr))


STANDARD_BASES = (
    [("A", r) for r in range(1, 9)]
    + [(f, r) for f in "BC" for r in range(1, 9)]
    + [("D", r) for r in range(2, 9)]
)


@pytest.mark.parametrize("family,rank", STANDARD_BASES)
def test_form_is_an_integer_signed_permutation(family, rank):
    # triples._congruence inverts the form S as its transpose, S^T S = I,
    # with S symmetric for so(n) and skew for sp(n), and reads S's one entry
    # per row on the antidiagonal
    s = build_algebra(family, rank).form
    if family == "A":
        assert s is None
        return
    n = len(s)
    assert all(type(v) is int for row in s for v in row)
    st = transpose(s)  # an integer S with S^T S = I is a signed permutation
    assert mat_mul(st, s) == [[int(i == j) for j in range(n)] for i in range(n)]
    sign = -1 if family == "C" else 1
    assert st == [[sign * v for v in row] for row in s]
    assert all(v == 0 for i, row in enumerate(s) for j, v in enumerate(row) if i + j != n - 1)


@pytest.mark.parametrize("family,rank", STANDARD_BASES)
def test_standard_bases_read_off_with_integer_pivot_inverse(family, rank):
    # each basis matrix is its nonzero integer entries in row-major order
    # (h_graduation reads its weight off the first), and the basis is in unit
    # echelon form: each first entry is 1, at a position where no earlier
    # basis matrix starts.  So the pivot block is unit lower triangular, its
    # inverse is integer, and coordinate k is read last at its own pivot.
    alg = build_algebra(family, rank)
    n = alg.matrix_size_N
    assert all(type(v) is int and v for b in alg._basis_sparse for _, _, v in b)
    assert all(b == sorted(set(b)) for b in alg._basis_sparse)
    firsts = [b[0] for b in alg._basis_sparse]
    assert all(v == 1 for _, _, v in firsts)
    positions = [i * n + j for i, j, _ in firsts]
    assert positions == sorted(set(positions))
    assert [terms[-1] for terms in coord_terms(alg)] == firsts


def coord_terms(alg):
    """Per coordinate k, the pivot reads (i, j, coefficient) of the forward
    substitution in ascending position, read off generic_read_off."""
    out = [[] for _ in range(alg.dim)]
    for i, j, terms in generic_read_off(alg):
        for k, c in terms:
            out[k].append((i, j, c))
    return tuple(map(tuple, out))


@lru_cache(maxsize=4)
def generic_read_off(alg):
    """The read-off by the generic route, as (i, j, ((k, coefficient), ...))
    for each pivot position (i, j) in ascending order: coordinate k is the
    sum of coefficient * R[i][j] over its pivot reads.  The pivots come from
    one elimination of the flattened dense basis, the coefficients from the
    inverse of the pivot block, which must be integer."""
    n = alg.matrix_size_N
    vecs = []
    for entries in alg._basis_sparse:
        vec = [0] * (n * n)
        for i, j, v in entries:
            vec[i * n + j] = v
        vecs.append(vec)
    pivots, _ = echelon_rows(vecs, n * n)
    assert len(pivots) == alg.dim
    inv = inverse([[vec[p] for vec in vecs] for p in pivots])
    assert math.lcm(*(c.denominator for line in inv for c in line)) == 1
    return tuple(
        (p // n, p % n, tuple((k, int(line[col])) for k, line in enumerate(inv) if line[col]))
        for col, p in enumerate(pivots)
    )


def ranks_up_to_size_20(family):
    least = 2 if family == "D" else 1
    return [r for r in range(least, 21) if nilab.algebras._matrix_size(family, r) <= 20]


def entries_of(rows):
    """The nonzero entries of an N x N matrix as {i N + j: value}."""
    n = len(rows)
    return {i * n + j: v for i, row in enumerate(rows) for j, v in enumerate(row) if v}


def nonzero(vec):
    """The nonzero entries {q: value} of a vector, the sparse form the
    subspace layer and echelon_kernel read."""
    return {q: v for q, v in enumerate(vec) if v}


@pytest.mark.parametrize("family", "ABCD")
def test_read_off_matches_the_generic_route_up_to_size_20(family):
    # the read-off, on dense rows and on nonzero entries, gives what the
    # integer inverse of the pivot block reads off the pivots
    rng = random.Random(f"generic:{family}")
    for rank in ranks_up_to_size_20(family):
        alg = build_algebra(family, rank)
        reads = generic_read_off(alg)
        for _ in range(2):
            rows, _ = alg.random_element(rng, 9).int_rows()
            want = [0] * alg.dim
            for i, j, terms in reads:
                for k, c in terms:
                    want[k] += c * rows[i][j]
            assert list(alg.coords_of_rows(rows).num) == want, (family, rank)
            assert alg._coords_of_entries(entries_of(rows)) == nonzero(want), (family, rank)


def _sparse_samples(alg, rng):
    """Seeded integer elements with den 1: a dense one, three with three
    nonzero coordinates, and on sl(n) two diagonal ones, diag(1, 0, ..., 0,
    -1) and a random one with zeros, whose read-off cascades: the
    coordinate at (i, i) fills in (i + 1, i + 1), the next pivot."""
    dim, n = alg.dim, alg.matrix_size_N
    out = [alg.random_element(rng, 9)]
    for _ in range(3):
        num = [0] * dim
        for k in rng.sample(range(dim), min(3, dim)):
            num[k] = rng.choice([-7, -2, -1, 1, 3, 8])
        out.append(nilab.algebras._element(alg, num, 1))
    if alg.family == "A":
        diagonals = [[1] + [0] * (n - 2) + [-1], [rng.choice([0, 0, 2, -3]) for _ in range(n)]]
        diagonals[1][-1] -= sum(diagonals[1])
        for d in diagonals:
            out.append(alg.from_matrix([[d[i] if i == j else 0 for j in range(n)] for i in range(n)]))
    return out


@pytest.mark.parametrize("family", "ABCD")
def test_entry_read_off_agrees_with_coords_of_rows_up_to_size_20(family):
    rng = random.Random(f"entries:{family}")
    for rank in ranks_up_to_size_20(family):
        alg = build_algebra(family, rank)
        for x in _sparse_samples(alg, rng):
            rows, den = x.int_rows()
            assert den == 1
            # the retired dense substitution is the reference
            want = dense_coords_of_rows(alg, rows).num
            assert want == x.num
            assert alg.coords_of_rows(rows) == x
            assert alg._coords_of_entries(entries_of(rows)) == nonzero(want), (family, rank)


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 4), ("B", 2), ("C", 3), ("D", 3)])
def test_entry_read_off_fills_in_only_positions_absent_from_the_entries(monkeypatch, family, rank):
    # the substitution walks the given entries in order and puts on a heap
    # only the positions it fills in, absent from them: a matrix with every
    # position of g present pushes nothing; an sl diagonal with interior
    # zeros, such as diag(1, 0, -1), cascades through fill-in and reads what
    # the dense substitution reads; an so/sp entry whose mirror is absent
    # fills the mirror in and leaves g, as does an sl diagonal with a trace
    alg = build_algebra(family, rank)
    n = alg.matrix_size_N
    rng = random.Random(f"fill-in:{family}{rank}")
    pushes = []
    real_push = heapq.heappush

    def counting_push(heap, q):
        pushes.append(q)
        real_push(heap, q)

    monkeypatch.setattr(nilab.algebras.heapq, "heappush", counting_push)

    def read(rows):
        pushes.clear()
        return alg._coords_of_entries(entries_of(rows))

    used = {i * n + j for entries in alg._basis_sparse for i, j, _ in entries}
    rows = alg.random_element(rng, 9).int_rows()[0]
    while set(entries_of(rows)) != used:
        rows = alg.random_element(rng, 9).int_rows()[0]
    assert read(rows) == nonzero(dense_coords_of_rows(alg, rows).num)
    assert pushes == []
    inside, outside = [], []
    if family == "A":
        rows = [line[:] for line in rows]
        rows[0][0], rows[1][1] = rows[0][0] + rows[1][1], 0
        inside.append(rows)
        for d in ([1] + [0] * (n - 2) + [-1], [2, 0, -3, 0, 1][:n - 1] + [0]):
            d[-1] -= sum(d)
            inside.append([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])
        outside.append([[int(i == j == 0) for j in range(n)] for i in range(n)])
    else:
        for entries in alg._basis_sparse:
            if len(entries) == 2:
                (i, j, _), (a, b, _) = entries
                rows_off = [line[:] for line in rows]
                rows_off[a][b] = 0  # the mirror of the entry at (i, j)
                outside.append(rows_off)
    for rows in inside:
        assert read(rows) == nonzero(dense_coords_of_rows(alg, rows).num), rows
        assert pushes and not set(pushes) & set(entries_of(rows))
    assert outside
    for rows in outside:
        assert read(rows) is None
        assert pushes and not set(pushes) & set(entries_of(rows))
        with pytest.raises(ContractError):
            dense_coords_of_rows(alg, rows)


@pytest.mark.parametrize(
    "family,rank",
    [("A", r) for r in range(1, 5)]
    + [(f, r) for f in "BC" for r in range(1, 4)]
    + [("D", r) for r in range(2, 5)],
)
def test_read_off_returns_each_basis_matrix_and_refuses_any_non_pivot_entry(family, rank):
    # every basis matrix reads back to its unit vector, and a 1 added at any
    # position no coordinate is read from leaves the coordinates as they
    # were, so only the residual, at that one position, refuses it; on the
    # nonzero entries alone the read-off returns None.  On so/sp these
    # positions include the mirror of every pivot.
    alg = build_algebra(family, rank)
    n = alg.matrix_size_N
    pivots = {(i, j) for i, j, _ in generic_read_off(alg)}
    others = [(i, j) for i in range(n) for j in range(n) if (i, j) not in pivots]
    assert len(others) == n * n - alg.dim
    for k in range(alg.dim):
        rows = [[0] * n for _ in range(n)]
        for i, j, v in alg._basis_sparse[k]:
            rows[i][j] = v
        assert alg.coords_of_rows(rows) == alg.basis_element(k)
        assert alg._coords_of_entries(entries_of(rows)) == {k: 1}
        for i, j in others:
            rows[i][j] += 1
            with pytest.raises(ContractError):
                alg.coords_of_rows(rows)
            assert alg._coords_of_entries(entries_of(rows)) is None, (k, i, j)
            rows[i][j] -= 1


@pytest.mark.parametrize(
    "family,ranks", [("A", (3, 9)), ("B", (2, 6)), ("C", (2, 6)), ("D", (3, 6))]
)
def test_build_algebra_runs_no_elimination(monkeypatch, family, ranks):
    # the basis is its own echelon form, so the read-off is set up without
    # one elimination; every linalg elimination runs one _gauss_jordan
    # (dense) or one _sparse_elimination (echelon_kernel)
    eliminations = (nilab.linalg._gauss_jordan, nilab.linalg._sparse_elimination)
    calls = []

    def counting(elimination):
        def call(*args):
            calls.append(elimination.__name__)
            return elimination(*args)

        return call

    for name, module in sorted(sys.modules.items()):
        if name == "nilab" or name.startswith("nilab."):
            for key, value in list(vars(module).items()):
                if any(value is f for f in eliminations):
                    monkeypatch.setattr(module, key, counting(value))
    for rank in ranks:
        build_algebra(family, rank)
    assert calls == []


@pytest.mark.parametrize(
    "family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3)]
)
def test_jacobi_identity_on_basis_triples(family, rank):
    alg = build_algebra(family, rank)
    basis = [alg.basis_element(k) for k in range(alg.dim)]
    memo = {}

    def br(a, b):
        """{k: coefficient} with [b_a, b_b] = sum coefficient * b_k."""
        if (a, b) not in memo:
            coords = bracket(basis[a], basis[b]).coords
            memo[a, b] = {k: c for k, c in enumerate(coords) if c}
        return memo[a, b]

    def combine(terms):
        out = {}
        for k, c in terms:
            out[k] = out.get(k, Rat(0)) + c
        return {k: c for k, c in out.items() if c != 0}

    dim = alg.dim
    rng = random.Random(1)
    triples = [(a, b, c) for a in range(dim) for b in range(dim) for c in range(dim)]
    if len(triples) > 4000:
        triples = rng.sample(triples, 4000)
    for a, b, c in triples:
        acc = []
        for k, v in br(a, b).items():
            acc.extend((t, v * w) for t, w in br(k, c).items())
        for k, v in br(b, c).items():
            acc.extend((t, v * w) for t, w in br(k, a).items())
        for k, v in br(c, a).items():
            acc.extend((t, v * w) for t, w in br(k, b).items())
        assert combine(acc) == {}


def test_structure_constants_antisymmetric():
    alg = build_algebra("B", 2)
    basis = [alg.basis_element(k) for k in range(alg.dim)]
    for x in basis:
        for y in basis:
            assert bracket(x, y) == -bracket(y, x)


def test_bracket_defining_relations_sl2():
    alg = build_algebra("A", 1)
    e = alg.from_matrix(E(2, 0, 1))
    f = alg.from_matrix(E(2, 1, 0))
    h = alg.from_matrix([[1, 0], [0, -1]])
    assert bracket(e, f) == h
    assert bracket(h, e) == e.scale(2)
    assert bracket(h, f) == f.scale(-2)


def test_bracket_sl3_root_vectors():
    alg = build_algebra("A", 2)
    e12 = alg.from_matrix(E(3, 0, 1))
    e23 = alg.from_matrix(E(3, 1, 2))
    e13 = alg.from_matrix(E(3, 0, 2))
    assert bracket(e12, e23) == e13


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_bracket_matches_dense_matrix_commutator(family, rank):
    # the right side uses mat_mul, independent of the bracket kernel
    alg = build_algebra(family, rank)
    rng = random.Random(5)
    for _ in range(4):
        for x, y in (
            (alg.random_element(rng), alg.random_element(rng)),
            (alg.random_upper_nilpotent(rng), alg.random_element(rng)),
            (alg.random_upper_nilpotent(rng), alg.basis_element(rng.randrange(alg.dim))),
        ):
            xm, ym = x.matrix_rows(), y.matrix_rows()
            assert bracket(x, y).matrix_rows() == mat_sub(mat_mul(xm, ym), mat_mul(ym, xm))


def test_element_coerces_int_and_string_coordinates():
    alg = build_algebra("A", 1)
    x = Element(alg, [1, "-3/4", Rat(2)])
    assert x.coords == (Rat(1), Rat(-3, 4), Rat(2))
    assert all(type(c) is Rat for c in x.coords)


def test_bracket_rejects_mixed_algebras():
    a1 = build_algebra("A", 1)
    a2 = build_algebra("A", 2)
    with pytest.raises(ContractError):
        bracket(a1.zero(), a2.zero())


def test_trace_form_values_sl2():
    alg = build_algebra("A", 1)
    e = alg.from_matrix(E(2, 0, 1))
    f = alg.from_matrix(E(2, 1, 0))
    h = alg.from_matrix([[1, 0], [0, -1]])
    assert trace_form(e, f) == 1
    assert trace_form(h, h) == 2
    assert trace_form(e, e) == 0


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("D", 3)])
def test_trace_form_invariance(family, rank):
    alg = build_algebra(family, rank)
    rng = random.Random(9)
    for _ in range(20):
        x, y, z = (alg.random_element(rng) for _ in range(3))
        assert trace_form(bracket(z, x), y) + trace_form(x, bracket(z, y)) == 0


def gram_matrix(alg):
    """Matrix of the trace form on the basis: entry (a, b) is T(b_a, b_b)."""
    basis = [alg.basis_element(k) for k in range(alg.dim)]
    return [[trace_form(x, y) for y in basis] for x in basis]


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("C", 2)])
def test_gram_nondegenerate(family, rank):
    alg = build_algebra(family, rank)
    gram = [[Poly.const((), v) for v in row] for row in gram_matrix(alg)]
    assert poly_det(gram).eval(()) != 0


def test_centralizer_regular_sl2():
    alg = build_algebra("A", 1)
    e = alg.from_matrix(E(2, 0, 1))
    z = centralizer(e)
    assert z.dim == 1 and z.contains(e)


def test_centralizer_regular_sl3():
    alg = build_algebra("A", 2)
    e = alg.from_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    e13 = alg.from_matrix(E(3, 0, 2))
    z = centralizer(e)
    assert z.dim == 2 and z.contains(e) and z.contains(e13)


def test_centralizer_subregular_sl3():
    alg = build_algebra("A", 2)
    z = centralizer(alg.from_matrix(E(3, 0, 1)))
    assert z.dim == 4


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2)])
def test_centralizer_dim_at_least_rank(family, rank):
    alg = build_algebra(family, rank)
    rng = random.Random(13)
    for _ in range(20):
        z = centralizer(alg.random_element(rng))
        assert z.dim >= alg.rank_r


def test_random_elements_are_regular():
    # a random element from a wide integer box is regular: the non-regular
    # locus is a proper subvariety, so hits are vanishingly rare
    alg = build_algebra("A", 2)
    rng = random.Random(29)
    hits = sum(1 for _ in range(20) if centralizer(alg.random_element(rng, 10)).dim == 2)
    assert hits == 20


def test_center_of_regular_centralizer_is_everything():
    alg = build_algebra("A", 2)
    e = alg.from_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    z = centralizer(e)
    assert center_of(z).same_space(z)  # regular centralizers are abelian


def test_center_of_subregular_centralizer():
    # brute-force oracle: z(E12) = span{E12, E13, E32, diag(1,1,-2)}; the
    # bracket conditions kill everything except the E12 line.
    alg = build_algebra("A", 2)
    e12 = alg.from_matrix(E(3, 0, 1))
    z = centralizer(e12)
    for rows in (E(3, 0, 1), E(3, 0, 2), E(3, 2, 1), [[1, 0, 0], [0, 1, 0], [0, 0, -2]]):
        assert z.contains(alg.from_matrix(rows))
    c = center_of(z)
    assert c.dim == 1 and c.contains(e12)


def test_center_of_whole_simple_algebra_is_zero():
    alg = build_algebra("A", 1)
    assert center_of(alg.full_space()).dim == 0


def test_center_of_rejects_non_subalgebra():
    alg = build_algebra("A", 1)
    e = alg.from_matrix(E(2, 0, 1))
    f = alg.from_matrix(E(2, 1, 0))
    span_ef = Subspace.from_elements(alg, [e, f])  # [e,f] = h escapes
    with pytest.raises(ContractError):
        center_of(span_ef)


def test_normalizer_of_root_line_is_borel_sl2():
    alg = build_algebra("A", 1)
    e = alg.from_matrix(E(2, 0, 1))
    h = alg.from_matrix([[1, 0], [0, -1]])
    nor = normalizer_of(Subspace.from_elements(alg, [e]))
    assert nor.dim == 2 and nor.contains(e) and nor.contains(h)


def test_normalizer_dim_is_z_plus_center():
    alg = build_algebra("A", 2)
    for rows in ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], E(3, 0, 1)):
        z = centralizer(alg.from_matrix(rows))
        eta = normalizer_of(z)
        assert eta.dim == z.dim + center_of(z).dim


def test_normalizer_of_whole_algebra():
    alg = build_algebra("A", 1)
    assert normalizer_of(alg.full_space()).dim == alg.dim


def test_h_graduation_adjoint_sl2():
    alg = build_algebra("A", 1)
    t = principal_triplet(alg)
    pieces = h_graduation(t.h, alg.full_space())
    assert [(lam, sp.dim) for lam, sp in pieces] == [(-2, 1), (0, 1), (2, 1)]


def test_h_graduation_adjoint_sl3():
    alg = build_algebra("A", 2)
    t = principal_triplet(alg)
    pieces = h_graduation(t.h, alg.full_space())
    assert [(lam, sp.dim) for lam, sp in pieces] == [
        (-4, 1),
        (-2, 2),
        (0, 2),
        (2, 2),
        (4, 1),
    ]


def test_h_graduation_of_regular_centralizer():
    alg = build_algebra("A", 2)
    t = principal_triplet(alg)
    pieces = h_graduation(t.h, centralizer(t.e))
    assert [(lam, sp.dim) for lam, sp in pieces] == [(2, 1), (4, 1)]


def test_h_graduation_rejects_unstable_subspace():
    alg = build_algebra("A", 1)
    t = principal_triplet(alg)
    line_f = Subspace.from_elements(alg, [t.f + t.e])
    with pytest.raises(GraduationError):
        h_graduation(t.h, line_f)


def test_h_graduation_rejects_non_diagonal_h():
    # a conjugate of a diagonal h is still semisimple, but the weights are
    # read off matrix positions, so only a diagonal h is accepted
    alg = build_algebra("A", 2)
    t = principal_triplet(alg)
    h = unipotent_conjugate(t.e, t.h)
    assert h != t.h
    with pytest.raises(GraduationError):
        h_graduation(h, alg.full_space())


def test_h_graduation_rejects_mixed_algebras():
    alg, other = build_algebra("A", 1), build_algebra("A", 1)
    with pytest.raises(ContractError):
        h_graduation(principal_triplet(other).h, alg.full_space())


def eigenvalue_scan(h, s):
    """The ad(h)-graduation of s solved for: the kernel of ad(h)|_s - mu for
    every integer mu / den in the Gershgorin range, each read back as an
    echelon subspace.  Reference for h_graduation."""
    k = s.dim
    cols = [s.coords_of(bracket(h, b)) for b in s.basis]
    assert all(c is not None for c in cols)
    den = math.lcm(*(int(cols[b][a].denominator) for a in range(k) for b in range(k)))
    scaled = [[cols[b][a] * den for b in range(k)] for a in range(k)]
    bound = max(int(sum(abs(v) for v in row)) for row in scaled)
    pieces = []
    for mu in range(-bound, bound + 1):
        work = [list(row) for row in scaled]
        for i in range(k):
            work[i][i] -= mu
        piece = _span_of_kernel(s, work)
        if piece.dim:
            pieces.append((Rat(mu, den), piece))
    assert sum(sp.dim for _, sp in pieces) == k
    return pieces


@pytest.mark.parametrize("family,rank", [("A", 4), ("A", 5), ("B", 3), ("C", 3), ("D", 4)])
def test_h_graduation_matches_eigenvalue_scan(family, rank):
    alg = build_algebra(family, rank)
    for p in valid_partitions(alg):
        if all(part == 1 for part in p.parts):
            continue
        t = sl2_complete(alg, nilpotent_from_partition(alg, p))
        for s in (alg.full_space(), centralizer(t.e)):
            got = [(mu, sp.num_rows, sp.pivots) for mu, sp in h_graduation(t.h, s)]
            want = [(mu, sp.num_rows, sp.pivots) for mu, sp in eigenvalue_scan(t.h, s)]
            assert got == want, p


def exp_ad(n):
    """exp(ad n) = sum_k ad(n)^k / k! as a dim x dim matrix, summed until
    ad(n)^k vanishes.  Reference for unipotent_conjugate."""
    a = ad_matrix(n)
    out = identity(n.algebra.dim)
    term = a
    k = 1
    while any(any(row) for row in term):
        assert k <= n.algebra.dim, "n is not ad-nilpotent"
        c = Rat(1, math.factorial(k))
        out = [[u + c * v for u, v in zip(ro, rt)] for ro, rt in zip(out, term)]
        term = mat_mul(term, a)
        k += 1
    return out


def _fractional(alg, coords, rng):
    return Element(alg, [c * Rat(1, rng.randint(2, 5)) for c in coords])


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 3), ("B", 2), ("C", 3), ("D", 4)])
def test_unipotent_conjugate_matches_exp_ad_series(family, rank):
    alg = build_algebra(family, rank)
    rng = random.Random(f"conjugate:{family}{rank}")
    for _ in range(5):
        n = _fractional(alg, alg.random_upper_nilpotent(rng).coords, rng)
        x = _fractional(alg, alg.random_element(rng).coords, rng)
        assert unipotent_conjugate(n, x) == Element(alg, mat_vec(exp_ad(n), x.coords))


# The unipotent adjoint action Ad(exp n) = exp(ad n), applied as
# unipotent_conjugate(n, .).


def test_unipotent_ad_of_zero_is_identity():
    alg = build_algebra("A", 1)
    for k in range(alg.dim):
        b = alg.basis_element(k)
        assert unipotent_conjugate(alg.zero(), b) == b



@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("C", 3), ("D", 4)])
def test_unipotent_conjugate_by_zero_is_the_identity_map(family, rank):
    # the zero element walks no power, so exp(+-0) is the identity pair
    # over D = 1 and every element comes back unchanged
    alg = build_algebra(family, rank)
    n = alg.matrix_size_N
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    zero = alg.zero()
    assert nilab.algebras._power_walk(zero) == [None]
    assert nilab.algebras._exp_pair(zero) == (identity, identity, 1)
    rng = random.Random(f"zero:{family}{rank}")
    for x in [alg.random_element(rng) for _ in range(3)] + [principal_triplet(alg).f]:
        assert unipotent_conjugate(zero, x) == x

def test_unipotent_ad_moves_f():
    alg = build_algebra("A", 1)
    t = principal_triplet(alg)
    assert unipotent_conjugate(t.e, t.f) == t.f + t.h - t.e


def test_unipotent_ad_preserves_gram():
    alg = build_algebra("A", 2)
    gram = gram_matrix(alg)
    rng = random.Random(41)
    for _ in range(5):
        n = alg.random_upper_nilpotent(rng)
        moved = [unipotent_conjugate(n, alg.basis_element(k)) for k in range(alg.dim)]
        assert [[trace_form(x, y) for y in moved] for x in moved] == gram


def test_unipotent_ad_inverse_and_automorphism():
    alg = build_algebra("B", 2)
    rng = random.Random(43)
    n = alg.random_upper_nilpotent(rng)
    for k in range(alg.dim):
        b = alg.basis_element(k)
        assert unipotent_conjugate(-n, unipotent_conjugate(n, b)) == b
    for _ in range(10):
        x, y = alg.random_element(rng), alg.random_element(rng)
        ax, ay = unipotent_conjugate(n, x), unipotent_conjugate(n, y)
        assert bracket(ax, ay) == unipotent_conjugate(n, bracket(x, y))


def test_unipotent_ad_rejects_non_nilpotent():
    alg = build_algebra("A", 1)
    h = alg.from_matrix([[1, 0], [0, -1]])
    with pytest.raises(ContractError):
        unipotent_conjugate(h, h)


def test_unipotent_conjugate_builds_exp_n_once_and_never_caches_a_refusal():
    # one E+- pair per nilpotent n serves every conjugation by n; a refused
    # n is not cached, so it raises on every call, also between hits
    alg = build_algebra("B", 2)
    rng = random.Random(47)
    n = alg.random_upper_nilpotent(rng)
    h = principal_triplet(alg).h
    xs = [alg.random_element(rng) for _ in range(3)]
    want = [Element(alg, mat_vec(exp_ad(n), x.coords)) for x in xs]
    build = nilab.algebras._exp_pair
    build.cache_clear()
    for _ in range(2):
        for x, expected in zip(xs, want):
            assert unipotent_conjugate(n, x) == expected
            with pytest.raises(ContractError, match="not nilpotent"):
                unipotent_conjugate(h, x)
    assert build.cache_info().currsize == 1
    build.cache_clear()
    assert [unipotent_conjugate(n, x) for x in xs] == want
    assert (build.cache_info().misses, build.cache_info().hits) == (1, 2)


def test_verify_sample_shares_one_exp_n_pair():
    alg = build_algebra("A", 3)
    samples = make_samples(alg, 3, 0)
    build = nilab.algebras._exp_pair
    build.cache_clear()
    assert all(report.passed for report in verify_field_identities(alg, samples))
    # each sample's moved point builds the pair; its three P_j(x) reuse it
    assert (build.cache_info().misses, build.cache_info().hits) == (3, 9)


def test_unipotent_conjugate_rejects_mixed_algebras():
    alg, other = build_algebra("A", 1), build_algebra("A", 1)
    e = alg.from_matrix(E(2, 0, 1))
    with pytest.raises(ContractError):
        unipotent_conjugate(e, other.from_matrix(E(2, 1, 0)))


def test_coordinate_round_trip():
    alg = build_algebra("C", 2)
    rng = random.Random(3)
    for _ in range(10):
        x = alg.random_element(rng)
        assert alg.from_matrix(x.matrix_rows()) == x


def test_from_matrix_rejects_outsiders():
    alg = build_algebra("A", 1)
    with pytest.raises(ContractError):
        alg.from_matrix([[1, 0], [0, 1]])  # identity is not traceless


@pytest.mark.parametrize("rows", [[[0, 1, 5], [0, 0]], [[0, 1], [0]], [[0, 1]]])
def test_from_matrix_rejects_wrong_row_lengths(rows):
    # a long row used to lose its extra entry, a short one hit an IndexError
    alg = build_algebra("A", 1)
    with pytest.raises(ShapeError):
        alg.from_matrix(rows)


@pytest.mark.parametrize(
    "family,rank,rows",
    [
        ("A", 2, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),  # diagonal, trace 1
        ("B", 2, E(5, 0, 0)),  # lone E_00 breaks x = -S x^T S
        ("C", 2, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]),  # E_01 needs -E_23
        ("D", 3, E(6, 0, 0)),
    ],
)
def test_from_matrix_rejects_matrices_outside_each_family(family, rank, rows):
    alg = build_algebra(family, rank)
    with pytest.raises(ContractError):
        alg.from_matrix(rows)


def test_serializable_description():
    import json

    alg = build_algebra("D", 2)
    desc = alg.describe()
    assert not desc["simple"]
    assert not desc["distinct_exponents"]
    json.dumps(desc)  # must be plain JSON data


# Reference definitions, written out by brute force over all of s and g: the
# library's center_of / normalizer_of must give the same subspaces.


def _span_of_kernel(s, m):
    """Subspace spanned by sum_a x_a b_a over the kernel vectors x of m."""
    _, kernel = rank_kernel(m, s.dim)
    basis = rat_rows(s)
    rows = []
    for x in kernel:
        rows.append(
            [sum((x[a] * row[q] for a, row in enumerate(basis)), Rat(0)) for q in range(s.algebra.dim)]
        )
    return Subspace.from_coord_rows(s.algebra, rows)


def brute_center(s):
    """Kernel of c -> ([c, u])_u, brackets stacked over every u in s."""
    dim, k = s.algebra.dim, s.dim
    cols = [[v for u in s.basis for v in bracket(b, u).coords] for b in s.basis]
    m = [[cols[a][i] for a in range(k)] for i in range(k * dim)]
    return _span_of_kernel(s, m)


def reduce_by_rows(s, vec):
    """vec minus its reduction by the reduced echelon rows of s, eliminated
    in Rat pivot by pivot: zero exactly when vec lies in s."""
    out = list(vec)
    for row, c in zip(rat_rows(s), s.pivots):
        x = out[c]
        if x:
            out = [v - x * r for v, r in zip(out, row)]
    return out


def brute_normalizer(s):
    """Kernel of y -> ([y, u] mod s)_u on all of g, from ad(u) for every u."""
    alg = s.algebra
    rows = []
    for u in s.basis:
        adu = ad_matrix(u)
        reduced = [reduce_by_rows(s, [row[k] for row in adu]) for k in range(alg.dim)]
        rows.extend(transpose(reduced))
    _, kernel = rank_kernel(rows, alg.dim)
    return Subspace.from_coord_rows(alg, kernel)


def _reference_subspaces(alg):
    yield "zero", Subspace.from_coord_rows(alg, [])
    yield "root line", Subspace.from_elements(alg, [alg.basis_element(alg._upper_indices[0])])
    yield "full", alg.full_space()
    for p in valid_partitions(alg):
        if any(part > 1 for part in p.parts):
            yield f"z({p})", centralizer(nilpotent_from_partition(alg, p))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_center_and_normalizer_match_brute_force(family, rank):
    alg = build_algebra(family, rank)
    for name, s in _reference_subspaces(alg):
        assert center_of(s).same_space(brute_center(s)), name
        assert normalizer_of(s).same_space(brute_normalizer(s)), name


def test_normalizer_of_rejects_non_subalgebra():
    alg = build_algebra("A", 1)
    e = alg.from_matrix(E(2, 0, 1))
    f = alg.from_matrix(E(2, 1, 0))
    with pytest.raises(ContractError):
        normalizer_of(Subspace.from_elements(alg, [e, f]))


def test_same_space_and_from_elements_reject_other_realizations():
    # so(5) and sp(4) have dimension 10, sl(4) and so(6) 15: equal integer
    # rows or coordinates do not make their subspaces comparable
    for (f1, r1), (f2, r2) in [(("B", 2), ("C", 2)), (("A", 3), ("D", 3))]:
        alg, other = build_algebra(f1, r1), build_algebra(f2, r2)
        assert alg.dim == other.dim
        with pytest.raises(ContractError):
            alg.full_space().same_space(other.full_space())
        with pytest.raises(ContractError):
            Subspace.from_elements(alg, [other.basis_element(0), other.basis_element(1)])
    # another build of the same algebra is another realization too, and a
    # dimension mismatch is the same contract violation, not a ShapeError
    so5 = build_algebra("B", 2)
    for other in (build_algebra("B", 2), build_algebra("A", 2)):
        with pytest.raises(ContractError):
            so5.full_space().same_space(other.full_space())
        with pytest.raises(ContractError):
            Subspace.from_elements(so5, [other.basis_element(0)])
    basis = [so5.basis_element(k) for k in range(so5.dim)]
    assert Subspace.from_elements(so5, iter(basis)).same_space(so5.full_space())


def test_preimage_rejects_mixed_algebras():
    alg, other = build_algebra("A", 1), build_algebra("A", 1)
    e = other.from_matrix(E(2, 0, 1))
    with pytest.raises(ContractError):
        preimage(e, alg.full_space())
    with pytest.raises(ContractError):
        preimage(e, Subspace.from_coord_rows(alg, []))


def _count_products(monkeypatch, log):
    """Log the integer coordinate vectors, as sets of nonzero entries
    (q, value), of every pair _bracket_coords brackets: the pairs of the
    bracket tables, and the commutation check of the convolution's
    derivatives, which build_pair_data does not run."""
    pair = nilab.algebras._bracket_coords

    def counting(alg, a, b):
        log.append((frozenset(a.items()), frozenset(b.items())))
        return pair(alg, a, b)

    monkeypatch.setattr(nilab.algebras, "_bracket_coords", counting)


def _basis_keys(s):
    return {frozenset(nonzero(row).items()) for row in s.num_rows}


def test_center_of_brackets_each_pair_once(monkeypatch):
    alg = build_algebra("A", 3)
    z = centralizer(nilpotent_from_partition(alg, Partition((2, 1, 1))))
    log = []
    _count_products(monkeypatch, log)
    center_of(z)
    k = z.dim
    members = _basis_keys(z)
    assert k == 9 and len(log) == k * (k - 1) // 2
    assert len({frozenset(pair) for pair in log}) == len(log)
    assert all(set(pair) <= members for pair in log)


def test_build_pair_data_brackets_no_pair_of_z_twice(monkeypatch):
    alg = build_algebra("B", 3)
    e = nilpotent_from_partition(alg, Partition((3, 3, 1)))
    triple = sl2_complete(alg, e)
    log = []
    _count_products(monkeypatch, log)
    pd = build_pair_data(alg, triple)
    members = _basis_keys(pd.zcent)
    # only the bracket table of z brackets pairs: ad(e) and the brackets of
    # elements sum the structure constants without _bracket_coords
    assert all(set(pair) <= members for pair in log)
    pairs = Counter(frozenset(pair) for pair in log)
    k = pd.zcent.dim
    assert len(pairs) == len(log) == k * (k - 1) // 2
    assert set(pairs.values()) == {1}


# The bracket table as it was built before the pivot read: every bracket read
# off on all of g, checked for membership, then read at the pivots of s.


def reference_bracket_table(s):
    table = []
    for a, x in enumerate(s.basis):
        row = []
        for y in s.basis[a + 1 :]:
            br = bracket(x, y)
            if not s.contains(br):
                raise ContractError("subspace is not closed under the bracket")
            row.append(
                tuple((t, Rat(br.num[c], br.den)) for t, c in enumerate(s.pivots) if br.num[c])
            )
        table.append(row)
    return table


@pytest.mark.parametrize(
    "family,rank", [("A", 3), ("A", 4), ("A", 5), ("B", 3), ("C", 3), ("D", 4)]
)
def test_bracket_table_matches_bracket_and_membership_reference(family, rank):
    alg = build_algebra(family, rank)
    for p in valid_partitions(alg):
        if all(part == 1 for part in p.parts):
            continue
        z = centralizer(nilpotent_from_partition(alg, p))
        for s in (z, center_of(z), normalizer_of(z)):
            assert rat_bracket_table(s) == reference_bracket_table(s), p


def test_bracket_table_rejects_a_bracket_that_differs_only_off_the_pivots():
    # s = span(h1, E12 + E13) in sl(3): [h1, E12 + E13] = 2 E12 + E13 has
    # coordinate 2 at the pivot of E12 + E13, where 2 (E12 + E13) agrees
    # with it; the two differ only at E13, off the pivots of s
    alg = build_algebra("A", 2)
    h1 = alg.from_matrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    v = alg.from_matrix([[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    br = bracket(h1, v)
    assert br == alg.from_matrix([[0, 2, 1], [0, 0, 0], [0, 0, 0]])
    for build in (reference_bracket_table, Subspace._brackets, center_of, normalizer_of):
        s = Subspace.from_elements(alg, [h1, v])
        assert [br.num[c] for c in s.pivots] == [0, 2 * br.den]
        with pytest.raises(ContractError):
            build(s)


# The subspace layer as it ran before the sparse products and the reduction
# in coordinates: every commutator filled into a zero N x N matrix, the
# pivot read and the residual of the matrix-space split taken over all N^2
# positions, ad(x) columns read by the dense forward substitution
# (readoff.dense_coords_of_rows), and every row of the center's k^2 x k
# matrix eliminated.


def dense_form(x):
    """(R, d, the columns of the nonzero entries of each row of R)."""
    rows, den = x.int_rows()
    return rows, den, [[j for j, v in enumerate(row) if v] for row in rows]


def dense_commutator_rows(a, a_cols, b, b_cols):
    """ab - ba for dense integer matrices, over the nonzero columns listed."""
    out = [[0] * len(a) for _ in a]
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


def dense_split_table(s):
    """(the pivot reads of s, the nonzero entries of Dz R_t, Dz)."""
    alg = s.algebra
    n = alg.matrix_size_N
    dz = math.lcm(*(row[c] for row, c in zip(s.num_rows, s.pivots)))
    mats = []
    for row, c in zip(s.num_rows, s.pivots):
        acc = {}
        for v, entries in zip(row, alg._basis_sparse):
            for i, j, b in entries:
                acc[i * n + j] = acc.get(i * n + j, 0) + (dz // row[c]) * v * b
        mats.append(tuple((p, v) for p, v in acc.items() if v))
    return tuple(coord_terms(alg)[c] for c in s.pivots), mats, dz


def dense_split(table, rows):
    """(G, residual) for dense integer rows C: G_t read at the pivot of row
    t, residual the nonzero entries of Dz C - sum_t G_t Dz R_t over all
    N^2 positions."""
    reads, mats, scale = table
    g = [sum(c * rows[i][j] for i, j, c in terms) for terms in reads]
    res = [v * scale for row in rows for v in row]
    for gt, entries in zip(g, mats):
        for p, v in entries:
            res[p] -= gt * v
    return g, {p: v for p, v in enumerate(res) if v}


def dense_bracket_table(s):
    split = dense_split_table(s)
    forms = [dense_form(x) for x in s.basis]
    table = []
    for a, (x, _, x_cols) in enumerate(forms):
        row = []
        for y, _, y_cols in forms[a + 1 :]:
            c = dense_commutator_rows(x, x_cols, y, y_cols)
            if not any(map(any, c)):
                row.append(())
                continue
            g, residual = dense_split(split, c)
            if residual:
                raise ContractError("subspace is not closed under the bracket")
            row.append(tuple((t, v) for t, v in enumerate(g) if v))
        table.append(row)
    return table


def dense_ad_columns(x):
    """The integer ad(x) columns at the one denominator dx, each product
    read off on all of g by the dense forward substitution."""
    alg = x.algebra
    a, dx, a_cols = dense_form(x)
    columns = []
    for k in range(alg.dim):
        b, _, b_cols = dense_form(alg.basis_element(k))
        col = dense_coords_of_rows(alg, dense_commutator_rows(a, a_cols, b, b_cols), dx)
        columns.append([v * (dx // col.den) for v in col.num])
    return columns


def dense_preimage(x, t):
    """(num_rows, pivots) of {y : [x, y] in t}: the ad(x) columns reduced by
    the rows of t at the one scale D_t, then one echelon kernel."""
    dt = math.lcm(*(row[c] for row, c in zip(t.num_rows, t.pivots)))
    reduced = []
    for col in dense_ad_columns(x):
        out = [dt * v for v in col]
        for row, c in zip(t.num_rows, t.pivots):
            out = [v - col[c] * (dt // row[c]) * r for v, r in zip(out, row)]
        reduced.append(out)
    rows = [nonzero(r) for r in zip(*reduced) if any(r)]
    pivots, rows = echelon_kernel(rows, x.algebra.dim)
    return tuple(map(tuple, rows)), tuple(pivots)


def dense_center(s):
    """(num_rows, pivots) of the center of s, from every row of the k^2 x k
    matrix of the dense bracket table."""
    k = s.dim
    rows = {}
    for a, line in enumerate(dense_bracket_table(s)):
        for b, terms in enumerate(line, start=a + 1):
            for t, g in terms:
                rows.setdefault((b, t), [0] * k)[a] = g
                rows.setdefault((a, t), [0] * k)[b] = -g
    free, kernel = echelon_kernel([nonzero(row) for row in rows.values()], k)
    combined = _int_rows(mat_mul(kernel, s.num_rows), s.algebra.dim)
    return tuple(map(tuple, combined)), tuple(s.pivots[f] for f in free)


def _table_or_error(build, s):
    try:
        return build(s)
    except ContractError:
        return "not closed"


def _check_reduction_against_dense(s, vectors, label):
    """For each integer coordinate vector C, _reduce gives the split's G,
    and its remainder, as a matrix, is the split's residual."""
    alg = s.algebra
    split = dense_split_table(s)
    for vec in vectors:
        g, rest = s._reduce(nonzero(vec))
        want_g, residual = dense_split(split, nilab.algebras._element(alg, vec, 1).int_rows()[0])
        assert g == list(nonzero(want_g).items()), label
        rest = [rest.get(q, 0) for q in range(alg.dim)]
        assert entries_of(nilab.algebras._element(alg, rest, 1).int_rows()[0]) == residual, label


def _check_sparse_against_dense(x, label):
    alg = x.algebra
    zero = Subspace.from_coord_rows(alg, [])
    z = centralizer(x)
    assert (z.num_rows, z.pivots) == dense_preimage(x, zero), label
    delta = center_of(z)
    assert (delta.num_rows, delta.pivots) == dense_center(z), label
    eta = preimage(x, delta)
    assert (eta.num_rows, eta.pivots) == dense_preimage(x, delta), label
    units = [[int(q == k) for q in range(alg.dim)] for k in range(alg.dim)]
    for s in (z, delta, eta):
        want = _table_or_error(dense_bracket_table, s)
        assert _table_or_error(Subspace._brackets, s) == want, label
        # what _bracket_rows reduces, the members of s and the basis of g
        columns = nilab.algebras._ad_columns(x)
        vectors = [*([c.get(q, 0) for q in range(alg.dim)] for c in columns), *s.num_rows, *units]
        _check_reduction_against_dense(s, vectors, label)


@pytest.mark.parametrize(
    "family,ranks",
    [("A", (1, 2, 3, 4, 5, 6)), ("B", (2, 3, 4)), ("C", (2, 3, 4)), ("D", (3, 4, 5))],
)
def test_sparse_subspace_layer_matches_the_dense_reference_on_every_orbit(family, ranks):
    for rank in ranks:
        alg = build_algebra(family, rank)
        for p in _nonzero_orbits(alg):
            _check_sparse_against_dense(nilpotent_from_partition(alg, p), (alg.name, p))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("C", 2)])
def test_sparse_subspace_layer_matches_the_dense_reference_on_dense_samples(family, rank):
    alg = build_algebra(family, rank)
    for k, sample in enumerate(make_samples(alg, 3, 0)):
        for name in ("x", "y", "n"):
            _check_sparse_against_dense(getattr(sample, name), f"{name}[{k}]")


# The structure constants, and the routes they replaced: each bracket, each
# ad(x) column and each pair of a bracket table multiplied out as matrices on
# sparse rows and read back to g, bracket and ad(x) by the dense forward
# substitution (readoff.dense_coords_of_rows), the bracket table through the
# entry read-off.

STRUCTURE_ALGEBRAS = (
    [("A", r) for r in range(1, 7)]
    + [(f, r) for f in "BC" for r in range(1, 5)]
    + [("D", r) for r in range(2, 6)]
)


def retired_commutator_rows(a, b, n):
    """ab - ba as dense N x N integer rows, for integer matrices given as
    sparse rows (see algebras._sparse_rows)."""
    out = [[0] * n for _ in range(n)]
    for i, ai in a.items():
        for t, v in ai:
            for j, w in b.get(t, ()):
                out[i][j] += v * w
    for i, bi in b.items():
        for t, v in bi:
            for j, w in a.get(t, ()):
                out[i][j] -= v * w
    return out


def retired_commutator_entries(a, b, n):
    """ab - ba as {i N + j: value} over its nonzero entries, for integer
    matrices given as sparse rows."""
    out = {}
    for i, ai in a.items():
        for t, v in ai:
            for j, w in b.get(t, ()):
                out[i * n + j] = out.get(i * n + j, 0) + v * w
    for i, bi in b.items():
        for t, v in bi:
            for j, w in a.get(t, ()):
                out[i * n + j] = out.get(i * n + j, 0) - v * w
    return {p: v for p, v in out.items() if v}


def retired_bracket(x, y):
    alg = x.algebra
    rows = retired_commutator_rows(x._sparse_form(), y._sparse_form(), alg.matrix_size_N)
    return dense_coords_of_rows(alg, rows, x.den * y.den)


def retired_ad_columns(x):
    alg = x.algebra
    n = alg.matrix_size_N
    a = x._sparse_form()
    return tuple(
        nonzero(dense_coords_of_rows(alg, retired_commutator_rows(a, b, n)).num)
        for b in (nilab.algebras._sparse_rows([1], [e]) for e in alg._basis_sparse)
    )


def retired_bracket_table(s):
    alg = s.algebra
    forms = [x._sparse_form() for x in s.basis]
    table = []
    for a, x in enumerate(forms):
        line = []
        for y in forms[a + 1 :]:
            c = retired_commutator_entries(x, y, alg.matrix_size_N)
            if not c:
                line.append(())
                continue
            coords = alg._coords_of_entries(c)
            if coords is None:
                raise ContractError("commutator does not lie in the algebra")
            g, rest = s._reduce(coords)
            if rest:
                raise ContractError("subspace is not closed under the bracket")
            line.append(tuple(g))
        table.append(line)
    return table


def full_table(alg):
    """Every row of the structure constants, built in basis order."""
    return [alg._rows[i] or alg._bracket_row(i) for i in range(alg.dim)]


def basis_matrix(alg, k):
    rows = [[0] * alg.matrix_size_N for _ in range(alg.matrix_size_N)]
    for i, j, v in alg._basis_sparse[k]:
        rows[i][j] = v
    return rows


@pytest.mark.parametrize("family,rank", STRUCTURE_ALGEBRAS)
def test_structure_constants_match_the_dense_commutators(family, rank):
    # row i holds the coordinates of [b_i, b_j], read off the dense product,
    # for each partner j, and every other b_j commutes with b_i
    alg = build_algebra(family, rank)
    mats = [basis_matrix(alg, k) for k in range(alg.dim)]
    for i, row in enumerate(full_table(alg)):
        for j in range(alg.dim):
            c = mat_sub(mat_mul(mats[i], mats[j]), mat_mul(mats[j], mats[i]))
            if j in row:
                assert dict(row[j]) == nonzero(dense_coords_of_rows(alg, c).num), (i, j)
                assert [k for k, _ in row[j]] == sorted(dict(row[j])), (i, j)
            else:
                assert not any(map(any, c)), (i, j)


@pytest.mark.parametrize("family,rank", STRUCTURE_ALGEBRAS)
def test_structure_constants_are_antisymmetric_in_any_build_order(family, rank):
    alg = build_algebra(family, rank)
    table = full_table(alg)
    for i, row in enumerate(table):
        for j in range(alg.dim):
            assert [(k, -c) for k, c in row.get(j, ())] == list(table[j].get(i, ())), (i, j)
    # rows built last to first take their other half from the other rows
    again = build_algebra(family, rank)
    assert [again._bracket_row(i) for i in reversed(range(again.dim))][::-1] == table


@pytest.mark.parametrize("family,rank", STRUCTURE_ALGEBRAS)
def test_jacobi_identity_on_random_triples(family, rank):
    alg = build_algebra(family, rank)
    rng = random.Random(f"jacobi:{family}{rank}")
    for _ in range(4):
        x, y, z = (_fractional(alg, alg.random_element(rng, 5).num, rng) for _ in range(3))
        total = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
        assert total.is_zero()


def _check_table_routes_against_retired(x, others, label):
    alg = x.algebra
    assert nilab.algebras._ad_columns(x) == retired_ad_columns(x), label
    z = centralizer(x)
    delta = center_of(z)
    eta = preimage(x, delta)
    for s in (z, delta, eta):
        want = _table_or_error(retired_bracket_table, s)
        assert _table_or_error(Subspace._brackets, s) == want, label
    for y in [*others, *z.basis, *eta.basis, alg.basis_element(alg.dim - 1)]:
        assert bracket(x, y) == retired_bracket(x, y), label
        assert bracket(y, x) == retired_bracket(y, x), label


@pytest.mark.parametrize(
    "family,ranks",
    [("A", (1, 2, 3, 4, 5, 6)), ("B", (2, 3, 4)), ("C", (2, 3, 4)), ("D", (3, 4, 5))],
)
def test_table_routes_match_the_retired_matrix_routes_on_every_orbit(family, ranks):
    for rank in ranks:
        alg = build_algebra(family, rank)
        for p in _nonzero_orbits(alg):
            t = triple_from_partition(alg, p)
            _check_table_routes_against_retired(t.e, [t.h, t.f], (alg.name, p))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("C", 2)])
def test_table_routes_match_the_retired_matrix_routes_on_dense_samples(family, rank):
    alg = build_algebra(family, rank)
    for k, sample in enumerate(make_samples(alg, 3, 0)):
        points = [sample.x, sample.y, sample.n]
        for name, x in zip("xyn", points):
            _check_table_routes_against_retired(x, points, f"{name}[{k}]")


@pytest.mark.parametrize("family,rank", [("A", 9), ("B", 6), ("C", 6), ("D", 6)])
def test_build_algebra_builds_no_row_of_the_structure_constants(family, rank):
    alg = build_algebra(family, rank)
    assert alg._rows == [None] * alg.dim and alg._by_index is None


def test_bracket_builds_only_the_rows_of_the_first_factor():
    alg = build_algebra("C", 3)
    rng = random.Random(3)
    x = nilab.algebras._element(alg, [0] * 4 + [2, -1] + [0] * (alg.dim - 7) + [5], 1)
    y = alg.random_element(rng, 4)
    want = bracket(x, y)
    assert [i for i, row in enumerate(alg._rows) if row is not None] == [4, 5, alg.dim - 1]
    assert want == retired_bracket(x, y)


def test_a_basis_commutator_outside_the_algebra_fails_at_row_build(monkeypatch):
    # the entry read-off is told that [b_i, b_j] lies outside g, for one
    # pair; building row i refuses it and keeps no row, and a bracket that
    # needs the row refuses it again, while other rows still build
    alg = build_algebra("A", 2)
    i, j = 1, 3  # E01 and E10
    c = mat_sub(
        mat_mul(basis_matrix(alg, i), basis_matrix(alg, j)),
        mat_mul(basis_matrix(alg, j), basis_matrix(alg, i)),
    )
    target = entries_of(c)
    read_entries = nilab.algebras.AlgebraRealization._coords_of_entries

    def refusing(self, entries):
        return None if entries == target else read_entries(self, entries)

    monkeypatch.setattr(nilab.algebras.AlgebraRealization, "_coords_of_entries", refusing)
    with pytest.raises(ContractError):
        alg._bracket_row(i)
    assert alg._rows[i] is None
    with pytest.raises(ContractError):
        bracket(alg.basis_element(i), alg.basis_element(0))
    assert alg._bracket_row(2)


def test_bracket_table_rejects_a_bracket_that_no_pivot_reads():
    # s = span(E01, E12) in sl(3): [E01, E12] = E02 is nonzero only at (0, 2),
    # a position the pivot reads of s never look at, so every coordinate
    # read at the pivots is 0 and only the remainder (in coordinates) or
    # the residual there (in the matrix-space reference) shows it lies
    # outside s
    alg = build_algebra("A", 2)
    a, b = alg.from_matrix(E(3, 0, 1)), alg.from_matrix(E(3, 1, 2))
    br = bracket(a, b)
    assert br == alg.from_matrix(E(3, 0, 2))
    for build in (Subspace._brackets, center_of, normalizer_of):
        s = Subspace.from_elements(alg, [a, b])
        assert not s.contains(br)
        g, rest = s._reduce(nonzero(br.num))
        assert g == [] and rest
        assert dense_split(dense_split_table(s), br.int_rows()[0])[0] == [0, 0]
        with pytest.raises(ContractError):
            build(s)


def test_membership_rejects_an_element_of_another_realization():
    # a B2 basis matrix is 5 x 5, an A4 one too, but the coordinates of B2
    # do not index the pivots of A4
    full = build_algebra("A", 4).full_space()
    x = build_algebra("B", 2).basis_element(0)
    for check in (full.contains, full.coords_of):
        with pytest.raises(ContractError):
            check(x)
    twin = build_algebra("A", 1)
    with pytest.raises(ContractError):
        build_algebra("A", 1).full_space().contains(twin.basis_element(0))


def test_membership_builds_no_matrix_form_of_the_element():
    # contains and coords_of read the nonzero entries only, and bracket
    # sums the structure constants on coordinates: none of them builds the
    # dense rows or the sparse rows of the element's matrix
    alg = build_algebra("C", 3)
    z = centralizer(nilpotent_from_partition(alg, Partition((2, 2, 1, 1))))
    x = z.basis[-1]
    y = nilab.algebras._element(alg, x.num, x.den)
    assert z.contains(y) and z.coords_of(y) == (0,) * (z.dim - 1) + (1,)
    assert (y._int, y._sparse) == (None, None)
    bracket(y, y)
    assert (y._int, y._sparse) == (None, None)


# The subspace calculus as it ran on Rat before the integer echelon rows:
# rank_kernel on rational matrices, the echelon form through rref, and the
# normalizer's candidates rebuilt with _combination after every cut.


def _combination(algebra, elements, coeffs):
    """sum_i coeffs[i] * elements[i], for Rat coefficients, in integers."""
    den = math.lcm(*(c.denominator * x.den for c, x in zip(coeffs, elements) if c))
    acc = [0] * algebra.dim
    for c, x in zip(coeffs, elements):
        if c:
            f = c.numerator * (den // (c.denominator * x.den))
            for q, v in enumerate(x.num):
                if v:
                    acc[q] += f * v
    return nilab.algebras._element(algebra, acc, den)


def reference_span(alg, vectors):
    """(rows, pivots) of the span, through rref: the Rat rows a Subspace
    reports and its pivots."""
    work = [list(v) for v in vectors]
    pivots = rref(work, alg.dim)
    return tuple(tuple(r) for r in work[: len(pivots)]), tuple(pivots)


def reference_centralizer(x):
    _, kernel = rank_kernel(ad_matrix(x), x.algebra.dim)
    return reference_span(x.algebra, kernel)


def reference_center(s):
    k = s.dim
    rows = {}
    for a, line in enumerate(rat_bracket_table(s)):
        for b, terms in enumerate(line, start=a + 1):
            for t, c in terms:
                rows.setdefault((b, t), [Rat(0)] * k)[a] = c
                rows.setdefault((a, t), [Rat(0)] * k)[b] = -c
    _, kernel = rank_kernel(list(rows.values()), k)
    return reference_span(s.algebra, [_combination(s.algebra, s.basis, x).num for x in kernel])


def reference_normalizer(s):
    alg = s.algebra
    s._brackets()  # closure check
    split = dense_split_table(s)
    pivots = set(s.pivots)
    candidates = [alg.basis_element(q) for q in range(alg.dim) if q not in pivots]
    for u in s.basis:
        if not candidates:
            break
        b, _, b_cols = dense_form(u)
        den = math.lcm(*(y.den for y in candidates))
        images = []
        for y in candidates:
            a, dy, a_cols = dense_form(y)
            c = dense_commutator_rows(a, a_cols, b, b_cols)
            images.append((dense_split(split, c)[1] if any(map(any, c)) else {}, den // dy))
        entries = sorted(set().union(*(r for r, _ in images)))
        rows = [[r.get(p, 0) * f for r, f in images] for p in entries]
        _, kernel = rank_kernel(rows, len(candidates))
        if len(kernel) < len(candidates):
            candidates = [_combination(alg, candidates, x) for x in kernel]
    return reference_span(alg, list(rat_rows(s)) + [y.num for y in candidates])


def assert_matches_reference(s, want, label):
    """s has the reference's Rat rows and pivots, and keeps them as
    primitive integer rows, positive at their pivots."""
    assert (rat_rows(s), s.pivots) == want, label
    for num, c in zip(s.num_rows, s.pivots):
        assert num[c] > 0 and math.gcd(*num) == 1, label
    for x, num, c in zip(s.basis, s.num_rows, s.pivots):
        assert x.num == num and x.den == num[c], label


def _check_subspace_calculus(x, label):
    z = centralizer(x)
    assert_matches_reference(z, reference_centralizer(x), f"z {label}")
    assert_matches_reference(center_of(z), reference_center(z), f"delta {label}")
    assert_matches_reference(normalizer_of(z), reference_normalizer(z), f"eta {label}")


@pytest.mark.parametrize(
    "family,rank", [("A", 3), ("A", 4), ("A", 5), ("A", 6), ("B", 3), ("C", 3), ("D", 4)]
)
def test_integer_subspaces_match_the_rational_reference_on_every_orbit(family, rank):
    alg = build_algebra(family, rank)
    for p in valid_partitions(alg):
        if any(part > 1 for part in p.parts):
            _check_subspace_calculus(nilpotent_from_partition(alg, p), p)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("C", 2)])
def test_integer_subspaces_match_the_rational_reference_on_dense_samples(family, rank):
    alg = build_algebra(family, rank)
    for k, sample in enumerate(make_samples(alg, 3, 0)):
        for name in ("x", "y", "n"):
            _check_subspace_calculus(getattr(sample, name), f"{name}[{k}]")


def test_center_rows_are_primitive_where_the_kernel_combination_is_not():
    # s = span(3 h0 - 2 E12, E02, 3 h1 + 4 E12) in sl(3): its center is spanned
    # by row 0 - row 2 = 3 (h0 - h1 - 2 E12), whose content 3 must be divided out
    alg = build_algebra("A", 2)
    s = Subspace.from_elements(
        alg,
        [
            alg.from_matrix([[3, 0, 0], [0, -3, -2], [0, 0, 0]]),
            alg.from_matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
            alg.from_matrix([[0, 0, 0], [0, 3, 4], [0, 0, -3]]),
        ],
    )
    center = center_of(s)
    assert_matches_reference(center, reference_center(s), "delta")
    assert center.basis == [alg.from_matrix([[1, 0, 0], [0, -2, -2], [0, 0, 1]])]


@pytest.mark.parametrize(
    "family,rank", [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("D", 5)]
)
def test_normalizer_matches_brute_force_on_every_orbit(family, rank):
    alg = build_algebra(family, rank)
    for p in valid_partitions(alg):
        if any(part > 1 for part in p.parts):
            e = nilpotent_from_partition(alg, p)
            z = centralizer(e)
            want = brute_normalizer(z)
            assert normalizer_of(z).same_space(want), p
            # the pipeline's eta, {y : [e, y] in delta}
            assert preimage(e, center_of(z)).same_space(want), p


# Elashvili's conjecture, proved for the classical algebras (Panyushev 2003,
# Yakimova 2006): ind z(e) = rank g.  The index of z is dim z minus the rank
# of the skew matrix (xi([b_a, b_b])) at a generic xi in z*, so a random
# integer xi reaches rank dim z - rank g, and no xi exceeds it.


def _skew_rank(s, xi):
    k = s.dim
    m = [[0] * k for _ in range(k)]
    for a, line in enumerate(rat_bracket_table(s)):
        for b, terms in enumerate(line, start=a + 1):
            v = sum((xi[t] * c for t, c in terms), Rat(0))
            m[a][b], m[b][a] = v, -v
    return rank_kernel(m, k)[0] if k else 0


@pytest.mark.parametrize(
    "family,ranks", [("A", (4, 5, 6, 7)), ("B", (3, 4)), ("C", (3, 4)), ("D", (4, 5, 6))]
)
def test_centralizer_index_equals_rank(family, ranks):
    for rank in ranks:
        alg = build_algebra(family, rank)
        rng = random.Random(f"index:{family}{rank}")
        for p in valid_partitions(alg):
            z = centralizer(nilpotent_from_partition(alg, p))
            want = z.dim - alg.rank_r
            best = 0
            for _ in range(3):
                xi = [rng.randint(-50, 50) for _ in range(z.dim)]
                best = max(best, _skew_rank(z, xi))
                if best >= want:
                    break
            assert best == want, (alg.name, p)


# For e nilpotent, z = z(e), delta its center and eta the normalizer of z,
# dim eta minus the largest rank of the skew matrix (xi([b_a, b_b])) over a few
# integer xi in eta* is an upper bound on ind eta (a generic xi reaches the
# largest rank, a sampled one may fall short).  On every nonzero orbit below
# that bound is rank g - dim delta.


def _nonzero_orbits(alg):
    return [p for p in valid_partitions(alg) if any(part > 1 for part in p.parts)]


@pytest.mark.parametrize(
    "family,ranks", [("A", (3, 4, 5)), ("B", (3, 4)), ("C", (3, 4)), ("D", (4, 5))]
)
def test_normalizer_index_bound_is_rank_minus_center_dim(family, ranks):
    for rank in ranks:
        alg = build_algebra(family, rank)
        rng = random.Random(f"eta-index:{family}{rank}")
        for p in _nonzero_orbits(alg):
            z = centralizer(nilpotent_from_partition(alg, p))
            delta, eta = center_of(z), normalizer_of(z)
            want = eta.dim - (alg.rank_r - delta.dim)
            best = 0
            for _ in range(3):
                xi = [rng.randint(-50, 50) for _ in range(eta.dim)]
                best = max(best, _skew_rank(eta, xi))
                if best >= want:
                    break
            assert eta.dim - best == alg.rank_r - delta.dim, (alg.name, p)


@pytest.mark.parametrize("rank", [4, 5, 6, 7])
def test_normalizer_index_is_rank_minus_center_dim_on_d_orbits_with_a_part_3(rank):
    # so(2r), partition (2r - 3, 3): dim eta is odd, and a skew matrix has
    # even rank, so ind eta is odd; with the sampled bound ind eta <= 1 that
    # makes ind eta = 1 = rank g - dim delta exactly.  The reported ind,
    # dim delta - rank A, is 1 there too, so it is not the defect
    # ind eta - (rank g - dim delta), which is 0.
    alg = build_algebra("D", rank)
    p = Partition((2 * rank - 3, 3))
    z = centralizer(nilpotent_from_partition(alg, p))
    delta, eta = center_of(z), normalizer_of(z)
    assert eta.dim == 2 * rank + 1 and alg.rank_r - delta.dim == 1, p
    rng = random.Random(f"eta-index-exact:D{rank}")
    best = 0
    for _ in range(3):
        best = max(best, _skew_rank(eta, [rng.randint(-50, 50) for _ in range(eta.dim)]))
        if best == eta.dim - 1:
            break
    assert best == eta.dim - 1, p
    report = analyze_orbit(alg, p)
    assert report.hypothesis_ok and report.ind == 1, p


def preimage_of_center(e, delta):
    """{y : [e, y] in delta}, the kernel of y -> [e, y] reduced by the echelon
    rows of delta, through the rational reference elimination."""
    alg = e.algebra
    columns = []
    for k in range(alg.dim):
        v = list(bracket(e, alg.basis_element(k)).coords)
        for row, c in zip(rat_rows(delta), delta.pivots):
            if v[c]:
                v = [x - v[c] * r for x, r in zip(v, row)]
        columns.append(v)
    _, kernel = rank_kernel([list(r) for r in zip(*columns)], alg.dim)
    return Subspace.from_coord_rows(alg, kernel)


@pytest.mark.parametrize(
    "family,ranks",
    [("A", (1, 2, 3, 4, 5, 6)), ("B", (1, 2, 3, 4)), ("C", (1, 2, 3, 4)), ("D", (2, 3, 4))],
)
def test_normalizer_is_the_preimage_of_the_center(family, ranks):
    # y normalizes z = z(e) iff [e, y] lies in delta (proof in the nilab.index
    # module docstring); the library's preimage is checked against the
    # rational one here
    for rank in ranks:
        alg = build_algebra(family, rank)
        for p in _nonzero_orbits(alg):
            e = nilpotent_from_partition(alg, p)
            z = centralizer(e)
            delta = center_of(z)
            want = preimage_of_center(e, delta)
            assert normalizer_of(z).same_space(want), (alg.name, p)
            assert preimage(e, delta).same_space(want), (alg.name, p)
