"""Partitions, nilpotent constructions, and sl(2)-triple completion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilab import (
    ContractError,
    InternalError,
    Partition,
    PartitionError,
    Triplet,
    bracket,
    build_algebra,
    centralizer,
    nilpotent_from_partition,
    principal_triplet,
    sl2_complete,
    triple_from_partition,
    unipotent_conjugate,
    valid_partitions,
)
from nilab.linalg import mat_mul, rank_kernel
from nilab.triples import (
    _check_jordan_type,
    _congruence,
    _hyperbolic_basis,
    _pieces,
    principal_partition,
)


def E(n, i, j):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return rows


def jordan_type(e):
    """Independent Jordan-type oracle: the increments of dim ker(e^k) are
    the conjugate partition, so conjugate them back."""
    n = e.algebra.matrix_size_N
    m = e.matrix_rows()
    nullities = [0]
    power = m
    for _ in range(n):
        rank, _ = rank_kernel(power, n)
        nullities.append(n - rank)
        if n - rank == n:
            break
        power = mat_mul(power, m)
    increments = [
        nullities[k] - nullities[k - 1] for k in range(1, len(nullities))
    ]
    parts = []
    for j in range(1, n + 1):
        count = sum(1 for inc in increments if inc >= j)
        if count:
            parts.append(count)
    # parts currently lists lambda'_j conjugated; conjugate of increments
    return tuple(sorted(parts, reverse=True))


def test_partition_validation():
    with pytest.raises(PartitionError):
        Partition((1, 2))
    with pytest.raises(PartitionError):
        Partition((0,))
    with pytest.raises(PartitionError):
        Partition(())
    assert Partition.parse("3,2,2").parts == (3, 2, 2)
    with pytest.raises(PartitionError):
        Partition.parse("3,x")


@pytest.mark.parametrize("parts", [(2.5, 1.5), (3.0, 1.0), ("3", "1")])
def test_partition_rejects_non_integer_parts(parts):
    # a float part is refused, not truncated (2.5, 1.5 once became 2, 1)
    with pytest.raises(PartitionError):
        Partition(parts)


def test_partition_family_constraints():
    b2 = build_algebra("B", 2)
    with pytest.raises(PartitionError):
        nilpotent_from_partition(b2, Partition((4, 1)))  # even part, odd multiplicity
    c2 = build_algebra("C", 2)
    with pytest.raises(PartitionError):
        nilpotent_from_partition(c2, Partition((3, 1)))  # odd parts, odd multiplicity
    a2 = build_algebra("A", 2)
    with pytest.raises(PartitionError):
        nilpotent_from_partition(a2, Partition((2, 2)))  # wrong total


def test_sl_jordan_nilpotents():
    a1 = build_algebra("A", 1)
    assert nilpotent_from_partition(a1, Partition((2,))) == a1.from_matrix(E(2, 0, 1))
    a2 = build_algebra("A", 2)
    e3 = nilpotent_from_partition(a2, Partition((3,)))
    assert e3 == a2.from_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    e21 = nilpotent_from_partition(a2, Partition((2, 1)))
    assert e21 == a2.from_matrix(E(3, 0, 1))


@pytest.mark.parametrize(
    "family,rank,parts",
    [
        ("B", 2, (5,)),
        ("B", 2, (3, 1, 1)),
        ("B", 2, (2, 2, 1)),
        ("B", 3, (7,)),
        ("B", 3, (3, 3, 1)),
        ("B", 3, (5, 1, 1)),
        ("C", 2, (4,)),
        ("C", 2, (2, 2)),
        ("C", 2, (2, 1, 1)),
        ("C", 3, (6,)),
        ("C", 3, (3, 3)),
        ("C", 3, (4, 1, 1)),
        ("D", 2, (3, 1)),
        ("D", 2, (2, 2)),
        ("D", 3, (5, 1)),
        ("D", 3, (3, 3)),
        ("D", 3, (3, 1, 1, 1)),
        ("D", 3, (2, 2, 1, 1)),
    ],
)
def test_bcd_nilpotents_intrinsic(family, rank, parts):
    """Intrinsic correctness: lies in the algebra, nilpotent, right Jordan
    type, and the triple completes."""
    alg = build_algebra(family, rank)
    p = Partition(parts)
    e = nilpotent_from_partition(alg, p)  # membership enforced by from_matrix
    assert e.is_nilpotent()
    assert jordan_type(e) == p.parts
    if not e.is_zero():
        t = sl2_complete(alg, e)
        assert t.e == e


# (family, rank, Jordan type of e, claimed type, first power whose kernel
# dimension tells them apart): at power 1 the numbers of parts differ; at
# power 2 they agree and the sums of min(part, 2) differ, as for (3,1)
# against (2,2): ranks 2 and 2 at power 1, then 1 and 0
WRONG_JORDAN_TYPES = [
    ("A", 3, (4,), (3, 1), 1),
    ("A", 3, (3, 1), (2, 2), 2),
    ("B", 3, (3, 3, 1), (3, 1, 1, 1, 1), 1),
    ("B", 3, (3, 3, 1), (3, 2, 2), 2),
    ("C", 3, (6,), (4, 2), 1),
    ("C", 3, (4, 1, 1), (2, 2, 2), 2),
    ("D", 4, (7, 1), (5, 1, 1, 1), 1),
    ("D", 4, (3, 3, 1, 1), (2, 2, 2, 2), 2),
]


@pytest.mark.parametrize("family,rank,actual,claimed,power", WRONG_JORDAN_TYPES)
def test_jordan_type_check_refuses_another_partition(family, rank, actual, claimed, power):
    alg = build_algebra(family, rank)
    e = nilpotent_from_partition(alg, Partition(actual))
    assert jordan_type(e) == actual
    _check_jordan_type(e, Partition(actual))
    with pytest.raises(InternalError, match=f"wrong Jordan type at power {power}$"):
        _check_jordan_type(e, Partition(claimed))


def test_sl2_complete_closed_form_sl2():
    alg = build_algebra("A", 1)
    t = sl2_complete(alg, alg.from_matrix(E(2, 0, 1)))
    assert t.h == alg.from_matrix([[1, 0], [0, -1]])
    assert t.f == alg.from_matrix(E(2, 1, 0))


def test_sl2_complete_closed_form_sl3_regular():
    # block formula with d = 3: f has subdiagonal entries 1*(3-1), 2*(3-2)
    alg = build_algebra("A", 2)
    t = sl2_complete(alg, nilpotent_from_partition(alg, Partition((3,))))
    assert t.h == alg.from_matrix([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    assert t.f == alg.from_matrix([[0, 0, 0], [2, 0, 0], [0, 2, 0]])


def test_sl2_complete_closed_form_sl3_subregular():
    alg = build_algebra("A", 2)
    t = sl2_complete(alg, alg.from_matrix(E(3, 0, 1)))
    assert t.h == alg.from_matrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    assert t.f == alg.from_matrix(E(3, 1, 0))


def test_sl2_complete_general_fallback():
    # a conjugated nilpotent, off the block shape of the closed form,
    # still completes to a triple through the same e
    alg = build_algebra("A", 2)
    e = nilpotent_from_partition(alg, Partition((3,)))
    e21 = alg.from_matrix(E(3, 1, 0))
    moved = unipotent_conjugate(e21.scale(2), e)
    assert moved != e
    t = sl2_complete(alg, moved)
    assert t.e == moved
    assert bracket(t.h, t.e) == t.e.scale(2)


def test_sl2_complete_contract_errors():
    alg = build_algebra("A", 1)
    with pytest.raises(ContractError):
        sl2_complete(alg, alg.zero())
    h = alg.from_matrix([[1, 0], [0, -1]])
    with pytest.raises(ContractError):
        sl2_complete(alg, h)


def test_triplet_relations_always_hold():
    for family, rank in [("A", 3), ("B", 2), ("C", 2), ("D", 3)]:
        alg = build_algebra(family, rank)
        t = principal_triplet(alg)
        assert bracket(t.h, t.e) == t.e.scale(2)
        assert bracket(t.h, t.f) == t.f.scale(-2)
        assert bracket(t.e, t.f) == t.h


@pytest.mark.parametrize(
    "broken,relation",
    [
        (lambda h, e, f: (h.scale(2), e, f), r"\[h,e\] = 2e"),
        (lambda h, e, f: (h, e, f + e), r"\[h,f\] = -2f"),
        (lambda h, e, f: (h, e, f.scale(2)), r"\[e,f\] = h"),
    ],
    ids=["h-e", "h-f", "e-f"],
)
def test_triplet_refuses_each_broken_relation(broken, relation):
    t = principal_triplet(build_algebra("A", 2))
    Triplet(t.h, t.e, t.f)
    with pytest.raises(InternalError, match=f"triple relation {relation} failed"):
        Triplet(*broken(t.h, t.e, t.f))


def test_h_has_integer_spectrum():
    # ad(h) eigenvalues are integers; for principal triples they are even
    from nilab import h_graduation

    for family, rank in [("A", 2), ("B", 2), ("C", 2)]:
        alg = build_algebra(family, rank)
        t = principal_triplet(alg)
        pieces = h_graduation(t.h, alg.full_space())
        for lam, _ in pieces:
            assert lam.denominator == 1
            assert int(lam) % 2 == 0


def _nonzero_orbit_triples(a_ranks=range(1, 10)):
    """triple_from_partition on every nonzero orbit of the A ranks given
    (A1-A9 by default), B1-B5, C1-C5 and D2-D6."""
    ranks = {"A": a_ranks, "B": range(1, 6), "C": range(1, 6), "D": range(2, 7)}
    for family, family_ranks in ranks.items():
        for rank in family_ranks:
            alg = build_algebra(family, rank)
            for p in valid_partitions(alg):
                if any(part > 1 for part in p.parts):
                    yield triple_from_partition(alg, p)


def test_h_integer_diagonal():
    # h_graduation reads the weights of h off its diagonal and relies on
    # every triple built from a partition having a diagonal integer h
    count = 0
    for t in _nonzero_orbit_triples():
        rows = t.h.matrix_rows()
        for i, row in enumerate(rows):
            assert row[i].denominator == 1
            assert all(v == 0 for j, v in enumerate(row) if j != i)
        count += 1
    assert count > 100


def test_triple_from_partition_matches_the_general_solve():
    # the closed form is the triple the Jacobson-Morozov solve of
    # sl2_complete picks, on every orbit: same h and f through the same e
    count = 0
    for t in _nonzero_orbit_triples(a_ranks=range(1, 7)):
        assert sl2_complete(t.algebra, t.e) == t
        count += 1
    assert count == 183


def test_triple_from_partition_zero_orbit_and_family_constraints():
    b3 = build_algebra("B", 3)
    with pytest.raises(ContractError):
        triple_from_partition(b3, Partition((1,) * 7))
    with pytest.raises(PartitionError):
        triple_from_partition(b3, Partition((4, 3)))
    assert nilpotent_from_partition(b3, Partition((1,) * 7)).is_zero()


@pytest.mark.parametrize(
    "family,rank,parts",
    [
        ("B", 4, (5, 3, 1)),  # three single blocks: two middles pair up
        ("B", 3, (3, 3, 1)),  # a pair of odd blocks and a single
        ("C", 3, (2, 2, 1, 1)),  # pairs only
        ("C", 3, (4, 2)),  # even single blocks
        ("D", 4, (3, 3, 1, 1)),
        ("D", 4, (5, 1, 1, 1)),
        ("D", 2, (2, 2)),
    ],
)
def test_congruence_rejects_a_wrong_sign_in_a_hyperbolic_pair(family, rank, parts):
    """U^t G U = 4S is the one check on the congruence: flipping the sign of
    any hyperbolic pair's w (column N-1-i of U) breaks it."""
    alg = build_algebra(family, rank)
    n = alg.matrix_size_N
    g, u = _hyperbolic_basis(alg, _pieces(alg, Partition(parts)))
    _congruence(alg, g, u)
    for col in range(n - n // 2, n):
        bad = [list(row) for row in u]
        for row in bad:
            row[col] = -row[col]
        with pytest.raises(InternalError, match="form decompositions disagree"):
            _congruence(alg, g, bad)


@pytest.mark.parametrize(
    "family,rank,zdim",
    [("A", 1, 1), ("A", 2, 2), ("A", 3, 3), ("B", 2, 2), ("C", 2, 2), ("D", 3, 3)],
)
def test_principal_triplet_regularity(family, rank, zdim):
    alg = build_algebra(family, rank)
    t = principal_triplet(alg)
    assert centralizer(t.e).dim == zdim == alg.rank_r


def test_principal_partitions():
    assert principal_partition(build_algebra("A", 2)).parts == (3,)
    assert principal_partition(build_algebra("B", 2)).parts == (5,)
    assert principal_partition(build_algebra("C", 2)).parts == (4,)
    assert principal_partition(build_algebra("D", 3)).parts == (5, 1)


def test_regular_centralizer_graduation():
    # eigenvalues of ad(h) on z(e) are twice the exponents
    from nilab import h_graduation

    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("C", 2)]:
        alg = build_algebra(family, rank)
        t = principal_triplet(alg)
        pieces = h_graduation(t.h, centralizer(t.e))
        got = sorted(int(lam) for lam, sp in pieces for _ in range(sp.dim))
        assert got == sorted(2 * m for m in alg.exponents)


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for p in range(min(n, largest), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def _is_jordan_type(family, parts):
    """In B/D every even part, in C every odd part, has even multiplicity."""
    if family == "A":
        return True
    paired = 1 if family == "C" else 0
    return all(parts.count(p) % 2 == 0 for p in set(parts) if p % 2 == paired)


# Every Jordan type of a nilpotent element of sl(2..6), so(3), so(5), so(7),
# sp(2..6) and so(4..8), enumerated independently of the library's checks.
_SMALL_SIZES = {"A": (2, 3, 4, 5, 6), "B": (3, 5, 7), "C": (2, 4, 6), "D": (4, 6, 8)}
_SMALL_JORDAN_TYPES = [
    (family, parts)
    for family, sizes in _SMALL_SIZES.items()
    for n in sizes
    for parts in _partitions(n)
    if _is_jordan_type(family, parts)
]


def closed_form_centralizer_dim(family, parts):
    """dim z(e) from the Jordan type (Collingwood-McGovern, section 6.1)."""
    dual = [sum(1 for p in parts if p > i) for i in range(max(parts))]
    squares = sum(c * c for c in dual)
    odd = sum(1 for p in parts if p % 2)
    if family == "A":
        return squares - 1
    if family == "C":
        return (squares + odd) // 2
    return (squares - odd) // 2


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_SMALL_JORDAN_TYPES))
def test_centralizer_dim_matches_closed_form(orbit):
    family, parts = orbit
    n = sum(parts)
    alg = build_algebra(family, {"A": n - 1, "B": (n - 1) // 2}.get(family, n // 2))
    e = nilpotent_from_partition(alg, Partition(parts))
    assert centralizer(e).dim == closed_form_centralizer_dim(family, parts)
