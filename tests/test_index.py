"""The index pipeline: pair data, the bracket matrix, and its invariants."""

import random
import re
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilab import (
    BracketTensor,
    GraduationError,
    HypothesisViolation,
    IdentityError,
    InternalError,
    InvariantGenerator,
    Partition,
    Poly,
    Rat,
    Subspace,
    Triplet,
    analyze_orbit,
    bracket,
    bracket_matrix,
    build_algebra,
    build_pair_data,
    convolution_at,
    det_shape_check,
    generators,
    gradient,
    index_pair,
    normalizer_decomposition_check,
    nilpotent_from_partition,
    principal_triplet,
    sl2_complete,
    structure_checks,
    sweep,
    triple_from_partition,
    unipotent_conjugate,
    valid_partitions,
)
from nilab.algebras import _power_walk, _weights
from nilab.errors import ContractError
from nilab.index import _gradients_at, _has_weight, _slopes_at
from nilab.invariants import _line_table, _line_terms, _read_gradient_rows
from nilab.linalg import echelon_rows, mat_mul

from readoff import dense_read_gradient
from records import rebuilt


def gradient_derivative(alg, j, x, y):
    """First derivative dP_j(x).y: term (0, 1) of the line expansion."""
    return _line_terms(alg, j, x, y, None, [(0, 1)])[(0, 1)]


def E(n, i, j):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return rows


def pair_data_for(family, rank, parts):
    alg = build_algebra(family, rank)
    e = nilpotent_from_partition(alg, Partition(parts))
    return alg, build_pair_data(alg, sl2_complete(alg, e))


def shape_of(pd, a):
    """det_shape_check with the betas and det the pipeline passes it."""
    return det_shape_check(pd, structure_checks(pd, a).betas, index_pair(pd, a).det)


def test_records_are_read_only_and_the_value_records_compare_by_value():
    alg = build_algebra("A", 3)
    partition = Partition((4,))
    triplet = triple_from_partition(alg, partition)
    pd = build_pair_data(alg, triplet)
    result = index_pair(pd, bracket_matrix(pd))
    gen = generators(alg)[1]
    fields = [
        (partition, "parts"), (triplet, "e"), (triplet, "frame"), (gen, "degree"),
        (pd, "z_vec"), (pd, "_brackets"), (result, "ind"),
    ]
    for record, name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    # the refused assignments left each field as it was
    assert (partition.parts, pd.z_vec[0].is_zero(), result.ind) == ((4,), False, 0)
    # Partition, Triplet and InvariantGenerator compare and hash by value;
    # a triplet's frame is left out
    same = Partition([4])
    assert same == partition and hash(same) == hash(partition) and same != Partition((3, 1))
    unframed = rebuilt(triplet, frame=None)
    assert triplet.frame is not None and unframed.frame is None
    assert unframed == triplet and hash(unframed) == hash(triplet)
    assert triple_from_partition(alg, Partition((3, 1))) != triplet
    twin = InvariantGenerator(gen.index_j, gen.degree, gen.exponent, gen.kind)
    assert twin == gen and hash(twin) == hash(gen)
    assert InvariantGenerator(gen.index_j, gen.degree, gen.exponent, "pfaffian") != gen
    # rebuilt goes through the constructor: the caches of a PairData start
    # empty, and a Triplet's brackets are checked again
    pd.bracket(1, 2)
    pd.derivative(1, 2)
    assert pd._h_weights and "_h_weights" in vars(pd)
    copy = rebuilt(pd, z_vec=pd.z_vec)
    assert copy._brackets == {} and copy._derivatives == {} and "_h_weights" not in vars(copy)
    with pytest.raises(InternalError, match=r"\[e,f\] = h"):
        rebuilt(triplet, f=triplet.f.scale(2))


def test_pair_data_sl3_regular():
    alg, pd = pair_data_for("A", 2, (3,))
    e13 = alg.from_matrix(E(3, 0, 2))
    e12 = alg.from_matrix(E(3, 0, 1))
    e23 = alg.from_matrix(E(3, 1, 2))
    assert pd.s == 2
    assert pd.pair_exponents == (1, 2)
    assert pd.hypothesis_ok
    assert pd.z_vec[0] == pd.triplet.e.scale(2)
    assert pd.z_vec[1] == e13.scale(3)
    assert pd.y_vec[0] == pd.triplet.h.scale(2)
    assert pd.y_vec[1] == e12.scale(6) - e23.scale(6)


def test_pair_data_sl3_subregular():
    alg, pd = pair_data_for("A", 2, (2, 1))
    e12 = alg.from_matrix(E(3, 0, 1))
    assert pd.s == 1
    assert pd.pair_exponents == (1,)
    assert pd.hypothesis_ok
    assert pd.delta.dim == 1 and pd.delta.contains(e12)
    assert pd.z_vec[0] == e12.scale(2)
    h = pd.triplet.h
    assert pd.y_vec[0] == h.scale(2)


def test_pair_data_sl2():
    alg, pd = pair_data_for("A", 1, (2,))
    assert pd.s == 1
    assert pd.z_vec[0] == pd.triplet.e.scale(2)
    assert pd.y_vec[0] == pd.triplet.h.scale(2)


def test_normalizer_decomposition_relations_sl2():
    alg, pd = pair_data_for("A", 1, (2,))
    report = normalizer_decomposition_check(pd)
    assert report.passed
    # spot values: [e, 2h] = -4e and [f, 2e] = -2h
    from nilab import bracket

    assert bracket(pd.triplet.e, pd.y_vec[0]) == pd.triplet.e.scale(-4)
    assert bracket(pd.triplet.f, pd.z_vec[0]) == -pd.y_vec[0]


def test_normalizer_decomposition_relations_sl3():
    alg, pd = pair_data_for("A", 2, (3,))
    report = normalizer_decomposition_check(pd)
    assert report.passed
    from nilab import bracket

    e13 = alg.from_matrix(E(3, 0, 2))
    assert bracket(pd.triplet.e, pd.y_vec[1]) == e13.scale(-12)
    assert bracket(pd.triplet.h, pd.y_vec[1]) == pd.y_vec[1].scale(2)
    assert pd.eta.dim == pd.zcent.dim + pd.delta.dim == 4


def test_bracket_matrix_sl2():
    alg, pd = pair_data_for("A", 1, (2,))
    a = bracket_matrix(pd)
    assert a.vectors[0][0] == pd.triplet.e.scale(8)


def test_bracket_matrix_sl3_frozen():
    alg, pd = pair_data_for("A", 2, (3,))
    a = bracket_matrix(pd)
    e13 = alg.from_matrix(E(3, 0, 2))
    assert a.vectors[0][0] == pd.triplet.e.scale(8)
    assert a.vectors[0][1] == e13.scale(24)
    assert a.vectors[1][0] == e13.scale(24)
    assert a.vectors[1][1].is_zero()  # m' sum 3 is not a pair exponent


def test_bracket_matrix_sl3_subregular():
    alg, pd = pair_data_for("A", 2, (2, 1))
    a = bracket_matrix(pd)
    e12 = alg.from_matrix(E(3, 0, 1))
    assert a.vectors[0][0] == e12.scale(8)


def test_structure_checks_betas():
    _, pd = pair_data_for("A", 2, (3,))
    a = bracket_matrix(pd)
    st = structure_checks(pd, a)
    assert st.report.passed
    assert st.betas == (Rat(8), Rat(8))
    _, pd1 = pair_data_for("A", 1, (2,))
    st1 = structure_checks(pd1, bracket_matrix(pd1))
    assert st1.betas == (Rat(4),)  # 8e = 4 * (2e)


@pytest.mark.parametrize(
    "family,rank,parts,ind",
    [
        ("A", 1, (2,), 0),
        ("A", 2, (3,), 0),
        ("A", 2, (2, 1), 0),
        ("B", 2, (5,), 0),
        ("C", 2, (4,), 0),
        ("B", 3, (7,), 0),
        ("C", 3, (6,), 0),
        ("D", 3, (5, 1), 0),
    ],
)
def test_index_zero_cases(family, rank, parts, ind):
    _, pd = pair_data_for(family, rank, parts)
    a = bracket_matrix(pd)
    result = index_pair(pd, a)
    assert result.ind == ind
    assert result.det_consistent
    assert result.ind == result.dim_delta - result.rank


def test_det_shape_sl3_frozen():
    _, pd = pair_data_for("A", 2, (3,))
    shape = shape_of(pd, bracket_matrix(pd))
    variables = ("t0", "t1")
    t1 = Poly.variable(variables, 1)
    assert shape.det == Poly.const(variables, -576) * t1 * t1
    assert shape.epsilon == -1
    assert shape.gamma == 64
    assert shape.gamma_nonzero


def test_det_shape_sl2():
    _, pd = pair_data_for("A", 1, (2,))
    shape = shape_of(pd, bracket_matrix(pd))
    # det = 8 t0 = epsilon * gamma * (2 t0) with epsilon = 1, gamma = 4
    assert shape.det == Poly.linear(("t0",), [Rat(8)])
    assert shape.epsilon == 1
    assert shape.gamma == 4


def test_det_shape_check_refuses_a_wrong_determinant():
    _, pd = pair_data_for("A", 2, (3,))
    a = bracket_matrix(pd)
    betas, det = structure_checks(pd, a).betas, index_pair(pd, a).det
    with pytest.raises(TypeError):
        det_shape_check(pd)  # betas and det are required
    with pytest.raises(
        IdentityError, match="determinant does not match the antidiagonal product shape"
    ):
        det_shape_check(pd, betas, det + det)


def test_det_shape_subregular_nonzero():
    _, pd = pair_data_for("A", 2, (2, 1))
    shape = shape_of(pd, bracket_matrix(pd))
    assert not shape.det.is_zero()
    assert shape.gamma_nonzero


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("C", 2), ("B", 3), ("C", 3), ("D", 3)],
)
def test_det_shape_regular_gamma_nonzero(family, rank):
    alg = build_algebra(family, rank)
    pd = build_pair_data(alg, principal_triplet(alg))
    shape = shape_of(pd, bracket_matrix(pd))
    assert shape.gamma_nonzero
    want_eps = -1 if (rank * (rank - 1) // 2) % 2 else 1
    assert shape.epsilon == want_eps


def test_convolution_audit_sl2():
    _, pd = pair_data_for("A", 1, (2,))
    conv = convolution_at(pd, 1, 1)
    assert conv.grad == pd.triplet.e.scale(8)
    assert conv.c_observed == 1
    assert conv.c_reference == Rat(1, 2)
    assert conv.alphas == (Rat(4),)


def test_convolution_audit_sl3():
    alg, pd = pair_data_for("A", 2, (3,))
    e13 = alg.from_matrix(E(3, 0, 2))
    conv = convolution_at(pd, 1, 2)
    assert conv.grad == e13.scale(18)  # 6 E13 + 12 E13
    assert conv.c_observed == Rat(4, 3)
    assert conv.c_reference == Rat(2, 3)
    assert conv.alphas == (Rat(0), Rat(6))
    conv22 = convolution_at(pd, 2, 2)
    assert conv22.grad.is_zero()
    assert conv22.c_observed is None


def test_convolution_observed_is_twice_reference():
    for family, rank, parts in [("A", 2, (3,)), ("A", 3, (4,)), ("B", 2, (5,)), ("C", 2, (4,))]:
        _, pd = pair_data_for(family, rank, parts)
        bracket_matrix(pd)
        for i in range(1, pd.s + 1):
            for j in range(i, pd.s + 1):
                conv = convolution_at(pd, i, j)
                if conv.c_observed is not None:
                    assert conv.c_observed == 2 * conv.c_reference


def test_convolution_derivatives_walk_the_powers_of_e_and_expand_only_the_pfaffian(monkeypatch):
    # d_ij = dQ_i(e).z_j comes from the slope walk of the y_j along z_j, one
    # walk over the powers of e per direction: A and C take no packed
    # expansion, and D takes one per direction z_j, for the Pfaffian
    # generator alone
    import nilab.index as index_module

    calls = []
    real = index_module._line_table

    def counting(*args):
        calls.append(args)
        return real(*args)

    for family, rank, parts in [("A", 3, (4,)), ("C", 3, (6,)), ("D", 4, (5, 3))]:
        alg, pd = pair_data_for(family, rank, parts)
        monkeypatch.setattr(index_module, "_line_table", counting)
        calls.clear()
        entries = list(index_module.convolution_entries(pd))
        monkeypatch.undo()
        assert len(entries) == pd.s * (pd.s + 1) // 2
        assert pd.s >= 2
        pfaffians = [g.index_j for g in generators(alg) if g.kind == "pfaffian"]
        if family == "D":
            assert pfaffians[0] in pd.selected_indices
            assert [tuple(args[1]) for args in calls] == [tuple(pfaffians)] * pd.s
            assert sorted(pd.z_vec.index(args[3]) for args in calls) == list(range(pd.s))
        else:
            assert not pfaffians and calls == []
        e = pd.triplet.e
        for i, ji in enumerate(pd.selected_indices, start=1):
            for j, zj in enumerate(pd.z_vec, start=1):
                assert pd.derivative(i, j) == gradient_derivative(alg, ji, e, zj)


@pytest.mark.parametrize("family,rank", [("A", 5), ("B", 3), ("C", 3), ("D", 4), ("D", 5)])
def test_convolution_derivatives_match_the_line_expansion_on_every_orbit(family, rank):
    # every pair of every orbit that satisfies the hypothesis, against the
    # first derivative of the packed line expansion
    alg = build_algebra(family, rank)
    orbits = 0
    for partition in valid_partitions(alg):
        if all(p == 1 for p in partition.parts):
            continue
        pd = build_pair_data(alg, triple_from_partition(alg, partition))
        if not pd.hypothesis_ok:
            continue
        e = pd.triplet.e
        for i, ji in enumerate(pd.selected_indices, start=1):
            for j, zj in enumerate(pd.z_vec, start=1):
                expected = gradient_derivative(alg, ji, e, zj)
                assert pd.derivative(i, j) == expected, (partition, i, j)
        orbits += 1
    assert orbits >= 3


def test_convolution_derivative_walks_a_moved_direction_and_the_audit_refuses_it():
    # the slope walk assumes nothing of [e, z_j]: along z_2 moved by y_1,
    # which does not commute with e ([e, y_1] = -2 m_1 z_1), each d_i2 is
    # still the first derivative of the line expansion, so the audit refuses
    # the pair because [y_1, z_2] no longer matches it; the other directions
    # keep their derivatives
    alg, pd = pair_data_for("A", 3, (4,))
    e, zs = pd.triplet.e, list(pd.z_vec)
    zs[1] = zs[1] + pd.y_vec[0]
    bad = rebuilt(pd, z_vec=tuple(zs))
    assert not bracket(e, zs[1]).is_zero()
    for i, ji in enumerate(pd.selected_indices, start=1):
        assert bad.derivative(i, 2) == gradient_derivative(alg, ji, e, zs[1])
    with pytest.raises(IdentityError, match="derivative audit failed"):
        convolution_at(bad, 1, 2)
    assert bad.derivative(3, 1) == pd.derivative(3, 1)


WALK_ALGEBRAS = [("A", 5), ("B", 3), ("C", 3), ("D", 4), ("D", 5)]


def nonzero_orbit_triples(alg):
    return [
        (p, triple_from_partition(alg, p))
        for p in valid_partitions(alg)
        if any(part > 1 for part in p.parts)
    ]


@pytest.mark.parametrize("family,rank", WALK_ALGEBRAS)
def test_walk_values_and_slopes_match_the_line_expansion_on_every_orbit(family, rank):
    # P_j(e) and y_j = dP_j(e).h off the sparse walk of e equal the (0, 0)
    # and (0, 1) terms of the packed expansion along h, for every generator
    # of every nonzero orbit, those that violate the hypothesis included,
    # and build_pair_data keeps the selected ones
    alg = build_algebra(family, rank)
    js = [gen.index_j for gen in generators(alg)]
    violated = 0
    for partition, triplet in nonzero_orbit_triples(alg):
        e, h = triplet.e, triplet.h
        table = _line_table(alg, js, e, h, None, [(0, 0), (0, 1)])
        assert _gradients_at(alg, e) == [table[j][(0, 0)] for j in js], partition
        assert _slopes_at(alg, e, h, js) == tuple(table[j][(0, 1)] for j in js), partition
        pd = build_pair_data(alg, triplet)
        grads = [table[j][(0, 0)] for j in js]
        pivots, _ = echelon_rows(list(zip(*(g.num for g in grads))), len(js))
        assert pd.selected_indices == tuple(js[k] for k in pivots)
        assert pd.z_vec == tuple(table[j][(0, 0)] for j in pd.selected_indices)
        assert pd.y_vec == tuple(table[j][(0, 1)] for j in pd.selected_indices)
        violated += not pd.hypothesis_ok
    assert violated >= (family in "BD")


@pytest.mark.parametrize("family,rank", WALK_ALGEBRAS)
def test_slopes_match_the_line_expansion_along_random_directions(family, rank):
    # the slope walk takes any direction u: along seeded random u, which do
    # not commute with e, dP_j(e).u is the (0, 1) term of the packed
    # expansion along u, for every generator of every nonzero orbit
    alg = build_algebra(family, rank)
    js = [gen.index_j for gen in generators(alg)]
    rng = random.Random(f"slopes:{family}{rank}")
    for partition, triplet in nonzero_orbit_triples(alg):
        e = triplet.e
        for _ in range(2):
            u = alg.random_element(rng).scale(Rat(2, 3))
            assert not bracket(e, u).is_zero()
            table = _line_table(alg, js, e, u, None, [(0, 1)])
            assert _slopes_at(alg, e, u, js) == tuple(table[j][(0, 1)] for j in js), partition


@pytest.mark.parametrize("family,rank", WALK_ALGEBRAS)
def test_power_walk_lists_the_nonzero_powers_of_e(family, rank):
    # for e of Jordan type p the walk is None, then E^1 .. E^(p_1 - 1), each
    # nonzero and equal to the dense power; is_nilpotent reads its length,
    # so it holds for e and 0 and fails for the diagonal h and a random x
    alg = build_algebra(family, rank)
    rng = random.Random(f"walk:{family}{rank}")
    assert _power_walk(alg.zero()) == [None] and alg.zero().is_nilpotent()
    for partition, triplet in nonzero_orbit_triples(alg):
        e, h = triplet.e, triplet.h
        walk = _power_walk(e)
        assert len(walk) == partition.parts[0] and walk[0] is None, partition
        rows, _ = e.int_rows()
        power = rows
        for k in range(1, len(walk)):
            assert walk[k] and normalized(walk[k]) == normalized(sparse_rows(power)), partition
            power = mat_mul(power, rows)
        assert not any(any(row) for row in power)
        assert e.is_nilpotent() and not h.is_nilpotent()
        assert not alg.random_element(rng).is_nilpotent()


@pytest.mark.parametrize("family,rank", WALK_ALGEBRAS)
def test_slopes_walk_the_powers_of_an_e_that_nothing_walked_before(family, rank):
    # _slopes_at needs no caller to have walked e first: with the walk cache
    # emptied, the slopes along h and along a random u are the (0, 1) terms
    # of the packed expansion
    alg = build_algebra(family, rank)
    js = [gen.index_j for gen in generators(alg)]
    rng = random.Random(f"fresh:{family}{rank}")
    for partition, triplet in nonzero_orbit_triples(alg):
        e = triplet.e
        for u in (triplet.h, alg.random_element(rng)):
            table = _line_table(alg, js, e, u, None, [(0, 1)])
            _power_walk.cache_clear()
            assert _slopes_at(alg, e, u, js) == tuple(table[j][(0, 1)] for j in js), partition


def test_analyze_orbit_walks_the_powers_of_e_once_per_orbit():
    # the Jordan-type check walks e; the gradients, the y_j and the audit
    # derivatives along each z_j read that walk again, and the zero orbit
    # walks nothing
    alg = build_algebra("A", 6)
    _power_walk.cache_clear()
    reports = [analyze_orbit(alg, p) for p in valid_partitions(alg)]
    nonzero = [r for r in reports if not r.skipped]
    assert (len(nonzero), len(reports)) == (14, 15)
    assert all(r.passed and r.s for r in nonzero)
    info = _power_walk.cache_info()
    assert (info.misses, info.hits) == (14, sum(2 + r.s for r in nonzero))


def normalized(rows):
    return {i: sorted(line) for i, line in rows.items()}


def sparse_rows(rows):
    return {
        i: [(j, v) for j, v in enumerate(line) if v] for i, line in enumerate(rows) if any(line)
    }


@pytest.mark.parametrize("family,rank", WALK_ALGEBRAS)
def test_sparse_read_off_matches_the_dense_read_off_on_the_walk_matrices(family, rank):
    # E^k, S_k = sum_a E^a H E^(k-1-a) and E^(k-1) Z_j, formed densely here,
    # read through the sparse read-off and through the retired dense
    # substitution with the sl projection (dense_read_gradient, a test
    # reference): the same element, or ContractError from
    # both for a matrix outside g, as the even powers of so/sp elements are.
    # Those matrices are traceless; H^2 and E F, which are not, take the sl
    # projection
    alg = build_algebra(family, rank)
    n, factor = alg.matrix_size_N, (3, 2)
    outcomes = set()
    for _, triplet in nonzero_orbit_triples(alg):
        (e, de), (h, dh) = triplet.e.int_rows(), triplet.h.int_rows()
        f, df = triplet.f.int_rows()
        pd = build_pair_data(alg, triplet)
        powers = [[[int(i == j) for j in range(n)] for i in range(n)]]  # powers[k] = E^k
        for _ in range(max(alg.exponents)):
            powers.append(mat_mul(powers[-1], e))
        matrices = [(mat_mul(h, h), dh * dh), (mat_mul(e, f), de * df)]
        matrices += [(powers[k], de**k) for k in range(1, len(powers))]
        for k in range(1, len(powers)):
            terms = [mat_mul(mat_mul(powers[a], h), powers[k - 1 - a]) for a in range(k)]
            total = [list(map(sum, zip(*rows))) for rows in zip(*terms)]
            matrices.append((total, de ** (k - 1) * dh))
        for z in pd.z_vec:
            zr, dz = z.int_rows()
            matrices += [(mat_mul(powers[k], zr), de**k * dz) for k in range(len(powers))]
        for rows, den in matrices:
            try:
                expected = dense_read_gradient(alg, rows, den, factor)
            except ContractError:
                expected = ContractError
            try:
                got = _read_gradient_rows(alg, sparse_rows(rows), den, factor)
            except ContractError:
                got = ContractError
            assert got == expected
            outcomes.add(expected is ContractError)
    assert outcomes == ({False} if family == "A" else {False, True})


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 3), ("D", 4)])
def test_sparse_read_off_refuses_a_matrix_outside_g(family, rank):
    # E_00 is no so/sp matrix, alone or added to e; sl(n) has no such matrix
    # once the trace part is taken off
    alg = build_algebra(family, rank)
    e = principal_triplet(alg).e
    rows = {i: list(line) for i, line in e._sparse_form().items()}
    rows.setdefault(0, []).append((0, 1))
    for bad in ({0: [(0, 1)]}, {i: sorted(line) for i, line in rows.items()}):
        with pytest.raises(ContractError, match="matrix does not lie in the algebra"):
            _read_gradient_rows(alg, bad, 1, (1, 1))
    assert _read_gradient_rows(alg, e._sparse_form(), e.den, (1, 1)) == e
    assert _read_gradient_rows(alg, {}, 3, (2, 1)) == alg.zero()


@pytest.mark.parametrize("family,rank", WALK_ALGEBRAS)
def test_pair_data_expands_the_pfaffian_alone(monkeypatch, family, rank):
    # build_pair_data reads the trace kind off the walk: no packed expansion
    # on A, B and C; on D one for the Pfaffian's value, and one more along h
    # for its slope when it is selected
    import nilab.index as index_module

    calls = []
    real = index_module._line_table

    def counting(alg, js, *args):
        calls.append(tuple(js))
        return real(alg, js, *args)

    monkeypatch.setattr(index_module, "_line_table", counting)
    alg = build_algebra(family, rank)
    pfaffians = tuple(g.index_j for g in generators(alg) if g.kind == "pfaffian")
    seen = set()
    for _, triplet in nonzero_orbit_triples(alg):
        calls.clear()
        pd = build_pair_data(alg, triplet)
        if not pfaffians:
            assert calls == []
            continue
        selected = pfaffians[0] in pd.selected_indices
        assert calls == [pfaffians] * (1 + selected)
        seen.add(selected)
    assert seen == (set() if family in "ABC" else {False, True})


def test_bracket_matrix_and_convolution_audit_share_one_bracket_per_pair(monkeypatch):
    # [y_i, z_j] is computed once per ordered pair, for bracket_matrix and the
    # convolution audit together, and equals a fresh bracket
    import nilab.index as index_module

    real = index_module.bracket
    for family, rank, parts in [("A", 3, (4,)), ("C", 3, (6,)), ("D", 4, (5, 3))]:
        _, pd = pair_data_for(family, rank, parts)
        calls = []

        def counting(x, y):
            calls.append((x, y))
            return real(x, y)

        monkeypatch.setattr(index_module, "bracket", counting)
        a = bracket_matrix(pd)
        list(index_module.convolution_entries(pd))
        monkeypatch.undo()
        pairs = {(pd.y_vec.index(x), pd.z_vec.index(y)) for x, y in calls}
        assert len(calls) == len(pairs) == pd.s**2 and pd.s >= 2
        for i in range(pd.s):
            for j in range(pd.s):
                assert a.vectors[i][j] == real(pd.y_vec[i], pd.z_vec[j])


def test_convolution_audit_compares_the_two_brackets_of_a_pair():
    # the symmetry check reads [y_j, z_i] as its own bracket, not [y_i, z_j]
    _, pd = pair_data_for("A", 3, (4,))
    wrong = pd.bracket(1, 2).scale(2)
    pd._brackets[2, 1] = wrong
    with pytest.raises(IdentityError, match="symmetry"):
        convolution_at(pd, 1, 2)
    with pytest.raises(IdentityError, match="symmetric"):
        bracket_matrix(pd)


# Each fault replaces one cached derivative of the pair (1, 2) on A3 (4), so
# that one audit decision is the first to fail: the new value of d_12 or
# d_21 from (pd, d_12, d_21), and the message expected.
CONVOLUTION_FAULTS = {
    "derivative-audit": (
        (1, 2), lambda pd, d12, d21: d12 + pd.z_vec[0], "derivative audit failed"
    ),
    "left-the-center": (
        (2, 1), lambda pd, d12, d21: d21 + pd.triplet.h, "left the center"
    ),
    "not-proportional": (
        (2, 1), lambda pd, d12, d21: d21 + pd.z_vec[0], "is not proportional"
    ),
    "vanishing-gradient": (
        (2, 1),
        lambda pd, d12, d21: d12.scale(-1),
        "bracket nonzero while the convolution gradient vanishes",
    ),
}


@pytest.mark.parametrize("fault", list(CONVOLUTION_FAULTS))
def test_convolution_audit_refuses_each_broken_derivative(fault):
    (i, j), value, message = CONVOLUTION_FAULTS[fault]
    _, pd = pair_data_for("A", 3, (4,))
    convolution_at(pd, 1, 2)  # the unbroken pair passes
    d12, d21 = pd.derivative(1, 2), pd.derivative(2, 1)
    # h lies outside delta; z_1 lies in delta and is not proportional to
    # [y_1, z_2]
    assert not pd.delta.contains(pd.triplet.h) and pd.delta.contains(pd.z_vec[0])
    assert Subspace.from_elements(pd.algebra, [pd.bracket(1, 2), pd.z_vec[0]]).dim == 2
    row = list(pd._derivatives[j])
    row[i - 1] = value(pd, d12, d21)
    pd._derivatives[j] = tuple(row)
    with pytest.raises(IdentityError, match=message):
        convolution_at(pd, 1, 2)


def test_build_pair_data_refuses_a_gradient_outside_the_center(monkeypatch):
    # a center short of its first echelon row no longer holds P_1(e), on the
    # kernel route (center_of) and on the frame route (frame_subspaces)
    import nilab.index as index_module

    real_center, real_frame = index_module.center_of, index_module.frame_subspaces

    def short(delta):
        return Subspace.from_coord_rows(delta.algebra, list(delta.num_rows[1:]))

    def short_frame(alg, frame):
        zcent, delta = real_frame(alg, frame)
        return zcent, short(delta)

    alg = build_algebra("A", 3)
    triplet = triple_from_partition(alg, Partition((4,)))
    routes = (triplet, rebuilt(triplet, frame=None))
    for t in routes:
        build_pair_data(alg, t)
    monkeypatch.setattr(index_module, "center_of", lambda zcent: short(real_center(zcent)))
    monkeypatch.setattr(index_module, "frame_subspaces", short_frame)
    for t in routes:
        with pytest.raises(
            IdentityError, match="gradient 1 at e is outside the center of the centralizer"
        ):
            build_pair_data(alg, t)


def test_bracket_matrix_refuses_an_entry_outside_the_center():
    # y_1 + f brackets z_1 to A_11 + [f, z_1] = A_11 - y_1, and y_1 lies
    # outside delta
    _, pd = pair_data_for("A", 3, (4,))
    bracket_matrix(pd)
    ys = list(pd.y_vec)
    ys[0] = ys[0] + pd.triplet.f
    with pytest.raises(
        IdentityError, match=re.escape("[y_1, z_1] is not in the center of the centralizer")
    ):
        bracket_matrix(rebuilt(pd, y_vec=tuple(ys)))


def test_convolution_audit_refuses_a_pair_index_out_of_range():
    _, pd = pair_data_for("A", 3, (4,))
    for i, j in [(0, 1), (1, 4)]:
        with pytest.raises(
            IdentityError, match=re.escape(f"pair index ({i},{j}) out of range 1..3")
        ):
            convolution_at(pd, i, j)


def test_hypothesis_refusal_paths():
    alg = build_algebra("D", 4)
    e = nilpotent_from_partition(alg, Partition((3, 3, 1, 1)))
    pd = build_pair_data(alg, sl2_complete(alg, e))
    assert not pd.hypothesis_ok
    assert pd.delta.dim == 2 and pd.s == 1  # gradients span a line only
    with pytest.raises(HypothesisViolation):
        normalizer_decomposition_check(pd)
    with pytest.raises(HypothesisViolation):
        bracket_matrix(pd)


def test_duplicate_exponent_refusal():
    alg = build_algebra("D", 2)  # exponents (1, 1)
    e = nilpotent_from_partition(alg, Partition((3, 1)))
    pd = build_pair_data(alg, sl2_complete(alg, e))
    assert not pd.distinct_exponents
    assert pd.hypothesis_ok
    a = bracket_matrix(pd)
    idx = index_pair(pd, a)  # index itself is fine
    with pytest.raises(HypothesisViolation):
        structure_checks(pd, a)
    with pytest.raises(HypothesisViolation):
        det_shape_check(pd, (), idx.det)


def test_valid_partitions_families():
    assert [p.parts for p in valid_partitions(build_algebra("A", 2))] == [
        (3,),
        (2, 1),
        (1, 1, 1),
    ]
    assert [p.parts for p in valid_partitions(build_algebra("B", 2))] == [
        (5,),
        (3, 1, 1),
        (2, 2, 1),
        (1, 1, 1, 1, 1),
    ]
    assert [p.parts for p in valid_partitions(build_algebra("C", 2))] == [
        (4,),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_sweep_sl3():
    reports = sweep("A", 3)
    assert [rep.partition for rep in reports] == ["3", "2,1", "1,1,1"]
    assert reports[2].skipped and reports[2].note == "e = 0"
    for rep in reports[:2]:
        assert rep.hypothesis_ok and rep.ind == 0 and rep.passed


def test_sweep_sl4_all_zero_index():
    reports = sweep("A", 4)
    live = [rep for rep in reports if not rep.skipped]
    assert len(live) == 4
    assert all(rep.ind == 0 and rep.hypothesis_ok and rep.passed for rep in live)


def test_sweep_captures_per_orbit_results():
    rep = analyze_orbit(build_algebra("A", 2), Partition((2, 1)))
    d = rep.to_dict()
    assert d["ind"] == 0
    assert d["dims"] == {"g": 8, "z": 4, "delta": 1, "eta": 5}
    assert d["alphas"]["1,1"] == ["4"]
    assert d["const_audit"]["1,1"]["c_observed"] == "1"
    assert d["const_audit"]["1,1"]["c_reference"] == "1/2"


def _swap_middle(x):
    """x conjugated by the swap of basis vectors r-1 and r of the 2r-space:
    it keeps the antidiagonal form and has determinant -1."""
    rows, den = x.int_rows()
    order = list(range(len(rows)))
    r = len(rows) // 2
    order[r - 1], order[r] = r, r - 1
    return x.algebra.coords_of_rows([[rows[i][j] for j in order] for i in order], den)


@pytest.mark.parametrize("rank", [4, 6, 8])
def test_very_even_twins_share_their_invariants(rank, monkeypatch):
    # a very even partition labels two SO(2r)-orbits; the swap carries the
    # constructed triple to a triple of the other orbit
    import nilab.index as index_module

    alg = build_algebra("D", rank)
    very_even = [p for p in valid_partitions(alg) if all(d % 2 == 0 for d in p.parts)]
    assert len(very_even) == {4: 2, 6: 3, 8: 5}[rank]
    for partition in very_even:
        triple = triple_from_partition(alg, partition)
        twin = Triplet(*(_swap_middle(x) for x in (triple.h, triple.e, triple.f)))
        assert twin.e != triple.e
        original = analyze_orbit(alg, partition)
        monkeypatch.setattr(index_module, "triple_from_partition", lambda *_: twin)
        mirrored = analyze_orbit(alg, partition)
        monkeypatch.undo()
        assert not original.error and not mirrored.error, partition
        assert mirrored.dims == original.dims, partition
        assert mirrored.hypothesis_ok == original.hypothesis_ok, partition
        assert mirrored.ind == original.ind, partition


def test_analyze_orbit_computes_one_determinant(monkeypatch):
    # rank and determinant of A come from one elimination per orbit
    import nilab.poly as poly_module

    calls = []
    real_eliminate = poly_module._eliminate

    def counting_eliminate(den, a, variables):
        calls.append(len(a))
        return real_eliminate(den, a, variables)

    monkeypatch.setattr(poly_module, "_eliminate", counting_eliminate)
    alg = build_algebra("A", 3)
    rep = analyze_orbit(alg, Partition((4,)))
    assert rep.passed and rep.det_text
    assert calls == [3]


def test_seed_changes_only_prime_samples():
    # the seed drives the randomized rank cross-check, never the structure
    def strip(reports):
        out = []
        for rep in reports:
            d = rep.to_dict()
            d.pop("prime_samples")
            out.append(d)
        return out

    a = sweep("A", 4, seed=1)
    b = sweep("A", 4, seed=2)
    assert strip(a) == strip(b)


def test_scale_robustness_sl4_orbit():
    outcomes = []
    for scale in (1, 5):
        alg = build_algebra("A", 3, form_scale=scale)
        e = nilpotent_from_partition(alg, Partition((3, 1)))
        pd = build_pair_data(alg, sl2_complete(alg, e))
        a = bracket_matrix(pd)
        result = index_pair(pd, a)
        outcomes.append((pd.hypothesis_ok, result.rank, result.ind))
    assert outcomes[0] == outcomes[1]


def test_so8_nonzero_index_is_consistent():
    # outside sl/so(odd)/sp the index can be positive; the value is
    # cross-checked internally by the prime-evaluation rank route
    alg = build_algebra("D", 4)
    e = nilpotent_from_partition(alg, Partition((5, 3)))
    pd = build_pair_data(alg, sl2_complete(alg, e))
    assert pd.hypothesis_ok
    a = bracket_matrix(pd)
    result = index_pair(pd, a)
    assert result.ind == result.dim_delta - result.rank
    assert result.det_consistent
    assert result.ind > 0


def test_rref_calls_do_not_depend_on_process_history(monkeypatch):
    # no lazily filled cache may run an elimination on first use only, or
    # per-call work would depend on what ran earlier in the process; every
    # linalg elimination runs one _gauss_jordan (echelon_rows, solve and
    # inverse, which the pipeline calls, and the references rref and
    # rank_kernel) or one _sparse_elimination (echelon_kernel), so counting
    # both counts every elimination
    import sys

    import nilab.linalg as linalg_module
    from nilab.invariants import directional_scalar_derivative

    calls = []
    real = (linalg_module._gauss_jordan, linalg_module._sparse_elimination)

    def counting(elimination):
        def call(*args):
            calls.append(elimination.__name__)
            return elimination(*args)

        return call

    for name, module in sorted(sys.modules.items()):
        if name == "nilab" or name.startswith("nilab."):
            for key, value in list(vars(module).items()):
                if any(value is f for f in real):
                    monkeypatch.setattr(module, key, counting(value))

    def eliminations(fn):
        before = len(calls)
        fn()
        return len(calls) - before

    so8 = build_algebra("D", 4)
    orbit = [eliminations(lambda: analyze_orbit(so8, Partition((7, 1)))) for _ in range(2)]
    assert orbit[0] == orbit[1] > 0
    assert set(calls) == {"_gauss_jordan", "_sparse_elimination"}  # both are seen
    sl5 = build_algebra("A", 4)  # generator 4 has degree 5: six nodes
    x, y = sl5.random_element(random.Random(1)), sl5.random_element(random.Random(2))
    scalar = [eliminations(lambda: directional_scalar_derivative(sl5, 4, x, y)) for _ in range(2)]
    assert scalar[0] == scalar[1]


def test_pipeline_runs_no_rational_elimination(monkeypatch):
    # rref and rank_kernel are kept as rational references only: building a
    # realization and analyzing an orbit must not reach either of them
    import sys

    import nilab.linalg as linalg_module

    references = (linalg_module.rref, linalg_module.rank_kernel)

    def forbidden(fn):
        def call(*args, **kwargs):
            raise AssertionError(f"the pipeline called linalg.{fn.__name__}")

        return call

    for name, module in sorted(sys.modules.items()):
        if name == "nilab" or name.startswith("nilab."):
            for key, value in list(vars(module).items()):
                if any(value is fn for fn in references):
                    monkeypatch.setattr(module, key, forbidden(value))
    for family, rank, parts in [
        ("A", 3, (3, 1)),
        ("B", 3, (3, 3, 1)),
        ("C", 3, (4, 2)),
        ("D", 4, (5, 3)),
    ]:
        report = analyze_orbit(build_algebra(family, rank), Partition(parts))
        assert not report.skipped and report.error == "", (family, parts, report.error)


def _powers_of(e, step):
    """e^k for k = 1, 1 + step, 1 + 2 step, ... while nonzero, as elements
    (step 1 or 2)."""
    rows = e.matrix_rows()
    factor = rows if step == 1 else mat_mul(rows, rows)
    out = []
    while any(any(row) for row in rows):
        out.append(e.algebra.from_matrix(rows))
        rows = mat_mul(rows, factor)
    return out


@pytest.mark.parametrize(
    "family,rank",
    [("A", 4), ("A", 5), ("A", 6), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("D", 5)],
)
def test_center_of_centralizer_is_spanned_by_powers_of_e(family, rank):
    # Yakimova (2009): delta = z(z(e)) is spanned by the powers e^k (A) or the
    # odd powers (B, C, D), except in B/D when l1, l2 are odd and l2 > l3,
    # where it has one more dimension; the gradients then miss it unless the
    # Pfaffian supplies it (two-part D partitions)
    alg = build_algebra(family, rank)
    for p in valid_partitions(alg):
        if all(part == 1 for part in p.parts):
            continue
        e = nilpotent_from_partition(alg, p)
        pd = build_pair_data(alg, sl2_complete(alg, e))
        powers = _powers_of(e, 1 if family == "A" else 2)
        assert all(pd.delta.contains(x) for x in powers), p
        l1, l2, l3 = (list(p.parts) + [0, 0])[:3]
        extra = family in "BD" and l1 % 2 == 1 and l2 % 2 == 1 and l2 > l3
        span = Subspace.from_elements(alg, powers)
        assert pd.delta.dim == span.dim + extra, p
        assert pd.hypothesis_ok == (not extra or (family == "D" and l3 == 0)), p


@pytest.mark.parametrize("rank", [4, 5, 6])
def test_pfaffian_gradient_is_the_extra_center_element(rank):
    # on the two-part D partitions with odd distinct parts, delta is one
    # dimension larger than the span of the odd powers of e, yet the
    # hypothesis holds: the Pfaffian gradient Q(e) supplies that dimension
    alg = build_algebra("D", rank)
    j = next(g.index_j for g in generators(alg) if g.kind == "pfaffian")
    two_odd = [
        p
        for p in valid_partitions(alg)
        if len(p.parts) == 2 and all(part % 2 for part in p.parts) and p.parts[0] > p.parts[1]
    ]
    assert len(two_odd) == rank // 2  # (7,1), (5,3); (9,1), (7,3); (11,1), (9,3), (7,5)
    for p in two_odd:
        e = nilpotent_from_partition(alg, p)
        pd = build_pair_data(alg, sl2_complete(alg, e))
        q = gradient(alg, j, e)
        powers = _powers_of(e, 2)
        assert pd.delta.contains(q), p
        assert not Subspace.from_elements(alg, powers).contains(q), p
        assert Subspace.from_elements(alg, powers + [q]).same_space(pd.delta), p
        assert pd.hypothesis_ok, p


# Measured rules (checked on every nonzero orbit up to A n=12, B n=15, C n=14
# and D n=16), drawn here at random within those sizes.  With l1 >= l2 >= l3
# the largest parts (0 past the last):
# - hypothesis_ok is False exactly on the B/D partitions with l1, l2 odd and
#   l2 > l3, except the two-part D ones;
# - where it holds, ind(eta, delta) = 1 exactly on the two-part D partitions
#   of rank >= 4 with both parts odd and l2 >= 3, and 0 everywhere else
#   ((3,3) in so(6) = sl(4) has ind 0).

_RULE_RANKS = {"A": range(1, 12), "B": range(2, 8), "C": range(2, 8), "D": range(3, 9)}


@lru_cache(maxsize=None)
def _rule_algebra(family, rank):
    alg = build_algebra(family, rank)
    live = [p for p in valid_partitions(alg) if any(part > 1 for part in p.parts)]
    return alg, live, [p for p in live if len(p.parts) == 2]


@st.composite
def measured_orbits(draw):
    family = draw(st.sampled_from("ABCD"))
    rank = draw(st.sampled_from(_RULE_RANKS[family]))
    _, live, two_part = _rule_algebra(family, rank)
    # two-part partitions are rare among the valid ones but carry ind = 1
    pool = draw(st.sampled_from([live, two_part])) if two_part else live
    return family, rank, draw(st.sampled_from(pool)).parts


@settings(max_examples=40, deadline=None)
@given(measured_orbits())
@example(("D", 3, (3, 3)))  # so(6) = sl(4): ind 0
@example(("D", 4, (5, 3)))  # ind 1
@example(("D", 4, (7, 1)))  # principal: ind 0
@example(("B", 3, (3, 3, 1)))  # hypothesis violated
def test_measured_rules_for_the_hypothesis_and_the_index(orbit):
    family, rank, parts = orbit
    alg = _rule_algebra(family, rank)[0]
    p = Partition(parts)
    l1, l2, l3 = (list(p.parts) + [0, 0])[:3]
    odd_top = l1 % 2 == 1 and l2 % 2 == 1
    two_part_d = alg.family == "D" and l3 == 0
    expected_ok = not (alg.family in "BD" and odd_top and l2 > l3) or two_part_d
    e = nilpotent_from_partition(alg, p)
    pd = build_pair_data(alg, sl2_complete(alg, e))
    assert pd.hypothesis_ok == expected_ok, (alg.name, p)
    if pd.hypothesis_ok:
        expected_ind = int(two_part_d and alg.rank_r >= 4 and odd_top and l2 >= 3)
        assert index_pair(pd, bracket_matrix(pd)).ind == expected_ind, (alg.name, p)


# Low-rank isomorphisms, an oracle independent of the realizations: B2 = C2,
# A3 = D3 and A1 = B1 = C1, with each orbit matched to its image.  The
# reports agree except for the family, the matrix size, the partition and
# the algebra name in the check names.  On two A3/D3 pairs the values that
# scale with the choice of generator differ as well (D3's degree-3
# generator is the Pfaffian, not tr(x^3)); there only their zero patterns
# are compared: the monomials of det and which of gamma, the betas and the
# alphas vanish.  The check details quote those values and are dropped.
ISOMORPHIC_ORBITS = [
    (("B", 2, (5,)), ("C", 2, (4,)), True),
    (("B", 2, (3, 1, 1)), ("C", 2, (2, 2)), True),
    (("B", 2, (2, 2, 1)), ("C", 2, (2, 1, 1)), True),
    (("A", 3, (4,)), ("D", 3, (5, 1)), False),
    (("A", 3, (3, 1)), ("D", 3, (3, 3)), False),
    (("A", 3, (2, 2)), ("D", 3, (3, 1, 1, 1)), True),
    (("A", 3, (2, 1, 1)), ("D", 3, (2, 2, 1, 1)), True),
    (("A", 1, (2,)), ("B", 1, (3,)), True),
    (("A", 1, (2,)), ("C", 1, (2,)), True),
]


def _monomials(text):
    terms = re.split(r" [+-] ", text.lstrip("-"))
    return sorted(re.sub(r"^[0-9/]+\*?", "", term) for term in terms)


def _isomorphism_view(family, rank, parts, exact):
    alg = build_algebra(family, rank)
    d = analyze_orbit(alg, Partition(parts)).to_dict()
    for key in ("family", "matrix_size", "partition"):
        del d[key]
    for check in d["checks"]:
        assert check["name"].startswith(alg.name + " ")
        check["name"] = check["name"][len(alg.name) + 1 :]
        if not exact:
            for item in check["items"]:
                item.pop("details", None)
    if not exact:
        d["det"] = _monomials(d["det"])
        d["gamma"] = d["gamma"] != "0"
        d["betas"] = [b != "0" for b in d["betas"]]
        d["alphas"] = {k: [a != "0" for a in v] for k, v in d["alphas"].items()}
    return d


@pytest.mark.parametrize("left,right,exact", ISOMORPHIC_ORBITS)
def test_isomorphic_low_rank_algebras_give_the_same_report(left, right, exact):
    want = _isomorphism_view(*left, exact)
    assert want["hypothesis_ok"] and want["ind"] is not None
    assert _isomorphism_view(*right, exact) == want


def failed_names(check, *args):
    """The names of the failed items, from the IdentityError a check raises."""
    with pytest.raises(IdentityError) as info:
        check(*args)
    return str(info.value).split("; ")


@pytest.mark.parametrize(
    "family,rank,parts", [("A", 3, (4,)), ("B", 3, (7,)), ("C", 3, (6,)), ("D", 4, (5, 3))]
)
def test_weight_table_decides_the_h_bracket_predicate(family, rank, parts):
    # [h, v] == lam v exactly when every nonzero coordinate of v has weight
    # lam: on sums of basis vectors of one weight, half of them with one
    # basis vector of another weight added, against the bracket with h, for
    # every weight of g and one that is none
    alg, pd = pair_data_for(family, rank, parts)
    h = pd.triplet.h
    weights = _weights(h)
    rng = random.Random(f"weights:{family}{rank}")
    lams = sorted(set(weights)) + [max(weights) + 1]
    outcomes = set()
    for trial in range(40):
        mu = rng.choice(lams[:-1])
        same = [k for k, w in enumerate(weights) if w == mu]
        ks = rng.sample(same, min(2, len(same)))
        if trial % 2:
            ks.append(rng.choice([k for k, w in enumerate(weights) if w != mu]))
        v = alg.zero()
        for k in ks:
            v = v + alg.basis_element(k).scale(rng.choice((-3, -1, 2, Rat(1, 2))))
        for lam in lams:
            decided = _has_weight(weights, v, lam)
            assert decided == (bracket(h, v) == v.scale(lam))
            outcomes.add((trial % 2, decided))
    assert outcomes == {(0, True), (0, False), (1, False)}
    assert all(_has_weight(weights, alg.zero(), lam) for lam in lams)


def other_weight(alg, weights, lam):
    """A basis vector whose ad(h)-weight is not lam."""
    return alg.basis_element(next(k for k, w in enumerate(weights) if w != lam))


@pytest.mark.parametrize(
    "family,rank,count", [("A", 8, 98), ("B", 4, 18), ("C", 4, 24), ("D", 5, 26)]
)
def test_equivariance_at_e_along_f_gives_y_j_as_minus_f_bracket_z_j(family, rank, count):
    # dP(x).[u, x] = [u, P(x)] at x = e, u = f, where [f, e] = -h: the slope
    # walk's y_j = dP_j(e).h is -[f, z_j] for every selected j, on every
    # orbit that meets the hypothesis (count pairs (orbit, j) in all)
    alg = build_algebra(family, rank)
    pairs = 0
    for p in valid_partitions(alg):
        if all(part == 1 for part in p.parts):
            continue
        pd = build_pair_data(alg, triple_from_partition(alg, p))
        if pd.hypothesis_ok:
            for zj, yj in zip(pd.z_vec, pd.y_vec):
                assert yj == -bracket(pd.triplet.f, zj), p
                pairs += 1
    assert pairs == count


def test_normalizer_check_catches_a_component_of_another_weight():
    alg, pd = pair_data_for("A", 3, (4,))
    assert normalizer_decomposition_check(pd).passed
    weights = _weights(pd.triplet.h)
    for k, m in enumerate(pd.pair_exponents):
        # z_s lies in z and has weight 2 m_s, which no y_j has: [e, y_k],
        # z + span{y_j} and eta membership stay as they were, and only
        # [f, z_k] = -y_k and the h-weight of y_k see it
        ys = list(pd.y_vec)
        ys[k] = ys[k] + pd.z_vec[-1]
        bad = rebuilt(pd, y_vec=tuple(ys))
        assert failed_names(normalizer_decomposition_check, bad) == [
            f"f-bracket[{k + 1}]",
            f"h-weight-y[{k + 1}]",
        ]
        zs = list(pd.z_vec)
        zs[k] = zs[k] + other_weight(alg, weights, 2 * m)
        bad = rebuilt(pd, z_vec=tuple(zs))
        assert f"h-weight-z[{k + 1}]" in failed_names(normalizer_decomposition_check, bad)


def stacked_span(pd, eta):
    """The stacked definition of normalizer-span: the echelon rows of
    z + span{y_j} against those of eta."""
    rows = list(pd.zcent.num_rows) + [y.num for y in pd.y_vec]
    return Subspace.from_coord_rows(pd.algebra, rows).same_space(eta)


def test_normalizer_span_fails_when_any_of_its_three_facts_fails():
    # span(z + {y_j}) = eta exactly when z lies in eta, every y_j lies in
    # eta, and dim z + rank{y_j mod z} = dim eta: break each in turn
    alg, pd = pair_data_for("A", 4, (3, 2))
    assert pd.hypothesis_ok and pd.s >= 2 and pd.zcent.dim > pd.s
    assert normalizer_decomposition_check(pd).passed and stacked_span(pd, pd.eta)
    outside = next(x for x in (alg.basis_element(k) for k in range(alg.dim))
                   if not pd.eta.contains(x))
    z_row = pd.zcent.num_rows[-1]

    # y_2 -> y_1 + a row of z: still in eta and outside z, but its
    # remainder modulo z is that of y_1
    ys = list(pd.y_vec)
    ys[1] = ys[0] + pd.zcent.basis[-1]
    bad = rebuilt(pd, y_vec=tuple(ys))
    names = failed_names(normalizer_decomposition_check, bad)
    assert "normalizer-span" in names
    assert not {"in-normalizer[2]", "outside-centralizer[2]", "normalizer-dim"} & set(names)
    assert not stacked_span(bad, bad.eta)

    # an eta of the right dimension, holding every y_j, missing one row of z
    rows = [r for r in pd.zcent.num_rows if r != z_row] + [y.num for y in pd.y_vec]
    bad = rebuilt(pd, eta=Subspace.from_coord_rows(alg, rows + [outside.num]))
    assert bad.eta.dim == pd.eta.dim and all(bad.eta.contains(y) for y in pd.y_vec)
    assert failed_names(normalizer_decomposition_check, bad) == ["normalizer-span"]
    assert not stacked_span(bad, bad.eta)

    # an eta with one extra row
    bad = rebuilt(pd, eta=Subspace.from_coord_rows(alg, list(pd.eta.num_rows) + [outside.num]))
    assert failed_names(normalizer_decomposition_check, bad) == [
        "normalizer-dim",
        "normalizer-span",
    ]
    assert not stacked_span(bad, bad.eta)


def test_index_pair_clears_the_bracket_matrix_once(monkeypatch):
    # the elimination and the prime evaluations read the same integer forms
    import nilab.poly as poly_module

    calls = []
    real = poly_module._cleared

    def counting(entries):
        calls.append(len(entries))
        return real(entries)

    for family, rank, parts in [("A", 3, (4,)), ("C", 3, (6,)), ("D", 4, (5, 3))]:
        _, pd = pair_data_for(family, rank, parts)
        a = bracket_matrix(pd)
        monkeypatch.setattr(poly_module, "_cleared", counting)
        calls.clear()
        idx = index_pair(pd, a)
        monkeypatch.undo()
        assert calls == [pd.s]
        assert idx.rank == max(idx.eval_ranks)


def test_structure_checks_catch_an_entry_of_another_weight():
    alg, pd = pair_data_for("A", 3, (4,))
    a = bracket_matrix(pd)
    assert structure_checks(pd, a).report.passed
    weights = _weights(pd.triplet.h)
    exps = pd.pair_exponents
    for i in range(pd.s):
        for j in range(pd.s):
            vectors = [list(row) for row in a.vectors]
            lam = 2 * (exps[i] + exps[j] - 1)
            vectors[i][j] = vectors[i][j] + other_weight(alg, weights, lam)
            bad = BracketTensor(a.size, tuple(map(tuple, vectors)), a.entries)
            names = failed_names(structure_checks, pd, bad)
            assert f"h-weight[{i + 1},{j + 1}]" in names
            if i + j + 2 <= pd.s + 1 and exps[i] + exps[j] - 1 in exps:
                assert names == [f"h-weight[{i + 1},{j + 1}]"]


def test_weight_checks_refuse_a_non_diagonal_h():
    # Ad(exp e) moves h off the diagonal and keeps a valid triple; the
    # weights are read off matrix positions, so the checks refuse it
    # instead of passing
    alg, pd = pair_data_for("A", 3, (4,))
    e = pd.triplet.e
    moved = Triplet(unipotent_conjugate(e, pd.triplet.h), e, unipotent_conjugate(e, pd.triplet.f))
    assert moved.h != pd.triplet.h
    bad = rebuilt(pd, triplet=moved)
    a = bracket_matrix(pd)
    with pytest.raises(GraduationError):
        normalizer_decomposition_check(bad)
    with pytest.raises(GraduationError):
        structure_checks(bad, a)
    with pytest.raises(GraduationError):
        _weights(moved.h)


def test_weight_checks_bracket_nothing_with_h(monkeypatch):
    import nilab.index as index_module

    real = index_module.bracket
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return real(x, y)

    _, pd = pair_data_for("C", 3, (6,))
    a = bracket_matrix(pd)  # the s^2 brackets [y_i, z_j], not counted here
    monkeypatch.setattr(index_module, "bracket", counting)
    normalizer_decomposition_check(pd)
    structure_checks(pd, a)
    h = pd.triplet.h
    assert not any(x == h or y == h for x, y in calls)
    # what is left: [e, y_j] and [f, z_j] of the normalizer relations
    assert len(calls) == 2 * pd.s


@pytest.mark.parametrize(
    "family,rank,parts,reads",
    [("A", 4, (5,), 1), ("C", 3, (6,), 1), ("D", 4, (5, 3), 1), ("B", 3, (3, 3, 1), 0)],
)
def test_analyze_orbit_reads_the_weights_of_h_once(monkeypatch, family, rank, parts, reads):
    # normalizer_decomposition_check and structure_checks share one weight
    # table per orbit (D4 has duplicated exponents, so only the first runs);
    # an orbit that violates the hypothesis reaches neither
    import nilab.index as index_module

    calls = []
    real = index_module._weights

    def counting(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(index_module, "_weights", counting)
    rep = analyze_orbit(build_algebra(family, rank), Partition(parts))
    assert rep.passed and not rep.error
    assert rep.hypothesis_ok == bool(reads)
    assert len(calls) == reads
