"""Generator values, gradients, derivative extraction, identity suites."""

import random
import re
import weakref

import pytest

from nilab import (
    CheckReport,
    ContractError,
    IdentityError,
    InternalError,
    NilabError,
    Partition,
    Poly,
    Rat,
    bracket,
    build_algebra,
    eval_generator,
    generators,
    gradient,
    make_samples,
    mixed_term,
    mf_shift_rank,
    nilpotent_from_partition,
    kostant_independence,
    pfaffian,
    principal_triplet,
    sl2_vectors,
    taylor_terms,
    trace_form,
    triangular_decomposition,
    unipotent_conjugate,
    verify_field_identities,
)
from nilab.invariants import (
    _decomposition_from_ladders,
    _gradient_raw,
    _line_terms,
    bivariate_terms,
    directional_scalar_derivative,
)
from nilab.linalg import interpolate_vector_poly
from nilab.poly import poly_det

from records import rebuilt


def gradient_derivative(alg, j, x, y):
    """First derivative dP_j(x).y: term (0, 1) of the line expansion."""
    return _line_terms(alg, j, x, y, None, [(0, 1)])[(0, 1)]


def E(n, i, j):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return rows


def test_generator_metadata():
    alg = build_algebra("D", 3)
    gens = generators(alg)
    assert [(g.degree, g.kind) for g in gens] == [
        (2, "trace"),
        (3, "pfaffian"),
        (4, "trace"),
    ]
    for g in gens:
        assert g.exponent == g.degree - 1


@pytest.mark.parametrize(
    "family,rank,other",
    [("A", 2, ("B", 2)), ("C", 2, ("A", 3)), ("A", 2, ("A", 2))],
)
def test_invariant_layer_refuses_elements_of_another_realization(family, rank, other):
    # the last case is a twin: an equal-looking A2 built apart, whose 3 x 3
    # rows the read-off of alg would otherwise take as its own
    alg = build_algebra(family, rank)
    rng = random.Random(3)
    v = alg.random_element(rng)
    w = build_algebra(*other).random_element(rng)
    calls = [
        lambda: eval_generator(alg, 1, w),
        lambda: _gradient_raw(alg, 1, w),
        lambda: gradient(alg, 1, w),
        lambda: taylor_terms(alg, 1, v, w),
        lambda: taylor_terms(alg, 1, w, v),
        lambda: gradient_derivative(alg, 1, v, w),
        lambda: bivariate_terms(alg, 1, v, w, v),
        lambda: bivariate_terms(alg, 1, v, v, w),
        lambda: mixed_term(alg, 1, v, w, 1, v, 0),
        lambda: mixed_term(alg, 1, v, v, 0, w, 1),
    ]
    for call in calls:
        with pytest.raises(ContractError, match="does not belong"):
            call()


def test_eval_generator_values():
    a1 = build_algebra("A", 1)
    h = a1.from_matrix([[1, 0], [0, -1]])
    assert eval_generator(a1, 1, h) == 2
    a2 = build_algebra("A", 2)
    e = nilpotent_from_partition(a2, Partition((3,)))
    assert eval_generator(a2, 2, e) == 0  # strictly upper triangular cube
    assert eval_generator(a2, 1, a2.zero()) == 0


def test_pfaffian_small_cases():
    assert pfaffian([[Rat(0), Rat(3)], [Rat(-3), Rat(0)]]) == 3
    a = [
        [0, 1, 2, 3],
        [-1, 0, 4, 5],
        [-2, -4, 0, 6],
        [-3, -5, -6, 0],
    ]
    rows = [[Rat(v) for v in r] for r in a]
    # pf = a01 a23 - a02 a13 + a03 a12
    assert pfaffian(rows) == 1 * 6 - 2 * 5 + 3 * 4


def test_pfaffian_squares_to_determinant():
    rng = random.Random(19)
    for _ in range(10):
        upper = [[Rat(rng.randint(-3, 3)) for _ in range(6)] for _ in range(6)]
        rows = [
            [
                upper[i][j] if i < j else (-upper[j][i] if i > j else Rat(0))
                for j in range(6)
            ]
            for i in range(6)
        ]
        det = poly_det([[Poly.const((), v) for v in row] for row in rows]).eval(())
        assert pfaffian(rows) ** 2 == det


def test_gradient_sl2_is_twice_identity_field():
    alg = build_algebra("A", 1)
    rng = random.Random(2)
    for _ in range(5):
        x = alg.random_element(rng)
        assert gradient(alg, 1, x) == x.scale(2)


def test_gradient_sl3_regular_and_degenerate():
    alg = build_algebra("A", 2)
    e = nilpotent_from_partition(alg, Partition((3,)))
    e13 = alg.from_matrix(E(3, 0, 2))
    assert gradient(alg, 2, e) == e13.scale(3)
    e12 = alg.from_matrix(E(3, 0, 1))
    assert gradient(alg, 2, e12).is_zero()  # E12 squares to zero


def test_gradient_matches_scalar_derivative_all_families():
    rng = random.Random(23)
    for family, rank in [("A", 2), ("B", 2), ("C", 2), ("D", 3)]:
        alg = build_algebra(family, rank)
        x = alg.random_element(rng)
        for gen in generators(alg):
            p = gradient(alg, gen.index_j, x)
            for _ in range(3):
                y = alg.random_element(rng)
                assert trace_form(p, y) == directional_scalar_derivative(
                    alg, gen.index_j, x, y
                )


def test_gradient_homogeneity():
    rng = random.Random(29)
    for family, rank in [("A", 2), ("C", 2), ("D", 3)]:
        alg = build_algebra(family, rank)
        for gen in generators(alg):
            x = alg.random_element(rng)
            c = Rat(rng.randint(1, 5), rng.randint(1, 5))
            scaled = gradient(alg, gen.index_j, x.scale(c))
            assert scaled == gradient(alg, gen.index_j, x).scale(
                c**gen.exponent
            )


def test_gradient_always_checks_the_pairing(monkeypatch):
    # a gradient that is off by a factor fails the pairing with the scalar
    # derivative, which gradient checks on every call
    import nilab.invariants as invariants_module

    alg = build_algebra("A", 2)
    x = alg.random_element(random.Random(41))
    real = invariants_module._gradient_raw
    monkeypatch.setattr(
        invariants_module, "_gradient_raw", lambda alg, j, x: real(alg, j, x).scale(2)
    )
    with pytest.raises(InternalError):
        gradient(alg, 2, x)


def test_taylor_terms_sl2():
    alg = build_algebra("A", 1)
    t = principal_triplet(alg)
    terms = taylor_terms(alg, 1, t.h, t.e).terms
    assert terms == (t.h.scale(2), t.e.scale(2))


def test_taylor_terms_endpoints_sl3():
    alg = build_algebra("A", 2)
    t = principal_triplet(alg)
    e13 = alg.from_matrix(E(3, 0, 2))
    tt = taylor_terms(alg, 2, t.h, t.e)
    assert tt.terms[0] == gradient(alg, 2, t.h)
    assert tt.terms[2] == e13.scale(3)


def test_taylor_terms_zero_direction():
    alg = build_algebra("A", 2)
    rng = random.Random(31)
    x = alg.random_element(rng)
    tt = taylor_terms(alg, 2, x, alg.zero())
    assert tt.terms[0] == gradient(alg, 2, x)
    assert all(term.is_zero() for term in tt.terms[1:])


def test_mixed_term_order_zero_is_gradient():
    alg = build_algebra("A", 2)
    rng = random.Random(37)
    x, u, y = (alg.random_element(rng) for _ in range(3))
    assert mixed_term(alg, 2, x, u, 0, y, 0) == gradient(alg, 2, x)


def test_mixed_term_frozen_sl3_value():
    # dP_2(e).h = 3(eh + he) = 6 E12 - 6 E23 for the regular triple
    alg = build_algebra("A", 2)
    t = principal_triplet(alg)
    e12 = alg.from_matrix(E(3, 0, 1))
    e23 = alg.from_matrix(E(3, 1, 2))
    got = mixed_term(alg, 2, t.e, t.h, 1, alg.zero(), 0)
    assert got == e12.scale(6) - e23.scale(6)


def test_mixed_term_linearity_sl2():
    alg = build_algebra("A", 1)
    t = principal_triplet(alg)
    assert mixed_term(alg, 1, t.h, t.e, 1, t.f, 0) == t.e.scale(2)


def test_mixed_term_beyond_degree_is_zero():
    alg = build_algebra("A", 1)
    t = principal_triplet(alg)
    assert mixed_term(alg, 1, t.h, t.e, 1, t.f, 1).is_zero()


def test_mixed_term_matches_univariate_slices():
    # c[a][0] of the bivariate table must agree with the univariate Taylor
    # coefficients along u
    alg = build_algebra("A", 2)
    rng = random.Random(41)
    x, u = alg.random_element(rng), alg.random_element(rng)
    table = bivariate_terms(alg, 2, x, u, alg.zero())
    tt = taylor_terms(alg, 2, x, u)
    for a in range(3):
        assert table[a][0] == tt.terms[a]


def test_exchange_specific_pair_sl3():
    # dP_2(h).e and dP_2(e).h agree (second derivative of p_2 is symmetric)
    alg = build_algebra("A", 2)
    t = principal_triplet(alg)
    lhs = taylor_terms(alg, 2, t.h, t.e).terms[1]
    rhs = taylor_terms(alg, 2, t.e, t.h).terms[1]
    assert lhs == rhs
    e12 = alg.from_matrix(E(3, 0, 1))
    e23 = alg.from_matrix(E(3, 1, 2))
    assert lhs == e12.scale(6) - e23.scale(6)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2), ("C", 2)])
def test_field_identity_suite_passes(family, rank):
    alg = build_algebra(family, rank)
    samples = make_samples(alg, 8, 0)
    reports = verify_field_identities(alg, samples)
    assert [r.name for r in reports] == [
        f"{alg.name} generator {g.index_j} (degree {g.degree})" for g in generators(alg)
    ]
    for report in reports:
        assert report.passed, report.summary()


def test_field_identity_suite_releases_each_sample_once_it_is_checked():
    # make_samples yields one sample at a time, so a checked sample, with
    # the matrix forms its elements cached, can be collected while the suite
    # goes on: when sample k is drawn, the suite holds only sample k - 1
    alg = build_algebra("B", 2)
    refs = []

    def tracked():
        for sample in make_samples(alg, 4, 0):
            assert all(ref() is None for ref in refs[:-1]), len(refs)
            refs.append(weakref.ref(sample))
            yield sample

    reports = verify_field_identities(alg, tracked())
    assert all(report.passed for report in reports)
    assert len(refs) == 4 and all(ref() is None for ref in refs)


def test_field_identity_suite_zero_sample():
    alg = build_algebra("A", 1)
    from nilab.invariants import IdentitySample

    z = alg.zero()
    sample = IdentitySample(x=z, y=z, z=z, n=z)
    (report,) = verify_field_identities(alg, [sample])
    assert report.passed


def test_sl2_vectors_values():
    alg = build_algebra("A", 1)
    t = principal_triplet(alg)
    fam = sl2_vectors(alg, t)
    assert fam.v[0][0] == t.h.scale(2)
    assert fam.v[0][1] == t.e.scale(2)
    assert fam.w[0][1] == t.f.scale(2)
    assert bracket(t.h, fam.v[0][1]) == fam.v[0][1].scale(2)


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3)])
def test_sl2_vector_relations_all_families(family, rank):
    alg = build_algebra(family, rank)
    t = principal_triplet(alg)
    sl2_vectors(alg, t)  # raises IdentityError on any broken relation


@pytest.mark.parametrize(
    "ladder,message", [("e", "[e, v_1,0] != -2 v_(k+1)"), ("f", "[f, w_1,0] != 2 w_(k+1)")]
)
def test_sl2_vectors_refuse_a_scaled_ladder_term(monkeypatch, ladder, message):
    # doubling term 1 of the Taylor expansion of P_1 along h + s e (the v
    # ladder) or h + s f (the w ladder) breaks the step from term 0, which
    # the h-eigenvalue checks alone would not see.  On sl(3) term 1 of P_1
    # is its top term, P_1 at the ladder's element, so that value is doubled
    # in its own evaluation too, and the endpoint checks hold
    import nilab.invariants as invariants_module

    alg = build_algebra("A", 2)
    t = principal_triplet(alg)
    sl2_vectors(alg, t)
    real = invariants_module._line_table
    end = getattr(t, ladder)

    def scaled(alg, js, x, y, u, wanted):
        table = real(alg, js, x, y, u, wanted)
        if x == t.h and y == end:
            key = (0, 1)
        elif x == end and y is None:
            key = (0, 0)
        else:
            return table
        return {**table, 1: {**table[1], key: table[1][key].scale(2)}}

    monkeypatch.setattr(invariants_module, "_line_table", scaled)
    with pytest.raises(IdentityError, match=re.escape(message + ": ladder broken")):
        sl2_vectors(alg, t)


@pytest.mark.parametrize(
    "ladder,edit,message",
    [
        ("e", "shift", "[h, v_1,0] != 2k v: ladder broken"),
        ("f", "shift", "[h, w_1,0] != -2k w: ladder broken"),
        ("e", "double", "(ad e)^1 v_1,0 != (-2)^(m-k) m! P(e)"),
    ],
)
def test_sl2_vectors_refuse_a_wrong_eigenvalue_or_pumping(monkeypatch, ladder, edit, message):
    # adding the ladder's own element to term 0 of P_1's expansion along
    # h + s e or h + s f moves it off the 0-eigenspace of ad(h); doubling
    # every term of the v ladder keeps each step and eigenvalue but breaks
    # the pumping to P(e).  The edits go into the line as _line_table returns
    # it.  While the endpoint checks hold, term 0 of both lines is P_1(h) and
    # term m of h + s e is P_1(e), so these relations follow from the ones
    # checked before them; the endpoint checks are turned off to reach them
    import nilab.invariants as invariants_module

    alg = build_algebra("A", 2)
    t = principal_triplet(alg)
    sl2_vectors(alg, t)
    real = invariants_module._line_table
    end = getattr(t, ladder)

    def edited(alg, js, x, y, u, wanted):
        table = real(alg, js, x, y, u, wanted)
        if not (x == t.h and y == end):
            return table
        terms = table[1]
        if edit == "shift":
            terms = {**terms, (0, 0): terms[(0, 0)] + y}
        else:
            terms = {key: term.scale(2) for key, term in terms.items()}
        return {**table, 1: terms}

    monkeypatch.setattr(invariants_module, "_line_table", edited)
    monkeypatch.setattr(invariants_module, "_check_endpoints", lambda terms, px, py: None)
    with pytest.raises(IdentityError, match=re.escape(message)):
        sl2_vectors(alg, t)


def test_kostant_independence_refuses_dependent_gradients(monkeypatch):
    # with P_2(e) replaced by 0 in the one evaluation at e the gradients span
    # a line, and the report's failing item is raised by name
    import nilab.invariants as invariants_module

    alg = build_algebra("A", 2)
    t = principal_triplet(alg)
    kostant_independence(alg, t)
    real = invariants_module._line_table

    def dependent(alg, js, x, y, u, wanted):
        table = real(alg, js, x, y, u, wanted)
        if x == t.e and y is None:
            table = {**table, 2: {**table[2], (0, 0): alg.zero()}}
        return table

    monkeypatch.setattr(invariants_module, "_line_table", dependent)
    with pytest.raises(IdentityError, match="^independent$"):
        kostant_independence(alg, t)


def _drop_last_v_row(fam):
    return rebuilt(fam, v=fam.v[:-1])


def _w_ladders_from_v(fam):
    return rebuilt(fam, w=fam.v)


def _tilt_a_v_row(fam):
    (v0, v1), rest = fam.v[0], fam.v[1:]
    return rebuilt(fam, v=((v0 + v1, v1),) + rest)


def _tilt_a_v_step(fam):
    (v0, v1), rest = fam.v[0], fam.v[1:]
    return rebuilt(fam, v=((v0, v1 + fam.w[0][1]),) + rest)


def _tilt_a_w_step(fam):
    (w0, w1), rest = fam.w[0], fam.w[1:]
    return rebuilt(fam, w=((w0, w1 + fam.v[0][1]),) + rest)


@pytest.mark.parametrize(
    "edit,message",
    [
        (_drop_last_v_row, "decomposition dims (1, 1, 3) != (2, 3, 3)"),
        (_w_ladders_from_v, "ladders do not span the whole algebra"),
        (_tilt_a_v_row, "zero graduation piece differs from the P_j(h) span"),
        (_tilt_a_v_step, "positive graduation does not match n_+"),
        (_tilt_a_w_step, "negative graduation does not match n_-"),
    ],
)
def test_decomposition_refuses_each_edited_ladder_family(edit, message):
    # on sl(3), ladders edited so that each check of the decomposition fails
    # first: one ladder too few; the v ladders as the w ladders; P_1(h)
    # tilted by v_1,1 into n_+; v_1,1 tilted by w_1,1 out of the positive
    # graduation; w_1,1 tilted by v_1,1 out of the negative one
    alg = build_algebra("A", 2)
    fam = sl2_vectors(alg, principal_triplet(alg))
    _decomposition_from_ladders(alg, fam)
    with pytest.raises(IdentityError, match=re.escape(message)):
        _decomposition_from_ladders(alg, edit(fam))

@pytest.mark.parametrize(
    "term,message", [(0, "constant Taylor term is not P(x)"), (-1, "top Taylor term is not P(y)")]
)
def test_taylor_terms_refuse_a_wrong_endpoint(monkeypatch, term, message):
    # the line expansion's first or last term moved off P(x) or P(y)
    import nilab.invariants as invariants_module

    alg = build_algebra("A", 2)
    x, y = alg.random_element(random.Random(1)), alg.random_element(random.Random(2))
    taylor_terms(alg, 2, x, y)
    real = invariants_module._line_terms

    def shifted(alg, j, x, y, u, wanted):
        line = real(alg, j, x, y, u, wanted)
        if y is None:  # the endpoint values P(x) and P(y) themselves
            return line
        key = wanted[term]
        return {**line, key: line[key] + x}

    monkeypatch.setattr(invariants_module, "_line_terms", shifted)
    with pytest.raises(InternalError, match=re.escape(message)):
        taylor_terms(alg, 2, x, y)


def test_kostant_independence_sl3():
    alg = build_algebra("A", 2)
    t = principal_triplet(alg)
    report = kostant_independence(alg, t)
    assert report.passed


def test_kostant_independence_weights_sp4():
    # exponents 1 and 3: h-weights of the P_j(e) are 2 and 6
    alg = build_algebra("C", 2)
    t = principal_triplet(alg)
    grads = [gradient(alg, g.index_j, t.e) for g in generators(alg)]
    assert bracket(t.h, grads[0]) == grads[0].scale(2)
    assert bracket(t.h, grads[1]) == grads[1].scale(6)
    kostant_independence(alg, t)


@pytest.mark.parametrize(
    "family,rank,dims",
    [
        ("A", 1, (1, 1, 1)),
        ("A", 2, (2, 3, 3)),
        ("A", 3, (3, 6, 6)),
        ("A", 4, (4, 10, 10)),
        ("B", 2, (2, 4, 4)),
        ("C", 2, (2, 4, 4)),
    ],
)
def test_triangular_decomposition_dims(family, rank, dims):
    alg = build_algebra(family, rank)
    d = triangular_decomposition(alg)
    assert (d.h_space.dim, d.n_plus.dim, d.n_minus.dim) == dims
    assert sum(dims) == alg.dim


@pytest.mark.parametrize("family,rank,want", [("A", 1, 1), ("A", 2, 3), ("A", 3, 6)])
def test_mf_shift_rank_half_orbit(family, rank, want):
    alg = build_algebra(family, rank)
    t = principal_triplet(alg)
    shifts = list(range(1, max(alg.exponents) + 2))
    assert mf_shift_rank(alg, t, shifts) == want == (alg.dim - alg.rank_r) // 2


def test_mf_shift_rank_sampled_span_oracle():
    # oracle: brute span over a much denser shift set cannot exceed the
    # sampled one once enough nodes are used
    alg = build_algebra("A", 2)
    t = principal_triplet(alg)
    small = mf_shift_rank(alg, t, [1, 2, 3])
    dense = mf_shift_rank(alg, t, [Rat(k, 7) for k in range(1, 12)])
    assert small == dense == 3


def test_mf_shift_rank_degenerate_zero_sample():
    alg = build_algebra("A", 2)
    t = principal_triplet(alg)
    with pytest.warns(UserWarning):
        got = mf_shift_rank(alg, t, [0])
    assert got <= alg.rank_r  # [e, P_j(e)] = 0


def test_scaled_form_rescales_gradients():
    plain = build_algebra("A", 2)
    scaled = build_algebra("A", 2, form_scale=5)
    e_plain = nilpotent_from_partition(plain, Partition((3,)))
    e_scaled = nilpotent_from_partition(scaled, Partition((3,)))
    g_plain = gradient(plain, 2, e_plain)
    g_scaled = gradient(scaled, 2, e_scaled)
    assert list(g_scaled.coords) == [c / 5 for c in g_plain.coords]


def interpolated_line(alg, j, x, y):
    """Reference Taylor terms of P_j along x + s y: the gradient sampled at
    s = 0..m+1 and interpolated; the extra node checks the degree."""
    m = generators(alg)[j - 1].exponent
    samples = [(s, list(_gradient_raw(alg, j, x + y.scale(s)).coords)) for s in range(m + 2)]
    return [alg.element(c) for c in interpolate_vector_poly(samples, m)]


def test_gradient_derivative_matches_interpolation():
    # closed-form first derivative and Taylor terms against interpolated
    # gradient values, at random points and at a triple, for every generator
    rng = random.Random(17)
    for family, rank in [("A", 3), ("B", 2), ("C", 3), ("D", 3), ("D", 4)]:
        alg = build_algebra(family, rank)
        t = principal_triplet(alg)
        points = [(alg.random_element(rng), alg.random_element(rng)) for _ in range(2)]
        points.append((t.e, t.h))
        kinds = set()
        for gen in generators(alg):
            kinds.add(gen.kind)
            for x, y in points:
                expected = interpolated_line(alg, gen.index_j, x, y)
                assert gradient_derivative(alg, gen.index_j, x, y) == expected[1]
                assert list(taylor_terms(alg, gen.index_j, x, y).terms) == expected
        assert kinds == ({"trace", "pfaffian"} if family == "D" else {"trace"})


@pytest.mark.parametrize("scale", [1, 5])
@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_pfaffian_gradient_checked(rank, scale):
    # gradient re-derives T(P(x), y) from scalar Pfaffian values
    # and raises InternalError on a mismatch; the read-off raises if the
    # element built from the minor Pfaffians is not in so(2r)
    alg = build_algebra("D", rank, form_scale=scale)
    plain = build_algebra("D", rank)
    (j,) = [gen.index_j for gen in generators(alg) if gen.kind == "pfaffian"]
    rng = random.Random(53 + rank)
    t = principal_triplet(alg)
    for x in (alg.random_element(rng), t.e, t.h):
        p = gradient(alg, j, x)
        unscaled = gradient(plain, j, plain.element(x.coords))
        assert list(p.coords) == [c / scale for c in unscaled.coords]


@pytest.mark.parametrize("rank", [2, 3])
def test_pfaffian_gradient_pairs_with_every_basis_vector(rank):
    # the full defining system: T(P(x), b_k) = <dp(x), b_k> for every k
    alg = build_algebra("D", rank, form_scale=5)
    (j,) = [gen.index_j for gen in generators(alg) if gen.kind == "pfaffian"]
    x = alg.random_element(random.Random(59))
    p = gradient(alg, j, x)
    for k in range(alg.dim):
        b = alg.basis_element(k)
        assert trace_form(p, b) == directional_scalar_derivative(alg, j, x, b)


@pytest.mark.parametrize("family,rank", [("A", 2), ("D", 3)])
def test_field_identity_suite_reads_the_line_expansion(monkeypatch, family, rank):
    # every derivative term of the suite comes from _line_table: adding the
    # base point x to each term other than P itself ((0, 0)) and P(y) ((0, m))
    # keeps the Taylor endpoint checks quiet and must fail the checks built
    # on derivatives
    import nilab.invariants as invariants_module

    grid_calls = []
    real_grid = invariants_module.bivariate_terms

    def counting_grid(*args):
        grid_calls.append(args)
        return real_grid(*args)

    monkeypatch.setattr(invariants_module, "bivariate_terms", counting_grid)
    alg = build_algebra(family, rank)
    samples = list(make_samples(alg, 2, 0))
    gens = generators(alg)
    assert all(report.passed for report in verify_field_identities(alg, samples))

    real_table = invariants_module._line_table

    def perturbed(alg, js, x, y, u, wanted):
        table = real_table(alg, js, x, y, u, wanted)
        return {
            j: {
                key: term if key in ((0, 0), (0, generators(alg)[j - 1].exponent)) else term + x
                for key, term in terms.items()
            }
            for j, terms in table.items()
        }

    monkeypatch.setattr(invariants_module, "_line_table", perturbed)
    for gen, report in zip(gens, verify_field_identities(alg, samples)):
        results = {item.name: item.passed for item in report.items}
        for idx in range(len(samples)):
            assert results[f"gradient-pairing[{idx}]"] is True
            assert results[f"derivative-propagation[{idx}]"] is False
            if gen.exponent >= 2:
                # for m = 1 these checks read only (0, 0) and the top term
                # (0, 1), which the perturbation leaves alone
                assert results[f"equivariance[{idx}]"] is False
                assert results[f"taylor-exchange[{idx}]"] is False
                assert results[f"taylor-reconstruction[{idx}]"] is False
    assert grid_calls == []


def reference_field_identities(alg, j, samples):
    """The identity suite of one generator, run through the per-generator
    entry points, kept as the reference for verify_field_identities."""
    gen = generators(alg)[j - 1]
    m = gen.exponent
    report = CheckReport(f"{alg.name} generator {j} (degree {gen.degree})")
    for idx, sample in enumerate(samples):
        x, y, z = sample.x, sample.y, sample.z
        tag = f"[{idx}]"
        try:
            px = _gradient_raw(alg, j, x)

            pairing_ok = trace_form(px, y) == directional_scalar_derivative(alg, j, x, y)
            report.add(f"gradient-pairing{tag}", pairing_ok)

            lhs = gradient_derivative(alg, j, x, bracket(y, x))
            report.add(f"equivariance{tag}", lhs == bracket(y, px))

            tx = taylor_terms(alg, j, x, y)
            ty = taylor_terms(alg, j, y, x)
            report.add(
                f"taylor-exchange{tag}",
                all(tx.terms[k] == ty.terms[m - k] for k in range(m + 1)),
            )

            extra = Rat(m + 1)
            acc = alg.zero()
            power = Rat(1)
            for term in tx.terms:
                acc = acc + term.scale(power)
                power = power * extra
            report.add(
                f"taylor-reconstruction{tag}",
                acc == _gradient_raw(alg, j, x + y.scale(extra)),
            )

            row_keys = [(1, k) for k in range(m + 1)]
            row_zx = _line_terms(alg, j, x, y, bracket(z, x), row_keys)
            row_zy = _line_terms(alg, j, x, y, bracket(z, y), row_keys)
            propagation = True
            for k in range(m + 1):
                rhs = row_zx[(1, k)]
                if k >= 1:
                    rhs = rhs + row_zy[(1, k - 1)]
                if bracket(z, tx.terms[k]) != rhs:
                    propagation = False
                    break
            report.add(f"derivative-propagation{tag}", propagation)

            membership = sample.center.contains(px)
            report.add(f"center-membership{tag}", membership)

            report.add(
                f"unipotent-invariance{tag}",
                _gradient_raw(alg, j, sample.moved) == unipotent_conjugate(sample.n, px),
            )
        except NilabError as exc:
            report.add(f"sample-error{tag}", False, str(exc))
    return report


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
     ("D", 3), ("D", 4)],
)
@pytest.mark.parametrize("seed", [0, 7])
def test_field_identity_suite_matches_the_per_generator_reference(family, rank, seed):
    alg = build_algebra(family, rank)
    samples = list(make_samples(alg, 2, seed))
    got = [report.to_dict() for report in verify_field_identities(alg, samples)]
    want = [
        reference_field_identities(alg, gen.index_j, samples).to_dict()
        for gen in generators(alg)
    ]
    assert got == want


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 4), ("D", 4)])
def test_field_identity_suite_evaluates_each_line_once_for_every_generator(
    monkeypatch, family, rank
):
    # five lines per sample, in this order, cover every generator:
    # x + s [y, x], x + s y + t [z, x], x + s y + t [z, y], y + s x and the
    # moved point Ad(exp n) x alone; P at x + (m + 1) y adds one call per
    # distinct exponent m, ascending, covering the generators of that m
    import nilab.invariants as invariants_module

    calls = []
    real = invariants_module._line_table

    def counting(alg, js, x, y, u, wanted):
        calls.append((tuple(js), x, y, u))
        return real(alg, js, x, y, u, wanted)

    monkeypatch.setattr(invariants_module, "_line_table", counting)
    alg = build_algebra(family, rank)
    samples = list(make_samples(alg, 2, 0))
    assert all(report.passed for report in verify_field_identities(alg, samples))
    every = tuple(gen.index_j for gen in generators(alg))
    groups = [
        (m, tuple(gen.index_j for gen in generators(alg) if gen.exponent == m))
        for m in sorted(set(alg.exponents))
    ]
    per_sample = 5 + len(groups)
    assert len(calls) == len(samples) * per_sample
    for sample, start in zip(samples, range(0, len(calls), per_sample)):
        x, y, z = sample.x, sample.y, sample.z
        lines = [
            (x, bracket(y, x), None),
            (x, y, bracket(z, x)),
            (x, y, bracket(z, y)),
            (y, x, None),
            (sample.moved, None, None),
        ]
        block = calls[start : start + per_sample]
        assert block[:5] == [(every, *line) for line in lines]
        assert block[5:] == [(js, x + y.scale(m + 1), None, None) for m, js in groups]


@pytest.mark.parametrize(
    "line,failure",
    [
        ("x + s y + t [z, x]", "constant Taylor term is not P(x)"),
        ("x + s y + t [z, y]", "top Taylor term is not P(y)"),
        ("moved point", None),
    ],
)
def test_field_identity_suite_checks_each_value_against_another_line(monkeypatch, line, failure):
    # P(x) is read off x + s [y, x] and P(y) off x + s y + t [z, y], not off
    # the Taylor lines whose endpoints they are checked against: a wrong
    # constant term of x + s y + t [z, x] (the Taylor term tx[0]) or a wrong
    # top term s^m of x + s y + t [z, y] (P(y)) is an endpoint failure,
    # recorded as a sample error after the pairing and equivariance items;
    # a wrong P at the moved point fails unipotent invariance alone
    import nilab.invariants as invariants_module

    alg = build_algebra("B", 2)
    samples = list(make_samples(alg, 2, 0))
    real = invariants_module._line_table
    extra = alg.basis_element(0)

    def target(sample):
        if line == "x + s y + t [z, x]":
            return (sample.x, sample.y, bracket(sample.z, sample.x)), lambda key: key == (0, 0)
        if line == "x + s y + t [z, y]":
            return (sample.x, sample.y, bracket(sample.z, sample.y)), lambda key: key[0] == 0
        return (sample.moved, None, None), lambda key: True

    targets = [target(sample) for sample in samples]

    def corrupted(alg, js, x, y, u, wanted):
        table = real(alg, js, x, y, u, wanted)
        for point, hit in targets:
            if (x, y, u) == point:
                return {
                    j: {key: term + extra if hit(key) else term for key, term in terms.items()}
                    for j, terms in table.items()
                }
        return table

    monkeypatch.setattr(invariants_module, "_line_table", corrupted)
    for report in verify_field_identities(alg, samples):
        failures = [item.to_dict() for item in report.failures()]
        if failure is None:
            assert failures == [
                {"name": f"unipotent-invariance[{idx}]", "pass": False} for idx in range(2)
            ]
            assert len(report.items) == 2 * 7
            continue
        assert failures == [
            {"name": f"sample-error[{idx}]", "pass": False, "details": failure} for idx in range(2)
        ]
        names = [item.name for item in report.items]
        assert names == [
            f"{name}[{idx}]"
            for idx in range(2)
            for name in ("gradient-pairing", "equivariance", "sample-error")
        ]


@pytest.mark.parametrize("line", ["taylor-y-to-x", "reconstruction-m3"])
def test_field_identity_suite_records_a_failing_read_off_in_every_report_that_reads_it(
    monkeypatch, line
):
    # so(8): the Pfaffian and tr x^4 share exponent 3, so P at x + 4 y is one
    # call for the two of them; the Taylor line along y + s x is read by all
    alg = build_algebra("D", 4)
    samples = list(make_samples(alg, 3, 0))
    bad = samples[1]
    if line == "taylor-y-to-x":
        readers = {gen.index_j for gen in generators(alg)}
        fails = lambda js, x, y, wanted: x == bad.y and y == bad.x and len(wanted) > 1
    else:
        readers = {gen.index_j for gen in generators(alg) if gen.exponent == 3}
        fails = lambda js, x, y, wanted: x == bad.x + bad.y.scale(4)
    assert len(readers) >= 2
    import nilab.invariants as invariants_module

    real = invariants_module._line_table

    def failing(alg, js, x, y, u, wanted):
        if fails(js, x, y, wanted):
            raise ContractError("injected read-off failure")
        return real(alg, js, x, y, u, wanted)

    monkeypatch.setattr(invariants_module, "_line_table", failing)
    reports = verify_field_identities(alg, samples)
    for gen, report in zip(generators(alg), reports):
        names = [item.name for item in report.items]
        failures = [item.to_dict() for item in report.failures()]
        if gen.index_j in readers:
            assert failures == [
                {"name": "sample-error[1]", "pass": False, "details": "injected read-off failure"}
            ]
            # the checks of the other samples all ran
            assert sum(name.endswith("[0]") for name in names) == 7
            assert sum(name.endswith("[2]") for name in names) == 7
        else:
            assert failures == [] and len(names) == 21


def test_field_identity_suite_builds_one_center_per_sample(monkeypatch):
    import nilab.invariants as invariants_module

    calls = []
    real = invariants_module.centralizer

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(invariants_module, "centralizer", counting)
    alg = build_algebra("D", 3)
    samples = list(make_samples(alg, 3, 0))
    assert all(report.passed for report in verify_field_identities(alg, samples))
    assert calls == [sample.x for sample in samples]


@pytest.mark.parametrize("family,rank", [("B", 3), ("D", 4)])
def test_pairing_oracle_builds_each_point_once_per_sample(monkeypatch, family, rank):
    # the points x + t y, t = 0..max degree, are evaluated once per sample
    # for every generator, as the integer rows dy X + t dx Y over dx dy, and
    # each p_j is still read at its own t = 0..deg_j: the pairing values
    # equal the per-generator oracle.  No interpolation runs on the way
    import nilab.invariants as invariants_module
    import nilab.linalg as linalg_module

    alg = build_algebra(family, rank)
    gens = generators(alg)
    samples = list(make_samples(alg, 2, 0))
    calls = []
    real = invariants_module._integer_values

    def counting(alg, rows, chosen):
        calls.append((rows, tuple(gen.index_j for gen in chosen)))
        return real(alg, rows, chosen)

    def no_interpolation(*args):
        raise AssertionError("verify interpolated")

    monkeypatch.setattr(invariants_module, "_integer_values", counting)
    monkeypatch.setattr(linalg_module, "interpolate_vector_poly", no_interpolation)
    assert all(report.passed for report in verify_field_identities(alg, samples))
    top = max(gen.degree for gen in gens)
    assert len(calls) == len(samples) * (top + 1)
    for sample, start in zip(samples, range(0, len(calls), top + 1)):
        den = sample.x.int_rows()[1] * sample.y.int_rows()[1]
        for t, (rows, js) in enumerate(calls[start : start + top + 1]):
            assert alg.coords_of_rows(rows, den) == sample.x + sample.y.scale(t)
            assert js == tuple(gen.index_j for gen in gens if gen.degree >= t)
    monkeypatch.undo()
    x, y = samples[0].x, samples[0].y
    shared = invariants_module._scalar_derivatives(alg, gens, x, y)
    single = {gen.index_j: directional_scalar_derivative(alg, gen.index_j, x, y) for gen in gens}
    assert shared == single


def test_pairing_oracle_failure_is_a_sample_error_in_every_report(monkeypatch):
    import nilab.invariants as invariants_module

    alg = build_algebra("D", 4)
    samples = list(make_samples(alg, 3, 0))
    (xr, dx), (yr, dy) = samples[1].x.int_rows(), samples[1].y.int_rows()
    # the rows of x + 5 y over dx dy, a point read by degree 6 only
    bad = [[dy * a + 5 * dx * b for a, b in zip(p, q)] for p, q in zip(xr, yr)]
    real = invariants_module._integer_values

    def failing(alg, rows, chosen):
        if rows == bad:
            raise ContractError("injected oracle failure")
        return real(alg, rows, chosen)

    monkeypatch.setattr(invariants_module, "_integer_values", failing)
    error = {"name": "sample-error[1]", "pass": False, "details": "injected oracle failure"}
    for report in verify_field_identities(alg, samples):
        names = [item.name for item in report.items]
        assert [item.to_dict() for item in report.failures()] == [error]
        assert sum(name.endswith("[0]") for name in names) == 7
        assert sum(name.endswith("[2]") for name in names) == 7
