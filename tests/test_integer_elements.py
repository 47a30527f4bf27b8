"""Integer elements and integer subspace membership against rational references.

An element is kept as integer numerators over one positive denominator in
lowest terms, and a subspace checks membership on its echelon rows written
as integers.  The tests here compare both with the same operations written
out on Rat coordinates: element arithmetic coordinate by coordinate, and
membership by the rational elimination the subspace calculus used before
(kept below as ``eliminate``), on coordinates with small mixed denominators.
"""

import math
import random

import pytest

from nilab import (
    ContractError,
    Element,
    Poly,
    Rat,
    Subspace,
    bracket,
    build_algebra,
    center_of,
    centralizer,
    interpolate_vector_poly,
    principal_triplet,
)
from nilab.algebras import normalizer_of
from nilab.invariants import mf_shift_rank
from nilab.linalg import _int_rows, echelon_kernel, mat_mul, rank_kernel, solve

ALGEBRAS = [("A", 3), ("B", 2), ("C", 2), ("D", 4)]  # sl(4), so(5), sp(4), so(8)
ZERO = Rat(0)


def fractional_coords(alg, rng, density=0.7):
    """Coordinates p/q with |p| <= 6 and q <= 6 (not lowest terms as drawn),
    each nonzero with the given probability."""
    return [
        Rat(rng.randint(-6, 6), rng.randint(1, 6)) if rng.random() < density else ZERO
        for _ in range(alg.dim)
    ]


def assert_canonical(x):
    assert all(type(v) is int for v in x.num) and type(x.den) is int
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1
    assert x.den == math.lcm(*(c.denominator for c in x.coords))


@pytest.mark.parametrize("family,rank", ALGEBRAS)
def test_arithmetic_matches_rat_reference(family, rank):
    alg = build_algebra(family, rank)
    rng = random.Random(31 + rank)
    scalars = [0, 1, -1, 3, -6, Rat(2, 3), Rat(-5, 4), Rat(6, 9), Rat(-1, 12), "-3/4"]
    for _ in range(12):
        a = fractional_coords(alg, rng)
        b = fractional_coords(alg, rng, density=0.4)
        x, y = Element(alg, a), Element(alg, b)
        results = [
            (x + y, [p + q for p, q in zip(a, b)]),
            (x - y, [p - q for p, q in zip(a, b)]),
            (-x, [-p for p in a]),
            (x - x, [ZERO] * alg.dim),
        ]
        results += [(x.scale(c), [Rat(c) * p for p in a]) for c in scalars]
        for got, expected in results:
            assert_canonical(got)
            assert got.coords == tuple(expected)
            assert got == Element(alg, expected)
        assert (x == y) == (a == b)
        assert x.scale(0) == alg.zero() and x.scale(0).den == 1


def test_zero_element_has_denominator_one():
    alg = build_algebra("C", 2)
    scaled = alg.random_element(random.Random(1)).scale(0)
    for zero in (alg.zero(), Element(alg, [Rat(0, 7)] * alg.dim), scaled):
        assert zero.den == 1 and zero.num == (0,) * alg.dim and zero.is_zero()
        assert zero == alg.zero() and hash(zero) == hash(alg.zero())


@pytest.mark.parametrize("family,rank", ALGEBRAS)
def test_equal_elements_from_three_routes_compare_and_hash_equal(family, rank):
    alg = build_algebra(family, rank)
    rng = random.Random(57 + rank)
    x = Element(alg, fractional_coords(alg, rng))
    y = Element(alg, fractional_coords(alg, rng))
    xm, ym = x.matrix_rows(), y.matrix_rows()
    product = [[p - q for p, q in zip(r, s)] for r, s in zip(mat_mul(xm, ym), mat_mul(ym, xm))]
    by_bracket = bracket(x, y)
    by_matrix = alg.from_matrix(product)
    by_constructor = Element(alg, list(by_bracket.coords))
    assert not by_bracket.is_zero()
    assert by_bracket == by_matrix == by_constructor
    assert hash(by_bracket) == hash(by_matrix) == hash(by_constructor)
    assert len({by_bracket, by_matrix, by_constructor}) == 1
    for z in (by_bracket, by_matrix, by_constructor):
        assert_canonical(z)
        assert (z.num, z.den) == (by_constructor.num, by_constructor.den)
    # a rescaled copy of the same coordinates also lands on the same integers
    assert bracket(x.scale(3), y).scale(Rat(1, 3)) == by_bracket
    # the read-off takes a signed denominator and still ends with den > 0
    rows, den = x.int_rows()
    negated = alg.coords_of_rows(rows, -den, 2)
    assert_canonical(negated)
    assert negated == x.scale(-2)


def rat_rows(s):
    """The reduced echelon rows of s as tuples of Rat, I_r / I_r[c_r]."""
    return [tuple(Rat(v, row[c]) for v in row) for row, c in zip(s.num_rows, s.pivots)]


def eliminate(s, rows, coords):
    """(coefficients in the basis of s, residual): reduction of a coordinate
    vector against the echelon rows of s (rat_rows), row by row in Rat."""
    residual = list(coords)
    out = []
    for row, c in zip(rows, s.pivots):
        f = residual[c]
        out.append(f)
        if f:
            residual = [a - f * b if b else a for a, b in zip(residual, row)]
    return out, residual


def reference_subspaces(alg, rng):
    yield Subspace.from_coord_rows(alg, [])
    yield alg.full_space()
    for k in (1, 2, alg.dim // 3, alg.dim // 2, alg.dim - 1):
        gens = [fractional_coords(alg, rng, density=rng.choice([0.2, 0.5, 0.9]))
                for _ in range(k)]
        yield Subspace.from_coord_rows(alg, gens)


def probe_vectors(alg, rows, rng):
    """Members (combinations of the echelon rows with fractional
    coefficients, including zero) and vectors that are mostly not members:
    random vectors and members moved at one coordinate."""
    yield alg.zero()
    for _ in range(4):
        coeffs = [Rat(rng.randint(-4, 4), rng.randint(1, 5)) for _ in rows]
        member = [sum((c * row[q] for c, row in zip(coeffs, rows)), ZERO)
                  for q in range(alg.dim)]
        yield Element(alg, member)
        member[rng.randrange(alg.dim)] += Rat(1, rng.randint(1, 4))
        yield Element(alg, member)
        yield Element(alg, fractional_coords(alg, rng))


@pytest.mark.parametrize("family,rank", ALGEBRAS)
def test_membership_matches_rational_elimination(family, rank):
    alg = build_algebra(family, rank)
    rng = random.Random(71 + rank)
    seen = {True: 0, False: 0}
    fractional_rows = 0
    for s in reference_subspaces(alg, rng):
        rows = rat_rows(s)
        fractional_rows += any(v.denominator > 1 for row in rows for v in row)
        for x in probe_vectors(alg, rows, rng):
            out, residual = eliminate(s, rows, x.coords)
            member = not any(residual)
            seen[member] += 1
            assert s.contains(x) == member
            assert s.coords_of(x) == (tuple(out) if member else None)
    assert seen[True] > 10 and seen[False] > 10 and fractional_rows >= 3


def test_membership_reads_no_rational_coordinates(monkeypatch):
    # the bracket-and-check path runs on the integer numerators: reading
    # Element.coords anywhere in it fails the test
    alg = build_algebra("B", 3)
    e = principal_triplet(alg).e
    z = centralizer(e)
    rng = random.Random(5)
    x = Element(alg, fractional_coords(alg, rng))
    y = Element(alg, fractional_coords(alg, rng))
    member = z.basis[-1].scale(Rat(-2, 3))

    def no_coords(self):
        raise AssertionError("rational coordinates built on the integer path")

    monkeypatch.setattr(Element, "coords", property(no_coords))
    br = bracket(x, y)
    assert not z.contains(x) and z.contains(member)
    assert z.coords_of(x) is None and z.coords_of(member) is not None
    assert center_of(z).dim > 0 and normalizer_of(z).dim > z.dim
    for el in (x, y, br, member):
        assert el._coords is None


@pytest.mark.parametrize("bad", [0.5, 0.1, -2.0])
def test_floats_are_rejected(bad):
    alg = build_algebra("A", 1)
    with pytest.raises(ContractError):
        Element(alg, [bad, 0, 0])
    with pytest.raises(ContractError):
        alg.element([1, bad, 0])
    with pytest.raises(ContractError):
        alg.from_matrix([[bad, 0], [0, -bad]])
    with pytest.raises(ContractError):
        alg.basis_element(0).scale(bad)
    # the exact spellings of the same values stay accepted
    assert alg.from_matrix([["1/2", 0], [0, Rat(-1, 2)]]) == Element(alg, ["1/2", 0, 0])


def _shift_rank_with(shift):
    alg = build_algebra("A", 1)
    return mf_shift_rank(alg, principal_triplet(alg), [shift, 1, 2])


# Every entry point that takes scalars refuses a float, as Element does: the
# float 0.1 would otherwise be read as 3602879701896397/36028797018963968.
FLOAT_ENTRY_POINTS = {
    "solve-matrix": lambda x: solve([[x]], 1, [1]),
    "solve-rhs": lambda x: solve([[1]], 1, [x]),
    "rank_kernel": lambda x: rank_kernel([[1, x]], 2),
    "echelon_kernel": lambda x: echelon_kernel([{0: 1, 1: x}], 2),
    "_int_rows": lambda x: _int_rows([[Rat(1, 3), x]], 2),
    "interpolate-node": lambda x: interpolate_vector_poly([(x, [1]), (1, [2])], 1),
    "interpolate-value": lambda x: interpolate_vector_poly([(0, [x]), (1, [2])], 1),
    "Poly": lambda x: Poly(("a",), {(1,): x}),
    "Poly.const": lambda x: Poly.const(("a",), x),
    "Poly.linear": lambda x: Poly.linear(("a", "b"), [1, x]),
    "Poly.eval": lambda x: Poly.variable(("a",), 0).eval([x]),
    "Poly.mul": lambda x: Poly.variable(("a",), 0) * x,
    "Poly.rmul": lambda x: x * Poly.variable(("a",), 0),
    "mf_shift_rank": _shift_rank_with,
    "form_scale": lambda x: build_algebra("A", 1, form_scale=x),
}


@pytest.mark.parametrize("entry", sorted(FLOAT_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [0.1, 0.0])
def test_floats_are_rejected_at_every_entry_point(entry, bad):
    with pytest.raises(ContractError, match="is not exact"):
        FLOAT_ENTRY_POINTS[entry](bad)
    FLOAT_ENTRY_POINTS[entry]("1/2")  # the exact spelling stays accepted
