"""z(e), delta and eta off the Jordan-block frame (nilab.frame), against
the kernel route (centralizer, center_of, preimage) they replace in the
pipeline."""

import random
import sys

import pytest

import nilab.index as index_module
import nilab.triples as triples_module
from nilab import (
    InternalError,
    Partition,
    Subspace,
    analyze_orbit,
    bracket,
    build_algebra,
    build_pair_data,
    center_of,
    centralizer,
    nilpotent_from_partition,
    sl2_complete,
    triple_from_partition,
    valid_partitions,
)
from nilab.algebras import AlgebraRealization, preimage
from nilab.frame import _FrameAlgebra, centralizer_dim
from nilab.index import _frame_centralizer, _normalizer

from records import rebuilt

# every nonzero orbit of sl(n), n <= 12, so(2r+1) up to so(15), sp(2r) up to
# sp(14) and so(2r) up to so(16)
ORACLE_RANKS = {"A": range(1, 12), "B": range(1, 8), "C": range(1, 8), "D": range(2, 9)}


def nonzero_orbits(alg):
    return [p for p in valid_partitions(alg) if any(part > 1 for part in p.parts)]


def rows_of(space):
    return space.num_rows, space.pivots


@pytest.fixture(scope="module")
def kernel_route():
    """(family, rank, parts) -> (triplet, (z, delta, eta) by the kernels),
    computed once for every oracle orbit."""
    out = {}
    for family, ranks in ORACLE_RANKS.items():
        for rank in ranks:
            alg = build_algebra(family, rank)
            for p in nonzero_orbits(alg):
                triplet = triple_from_partition(alg, p)
                zcent = centralizer(triplet.e)
                delta = center_of(zcent)
                out[family, rank, p.parts] = triplet, (zcent, delta, preimage(triplet.e, delta))
    return out


@pytest.mark.parametrize("family", list(ORACLE_RANKS))
def test_frame_route_matches_the_kernel_route(kernel_route, family):
    seen = 0
    for (fam, rank, parts), (triplet, spaces) in kernel_route.items():
        if fam != family:
            continue
        alg = triplet.algebra
        zcent, delta = _frame_centralizer(alg, triplet)
        eta = _normalizer(triplet, zcent, delta)
        assert [rows_of(s) for s in (zcent, delta, eta)] == [rows_of(s) for s in spaces], parts
        assert zcent.dim == centralizer_dim(family, parts)
        seen += 1
    assert seen == sum(len(nonzero_orbits(build_algebra(family, r))) for r in ORACLE_RANKS[family])


def element_of(alg, coords):
    num = [0] * alg.dim
    for k, v in coords.items():
        num[k] = v
    return alg.element(num)


# orbits with equal Jordan blocks, so with xi_ij^0 between blocks, and on
# so/sp both pairs and single blocks
STRUCTURE_ORBITS = [
    ("A", 6, (3, 2, 2)),
    ("A", 7, (3, 3, 1, 1)),
    ("B", 4, (3, 3, 1, 1, 1)),
    ("B", 5, (5, 2, 2, 1, 1)),
    ("C", 4, (3, 3, 2)),
    ("C", 5, (4, 2, 2, 1, 1)),
    ("D", 5, (3, 3, 2, 2)),
    ("D", 6, (5, 3, 2, 2)),
]


@pytest.mark.parametrize("family,rank,parts", STRUCTURE_ORBITS)
def test_frame_structure_constants_match_the_bracket(family, rank, parts):
    # [B_c, B_u] from the indices of the xi, carried into g, is the bracket
    # of the carried B_c and B_u; the carry scales by kappa (N Y - tr(Y) I
    # on sl, 4 X on so/sp), so the bracket of two carried vectors is kappa
    # times the carried bracket
    alg = build_algebra(family, rank)
    frame = triple_from_partition(alg, Partition(parts)).frame
    L = _FrameAlgebra(alg, frame)
    kappa = alg.matrix_size_N if family == "A" else 4
    size = len(L.basis)
    rng = random.Random(f"frame:{family}{rank}:{parts}")
    pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(60)]
    nonzero = 0
    for c, u in pairs:
        combo = {}
        for (v, k), row in L.table([c]).items():
            if v == u:
                for a, w in L.basis[k].items():
                    combo[a] = combo.get(a, 0) + row[0] * w
        x, y = (element_of(alg, L.realize(L.basis[b])) for b in (c, u))
        got = element_of(alg, L.realize(combo) if combo else {})
        assert got.scale(kappa) == bracket(x, y), (c, u)
        nonzero += bool(combo)
    assert 0 < nonzero < len(pairs)


def test_frame_centralizer_checks_refuse_a_wrong_z(monkeypatch):
    alg = build_algebra("C", 3)
    triplet = triple_from_partition(alg, Partition((2, 2, 1, 1)))
    build_pair_data(alg, triplet)
    zcent = _frame_centralizer(alg, triplet)[0]
    assert not zcent.contains(triplet.h)

    # one row short: the dimension check
    real = index_module.frame_subspaces

    def short(alg, frame):
        z, d, spanning = real(alg, frame)
        return Subspace(alg, z.num_rows[:-1], z.pivots[:-1]), d, spanning

    monkeypatch.setattr(index_module, "frame_subspaces", short)
    with pytest.raises(InternalError, match="does not have the dimension of z"):
        build_pair_data(alg, triplet)
    monkeypatch.undo()

    # h in place of the last vector of the spanning set, which keeps the
    # dimension: the [e, b] check
    realize, h = _FrameAlgebra.realize, {k: v for k, v in enumerate(triplet.h.num) if v}

    def swapped(L, combo):
        return h if combo is L.basis[-1] else realize(L, combo)

    monkeypatch.setattr(_FrameAlgebra, "realize", swapped)
    with pytest.raises(InternalError, match="does not commute with e"):
        build_pair_data(alg, triplet)


@pytest.mark.parametrize("route", ["frame", "kernel"])
def test_eta_check_refuses_a_wrong_f_bracket(monkeypatch, route):
    # [f, d] + f: [e, [f, d] + f] = [e, [f, d]] + h, and h lies outside delta
    alg = build_algebra("A", 4)
    triplet = triple_from_partition(alg, Partition((3, 2)))
    if route == "kernel":
        triplet = rebuilt(triplet, frame=None)
    build_pair_data(alg, triplet)
    real = index_module.bracket
    f = triplet.f

    def corrupted(x, y):
        out = real(x, y)
        return out + f if x == f else out

    monkeypatch.setattr(index_module, "bracket", corrupted)
    with pytest.raises(InternalError, match=r"\[e, \[f, d\]\] lies outside delta"):
        build_pair_data(alg, triplet)


KERNELS = {"centralizer": centralizer, "center_of": center_of, "preimage": preimage}


def count_kernel_calls(monkeypatch):
    """Count the calls of centralizer, center_of and preimage, through every
    binding of them in a nilab module, and of the dense routes from a
    matrix to g: mat_mul as bound in nilab.triples and
    AlgebraRealization.coords_of_rows."""
    calls = {name: 0 for name in [*KERNELS, "mat_mul", "coords_of_rows"]}

    def counting(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for module_name, module in sorted(sys.modules.items()):
        if module_name == "nilab" or module_name.startswith("nilab."):
            for key, value in list(vars(module).items()):
                for name, fn in KERNELS.items():
                    if value is fn:
                        monkeypatch.setattr(module, key, counting(name, fn))
    monkeypatch.setattr(triples_module, "mat_mul", counting("mat_mul", triples_module.mat_mul))
    read = AlgebraRealization.coords_of_rows
    monkeypatch.setattr(AlgebraRealization, "coords_of_rows", counting("coords_of_rows", read))
    return calls


def test_analyze_orbit_runs_no_kernel_over_g(monkeypatch):
    calls = count_kernel_calls(monkeypatch)
    for family, rank, parts in [
        ("A", 4, (3, 2)),
        ("B", 3, (3, 3, 1)),
        ("C", 3, (4, 2)),
        ("D", 4, (5, 3)),
        ("D", 4, (3, 3, 1, 1)),
    ]:
        report = analyze_orbit(build_algebra(family, rank), Partition(parts))
        assert not report.skipped and report.error == "", (family, parts, report.error)
    assert calls == {
        "centralizer": 0, "center_of": 0, "preimage": 0, "mat_mul": 0, "coords_of_rows": 0
    }
    # a triplet without a frame takes the kernels, eta aside
    alg = build_algebra("A", 3)
    e = nilpotent_from_partition(alg, Partition((4,)))
    build_pair_data(alg, sl2_complete(alg, e))
    assert [calls[name] for name in KERNELS] == [1, 1, 1]


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4)])
def test_sl2_complete_triplet_gives_the_subspaces_of_the_frame(family, rank):
    alg = build_algebra(family, rank)
    for p in nonzero_orbits(alg):
        triplet = triple_from_partition(alg, p)
        completed = sl2_complete(alg, triplet.e)
        assert completed.frame is None and completed == triplet
        framed, kernel = build_pair_data(alg, triplet), build_pair_data(alg, completed)
        for name in ("zcent", "delta", "eta"):
            assert rows_of(getattr(framed, name)) == rows_of(getattr(kernel, name)), (p, name)
