"""Acceptance gate: every criterion at its stated (exact) tolerance.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them.  All equality checks are exact rational comparisons; the only
numeric tolerances in this file are the two wall-clock budgets.
"""

import json
import time
from contextlib import contextmanager

from nilab import (
    Partition,
    Poly,
    Rat,
    bracket_matrix,
    build_algebra,
    build_pair_data,
    convolution_at,
    det_shape_check,
    generators,
    kostant_independence,
    make_samples,
    mf_shift_rank,
    nilpotent_from_partition,
    principal_triplet,
    sl2_complete,
    sl2_vectors,
    structure_checks,
    sweep,
    triangular_decomposition,
    verify_field_identities,
    index_pair,
)
from nilab.cli import EXIT_OK, run

SUITE_ALGEBRAS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2)]


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {label}")


def test_criterion_1_identity_suites():
    with criterion(1, "identity suites exact on 20 seeded samples, < 60 s"):
        start = time.monotonic()
        for family, rank in SUITE_ALGEBRAS:
            alg = build_algebra(family, rank)
            samples = make_samples(alg, 20, 0)
            for gen, report in zip(generators(alg), verify_field_identities(alg, samples)):
                assert report.passed, f"{alg.name} j={gen.index_j}: {report.summary()}"
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"identity suites took {elapsed:.1f} s"


def test_criterion_2_sl2_relations_and_pumping():
    with criterion(2, "sl(2) eigenvector ladders and pumping identity exact"):
        for family, rank in SUITE_ALGEBRAS:
            alg = build_algebra(family, rank)
            sl2_vectors(alg, principal_triplet(alg))  # raises on any failure


def test_criterion_3_independence_and_triangular_decomposition():
    with criterion(3, "gradient independence and triangular decomposition dims"):
        for family, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("C", 2)]:
            alg = build_algebra(family, rank)
            triple = principal_triplet(alg)
            assert kostant_independence(alg, triple).passed
            d = triangular_decomposition(alg, triple)
            r = alg.rank_r
            half = (alg.dim - r) // 2
            assert (d.h_space.dim, d.n_plus.dim, d.n_minus.dim) == (r, half, half)
            assert d.h_space.dim + d.n_plus.dim + d.n_minus.dim == alg.dim


def test_criterion_4_shift_span_is_half_orbit():
    with criterion(4, "shifted-gradient span = half orbit dimension (1, 3, 6)"):
        expected = {1: 1, 2: 3, 3: 6}
        for rank, want in expected.items():
            alg = build_algebra("A", rank)
            triple = principal_triplet(alg)
            shifts = list(range(1, max(alg.exponents) + 2))
            got = mf_shift_rank(alg, triple, shifts)
            assert got == want == (alg.dim - alg.rank_r) // 2


def test_criterion_5_pipeline_all_sl_partitions():
    with criterion(5, "pipeline on all sl(n) partitions, n <= 6: ind = 0, < 10 min"):
        start = time.monotonic()
        for n in range(2, 7):
            for rep in sweep("A", n):
                if rep.skipped:
                    assert rep.note == "e = 0"
                    continue
                assert not rep.error, f"sl({n}) {rep.partition}: {rep.error}"
                assert rep.hypothesis_ok, f"sl({n}) {rep.partition}: hypothesis"
                assert rep.passed, f"sl({n}) {rep.partition}: a check failed"
                assert rep.ind == 0, f"sl({n}) {rep.partition}: ind = {rep.ind}"
                assert rep.det_consistent
        elapsed = time.monotonic() - start
        assert elapsed < 600, f"sweeps took {elapsed:.1f} s"


def test_criterion_6_regular_determinant_shape():
    with criterion(6, "regular det A = eps * gamma * (top coordinate)^r, gamma != 0"):
        for family, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("C", 2)]:
            alg = build_algebra(family, rank)
            pd = build_pair_data(alg, principal_triplet(alg))
            a = bracket_matrix(pd)
            shape = det_shape_check(pd, structure_checks(pd, a).betas, index_pair(pd, a).det)
            assert shape.matches
            assert shape.gamma_nonzero
            assert shape.epsilon == (-1 if (rank * (rank - 1) // 2) % 2 else 1)
        alg = build_algebra("A", 2)
        pd = build_pair_data(alg, principal_triplet(alg))
        a = bracket_matrix(pd)
        shape = det_shape_check(pd, structure_checks(pd, a).betas, index_pair(pd, a).det)
        t1 = Poly.variable(("t0", "t1"), 1)
        assert shape.det == Poly.const(("t0", "t1"), -576) * t1 * t1
        assert shape.betas == (Rat(8), Rat(8))


def test_criterion_7_convolution_audit():
    with criterion(7, "convolution audit: derivative identity and constants"):
        expected_c = {("A", 1): {(1, 1): Rat(1)}, ("A", 2): {(1, 2): Rat(4, 3)}}
        for family, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2)]:
            alg = build_algebra(family, rank)
            pd = build_pair_data(alg, principal_triplet(alg))
            bracket_matrix(pd)
            for i in range(1, pd.s + 1):
                for j in range(i, pd.s + 1):
                    conv = convolution_at(pd, i, j)  # raises unless the
                    # bracket equals 2 m'_j dQ_i(e).Q_j(e) and is parallel
                    # to the gradient
                    if conv.c_observed is not None:
                        assert conv.c_observed == 2 * conv.c_reference
                    want = expected_c.get((family, rank), {}).get((i, j))
                    if want is not None:
                        assert conv.c_observed == want
                        assert conv.c_reference == want / 2  # recorded alongside


def test_criterion_8_scale_robustness():
    with criterion(8, "trace form rescaled by 5 leaves the pipeline outputs fixed"):
        outcomes = []
        for scale in (1, 5):
            alg = build_algebra("A", 3, form_scale=scale)
            e = nilpotent_from_partition(alg, Partition((3, 1)))
            pd = build_pair_data(alg, sl2_complete(alg, e))
            a = bracket_matrix(pd)
            result = index_pair(pd, a)
            outcomes.append((pd.hypothesis_ok, result.rank, result.ind))
        assert outcomes[0] == outcomes[1] == (True, 2, 0)


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "table --family A --n 5 --seed 7 twice: byte-identical JSON"):
        paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
        for path in paths:
            code = run(
                ["table", "--family", "A", "--n", "5", "--seed", "7", "--output", str(path)]
            )
            assert code == EXIT_OK
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        json.loads(first.decode("utf-8"))  # and it is valid JSON
