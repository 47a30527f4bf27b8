#!/usr/bin/env python3
"""The index pipeline on a single nilpotent orbit, step by step.

Orbit: the regular nilpotent of sl(3).  Every quantity is exact; the
bracket matrix is printed both as algebra elements and as linear forms in
the coordinates of delta = center of the centralizer.
"""

from nilab import (
    Partition,
    bracket_matrix,
    build_algebra,
    build_pair_data,
    convolution_at,
    det_shape_check,
    index_pair,
    normalizer_decomposition_check,
    structure_checks,
    triple_from_partition,
)
from nilab.index import symbolic_bracket_matrix

alg = build_algebra("A", 2)
pd = build_pair_data(alg, triple_from_partition(alg, Partition((3,))))

print(f"orbit: partition (3) in {alg.name}")
print(f"dims: g {alg.dim}, z {pd.zcent.dim}, delta {pd.delta.dim}, eta {pd.eta.dim}")
print(f"selected generators: {pd.selected_indices}, pair exponents {pd.pair_exponents}")
print("hypothesis (delta spanned by gradients):", pd.hypothesis_ok)

# eta = z + sum C y_j, with [e, y_j] = -2 m'_j z_j and [f, z_j] = -y_j
print("\nnormalizer decomposition:", normalizer_decomposition_check(pd).summary())

a = bracket_matrix(pd)
print("\nbracket matrix [y_i, z_j] as linear forms in delta coordinates:")
for row in symbolic_bracket_matrix(pd, a):
    print("  [", ",  ".join(p.text() for p in row), "]")

st = structure_checks(pd, a)
print("structure:", st.report.summary(), "| betas =", [str(b) for b in st.betas])

result = index_pair(pd, a)
shape = det_shape_check(pd, a, st.betas, result.det)
print(
    f"det A = {shape.det.text()}  (epsilon {shape.epsilon}, gamma {shape.gamma}, "
    f"nonzero {shape.gamma_nonzero})"
)

print(
    f"\nind(eta, delta) = dim delta - rank A = {result.dim_delta} - {result.rank} "
    f"= {result.ind}"
)
print("determinant cross-check consistent:", result.det_consistent)

print("\nconvolution audit (gradients of the pairings B(Q_i, Q_j)):")
for i in range(1, pd.s + 1):
    for j in range(i, pd.s + 1):
        conv = convolution_at(pd, i, j)
        alphas = [str(x) for x in conv.alphas]
        print(
            f"  ({i},{j}): alphas {alphas}, observed constant {conv.c_observed}, "
            f"reference m'_i m'_j/(m'_i+m'_j) = {conv.c_reference}"
        )
