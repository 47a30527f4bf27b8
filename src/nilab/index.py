"""The normalizer-of-centralizer index pipeline.

For a nilpotent e with triple (h, e, f):

  z     = centralizer of e,
  delta = center of z,
  eta   = normalizer of z in the algebra = {y : [e, y] in delta}:

if [y, z] lies in z, then [e, y] lies in z (as e does) and is central there:
[[e, y], u] = [e, [y, u]] - [y, [e, u]] = 0 for u in z (Jacobi).  If [e, y]
lies in delta, then [[y, u], e] = [y, [u, e]] - [u, [y, e]] = 0: [y, u] in z.

None of the three is a kernel over g on a partition's orbit.  z and delta
come off the Jordan-block frame that triple_from_partition keeps on its
triplet (nilab.frame), checked by [e, b] = 0 on the b that span z and by the
closed-form dim z (_frame_centralizer); a triplet without a frame, such as
sl2_complete's, takes the kernels centralizer(e) and center_of(z).  For
every triplet eta is z + [f, delta] (sl(2) theory, Kostant 1959), each
[e, [f, d]] checked to lie in delta (_normalizer).

The working hypothesis is that delta is spanned by the gradient values
P_j(e); a maximal independent subfamily is selected greedily by ascending
degree, as the pivot columns of one echelon form.  When the exponents are
pairwise distinct this is every nonzero P_j(e), since those have distinct
ad(h)-weights 2 m_j; duplicated exponents are flagged, since the
antidiagonal/determinant conclusions require distinct exponents.  Writing
z_j for the selected gradients at e and y_j for their derivatives along h,
eta = z + span{y_j}, and the s x s matrix A = ([y_i, z_j]) -- symmetric,
entries in delta, pseudo-triangular -- determines the index:

  ind(eta, delta) = dim delta - generic rank of A,

the corank of A over delta, with A read as a matrix of linear forms in
delta coordinates.  It is not the defect ind eta - (rank g - dim delta):
on the so(2r) orbits (2r-3, 3), r = 4..7, ind is 1 while
ind eta = rank g - dim delta.  The same
brackets are audited against the convolution gradients: [y_i, z_j] is an
exact multiple of grad B(Q_i, Q_j)(e), whose delta coordinates are the
alpha coefficients reported per pair.  Every trace-kind P_j(e) is read off
the one walk of the powers of e (algebras._power_walk, which the Jordan-type
check, is_nilpotent and exp(+-n) read too), and every first derivative off
its derivative along a direction u (_slopes_at): the y_j along h, and the
audit's dQ_i(e).z_j along z_j, one slope walk per direction.  Each of these sparse
products comes back to g through the sparse read-off, on its nonzero
entries, with no N x N matrix.  Only D's Pfaffian generator takes a packed
expansion (invariants._line_table), for itself alone.  normalizer-span and
the index reuse what is already held: the remainders of the y_j modulo z,
and one cleared copy of A, eliminated lazily (poly._eliminate).
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, count

from ._scalar import ONE, Rat, ZERO
from .algebras import (
    AlgebraRealization,
    Element,
    Subspace,
    _family_rank_for_size,
    _bracket_coords,
    _nonzero,
    _power_walk,
    _product_rows,
    _weights,
    bracket,
    build_algebra,
    center_of,
    centralizer,
)
from .errors import (
    HypothesisViolation,
    IdentityError,
    InternalError,
    NilabError,
    PartitionError,
)
from .frame import centralizer_dim, frame_subspaces
from .invariants import _gradient_factor, _line_table, _read_gradient_rows, generators
from .linalg import (
    _clear,
    _int_maps,
    _sparse_elimination,
    echelon_maps,
    echelon_rows,
    inverse,
    mat_vec,
)
from .poly import Poly, generic_rank_detail
from .reports import CheckReport, ReadOnly
from .triples import (
    Partition,
    Triplet,
    _validate_partition,
    triple_from_partition,
)


class PairData(ReadOnly):
    """Everything the pipeline derives from one nilpotent orbit; its caches
    start empty on each instance."""

    def __init__(
        self, algebra: AlgebraRealization, triplet: Triplet, selected_indices: tuple,
        pair_exponents: tuple, z_vec: tuple, y_vec: tuple, delta: Subspace, zcent: Subspace,
        eta: Subspace, hypothesis_ok: bool, distinct_exponents: bool,
    ):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "triplet", triplet)
        object.__setattr__(self, "selected_indices", selected_indices)  # 1-based j_1 < ... < j_s
        object.__setattr__(self, "pair_exponents", pair_exponents)  # m'_1 <= ... <= m'_s
        object.__setattr__(self, "z_vec", z_vec)  # z_j = Q_j(e)
        object.__setattr__(self, "y_vec", y_vec)  # y_j = dQ_j(e).h
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "zcent", zcent)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "hypothesis_ok", hypothesis_ok)
        object.__setattr__(self, "distinct_exponents", distinct_exponents)
        object.__setattr__(self, "_derivatives", {})
        object.__setattr__(self, "_brackets", {})

    @property
    def s(self) -> int:
        return len(self.selected_indices)

    @cached_property
    def _h_weights(self):
        """The ad(h)-weights of the basis (_weights), read once per orbit by
        both checks that need them."""
        return _weights(self.triplet.h)

    @cached_property
    def _z_in_delta_inverse(self):
        """Inverse of the s x s matrix whose column k holds the delta
        coordinates of z_k, built once per orbit.

        The z_k lie in delta, and under the hypothesis they are a basis of
        it, so this matrix is invertible and maps delta coordinates to the
        coefficients of the z_k.
        """
        z_cols = [self.delta.coords_of(z) for z in self.z_vec]
        return inverse([list(row) for row in zip(*z_cols)])

    def derivative(self, i: int, j: int) -> Element:
        """dQ_i(e).z_j, i and j 1-based positions in the selected family,
        kept per direction z_j for every i: the slope walk of the y_j
        (_slopes_at) along u = z_j.  It assumes nothing of [e, z_j], so the
        derivative audit checks the same walk as the y_j against brackets."""
        row = self._derivatives.get(j)
        if row is None:
            row = self._derivatives[j] = _slopes_at(
                self.algebra, self.triplet.e, self.z_vec[j - 1], self.selected_indices
            )
        return row[i - 1]

    def bracket(self, i: int, j: int) -> Element:
        """[y_i, z_j], i and j 1-based positions in the selected family,
        computed once per ordered pair and kept, so bracket_matrix and the
        convolution audit share it."""
        v = self._brackets.get((i, j))
        if v is None:
            v = self._brackets[i, j] = bracket(self.y_vec[i - 1], self.z_vec[j - 1])
        return v

    def require_hypothesis(self):
        if not self.hypothesis_ok:
            raise HypothesisViolation(
                "center of the centralizer is not spanned by the gradients"
            )

    def require_distinct_exponents(self):
        if not self.distinct_exponents:
            raise HypothesisViolation(
                "duplicated exponents: distinct-exponent conclusions do not apply"
            )


def _gradients_at(alg: AlgebraRealization, e: Element):
    """(P_1(e), ..., P_r(e)).  The trace kind is read off the powers E^k of
    the sparse integer rows of e = E / d_e (_power_walk, zero past its end):
    P_j(e) = factor proj(E^m) / d_e^m, through the sparse read-off.  D's
    Pfaffian takes one packed evaluation at e (_line_table)."""
    walk = _power_walk(e)
    grads = []
    for gen in generators(alg):
        j, m = gen.index_j, gen.exponent
        if gen.kind != "trace":
            grads.append(_line_table(alg, (j,), e, None, None, [(0, 0)])[j][(0, 0)])
            continue
        power = walk[m] if m < len(walk) else {}
        grads.append(_read_gradient_rows(alg, power, e.den**m, _gradient_factor(alg, gen)))
    return grads


def _slopes_at(alg: AlgebraRealization, e: Element, u: Element, js):
    """(dP_j(e).u for j in js), along any direction u: the y_j for u = h,
    the audit's d_ij for u = z_j.  X^k has derivative
    S_k = E S_(k-1) + U E^(k-1) along U at E, S_1 = U, with no use of a
    bracket of u with e: the product of the block row [E U] with the block
    column [S_(k-1); E^(k-1)], walked on sparse rows beside the powers of e
    (_power_walk, zero past its end), so dP_j(e).u = factor proj(S_m) /
    (d_e^(m-1) d_u).  D's Pfaffian takes one packed expansion along u
    (_line_table)."""
    n = alg.matrix_size_N
    walk = _power_walk(e)
    es, us = e._sparse_form(), u._sparse_form()
    eu = {i: es.get(i, []) + [(t + n, v) for t, v in us.get(i, ())] for i in es.keys() | us.keys()}
    slope = [None, us]  # slope[k] = S_k
    out = []
    for j in js:
        gen = generators(alg)[j - 1]
        m = gen.exponent
        if gen.kind != "trace":
            out.append(_line_table(alg, (j,), e, u, None, [(0, 1)])[j][(0, 1)])
            continue
        while len(slope) <= m:
            k = len(slope)
            power = walk[k - 1] if k - 1 < len(walk) else {}
            block = {**slope[k - 1], **{t + n: line for t, line in power.items()}}
            slope.append(_product_rows(eu, block))
        den = e.den ** (m - 1) * u.den
        out.append(_read_gradient_rows(alg, slope[m], den, _gradient_factor(alg, gen)))
    return tuple(out)


def _frame_centralizer(alg: AlgebraRealization, triplet: Triplet):
    """(z, delta) off the triplet's Jordan-block frame (frame_subspaces),
    with z checked on its own: [e, b] = 0 for every b of the carried basis
    that spans z, summed over the structure constants, and dim z equal to
    the closed form of the Jordan type (centralizer_dim), so z is all of
    z(e).  A failure raises InternalError."""
    frame = triplet.frame
    zcent, delta, spanning = frame_subspaces(alg, frame)
    if zcent.dim != centralizer_dim(alg.family, frame.parts):
        raise InternalError("frame centralizer does not have the dimension of z(e)")
    e = _nonzero(triplet.e.num)
    if any(_bracket_coords(alg, e, b) for b in spanning):
        raise InternalError("frame centralizer does not commute with e")
    return zcent, delta


def _normalizer(triplet: Triplet, zcent: Subspace, delta: Subspace) -> Subspace:
    """eta = {y : [e, y] in delta} as z + [f, delta] (sl(2) theory: for
    d in delta of ad(h)-weight w, [e, [f, d]] = [h, d] = w d, and a y in eta
    is y' + sum [f, d_w] / w, y' in z, for [e, y] = sum d_w).

    Each [f, d], over the basis vectors d of delta, is checked to satisfy
    [e, [f, d]] in delta (InternalError otherwise) and reduced modulo z
    (zcent._reduce).  The remainders, zero at the pivots of z, are put in
    reduced echelon form, and their pivot columns are cleared from the rows
    of z, so the union is the reduced echelon basis of eta, the rows
    preimage(e, delta) gives."""
    e, f = triplet.e, triplet.f
    dim = zcent.algebra.dim
    rests = []
    for d in delta.basis:
        fd = bracket(f, d)
        if not delta.contains(bracket(e, fd)):
            raise InternalError("[e, [f, d]] lies outside delta for a basis vector d")
        rests.append(zcent._reduce(_nonzero(fd.num))[1])
    pivots, extra = echelon_maps(rests, dim)
    pivot_rows = [(c, _nonzero(row)) for c, row in zip(pivots, extra)]
    rows = list(zip(pivots, extra))
    for c, row in zip(zcent.pivots, zcent.num_rows):
        hits = [(p, row[p], prow) for p, prow in pivot_rows if row[p]]
        if hits:
            cleared = _clear(_nonzero(row), hits)
            row = [0] * dim
            for q, v in cleared.items():
                row[q] = v
        rows.append((c, row))
    rows.sort()
    return Subspace(zcent.algebra, [row for _, row in rows], [c for c, _ in rows])


def build_pair_data(alg: AlgebraRealization, triplet: Triplet) -> PairData:
    """Centralizer, center, normalizer and the selected gradient family.

    z and delta come off the Jordan-block frame of a triple_from_partition
    triplet (_frame_centralizer), and for any other triplet from the
    kernels centralizer(e) and center_of(z), the reference the frame is
    tested against; eta is z + [f, delta] for every triplet (_normalizer).

    hypothesis_ok = False is a reported state, not an error; downstream
    operations refuse with HypothesisViolation.
    """
    e, h = triplet.e, triplet.h
    if triplet.frame is None:
        zcent = centralizer(e)
        delta = center_of(zcent)
    else:
        zcent, delta = _frame_centralizer(alg, triplet)
    eta = _normalizer(triplet, zcent, delta)
    gens = generators(alg)
    grads = _gradients_at(alg, e)
    for gen, g in zip(gens, grads):
        if not delta.contains(g):
            raise IdentityError(
                f"gradient {gen.index_j} at e is outside the center of the centralizer"
            )
    # the pivot columns of the gradients, as columns in ascending degree,
    # are the greedy maximal independent pick
    pivots, _ = echelon_rows(list(zip(*(g.num for g in grads))), len(grads))
    selected = [gens[k].index_j for k in pivots]
    z_vec = tuple(grads[j - 1] for j in selected)
    y_vec = _slopes_at(alg, e, h, selected)
    return PairData(
        algebra=alg,
        triplet=triplet,
        selected_indices=tuple(selected),
        pair_exponents=tuple(alg.exponents[j - 1] for j in selected),
        z_vec=z_vec,
        y_vec=y_vec,
        delta=delta,
        zcent=zcent,
        eta=eta,
        hypothesis_ok=len(selected) == delta.dim,
        distinct_exponents=alg.distinct_exponents,
    )


def _has_weight(weights, v: Element, lam) -> bool:
    """[h, v] == lam v, for weights = _weights(h): [h, v] scales each
    coordinate of v by its weight, so this holds exactly when every nonzero
    coordinate of v has weight lam."""
    return all(weights[q] == lam for q in compress(count(), v.num))


def normalizer_decomposition_check(pd: PairData) -> CheckReport:
    """The normalizer decomposition eta = z + span{y_j} and its relations.

    Verified exactly: [e, y_j] = -2 m'_j z_j; [f, z_j] = -y_j; the y_j lie
    outside z and together with z fill eta, whose dimension is
    dim z + dim delta; and the h-weights of y_j and z_j, read off the
    weights of the basis (_has_weight), with no bracket with h.

    normalizer-span, span(z + {y_j}) = eta, is decided without stacking
    the dim z + s rows: it holds exactly when z lies in eta, every y_j lies
    in eta, and dim z + rank{y_j mod z} = dim eta.  The remainders of the
    y_j modulo z are those of zcent._reduce, which also decide
    outside-centralizer, and their rank is one sparse elimination.
    """
    pd.require_hypothesis()
    alg = pd.algebra
    e, f = pd.triplet.e, pd.triplet.f
    weights = pd._h_weights
    report = CheckReport(f"{alg.name} normalizer decomposition")
    rests, in_eta = [], []
    for k, (j, m, zj, yj) in enumerate(
        zip(pd.selected_indices, pd.pair_exponents, pd.z_vec, pd.y_vec), start=1
    ):
        rests.append(pd.zcent._reduce(_nonzero(yj.num))[1])
        in_eta.append(pd.eta.contains(yj))
        report.add(f"e-bracket[{k}]", bracket(e, yj) == zj.scale(-2 * m))
        report.add(f"f-bracket[{k}]", bracket(f, zj) == -yj)
        report.add(f"outside-centralizer[{k}]", bool(rests[-1]))
        report.add(f"h-weight-y[{k}]", _has_weight(weights, yj, 2 * (m - 1)))
        report.add(f"h-weight-z[{k}]", _has_weight(weights, zj, 2 * m))
        report.add(f"in-normalizer[{k}]", in_eta[-1])
    report.add(
        "normalizer-dim",
        pd.eta.dim == pd.zcent.dim + pd.delta.dim,
        f"dim eta {pd.eta.dim}, dim z {pd.zcent.dim}, dim delta {pd.delta.dim}",
    )
    report.add(
        "normalizer-span",
        all(in_eta)
        and pd.zcent.dim + len(_sparse_elimination(_int_maps(rests, alg.dim))) == pd.eta.dim
        and not any(pd.eta._reduce(_nonzero(row))[1] for row in pd.zcent.num_rows),
    )
    if not report.passed:
        raise IdentityError("; ".join(item.name for item in report.failures()))
    return report


class BracketTensor(ReadOnly):
    """The s x s matrix of [y_i, z_j], stored both as algebra elements and
    as coordinate vectors in the echelon basis of delta."""

    __slots__ = ("size", "vectors", "entries")

    def __init__(self, size: int, vectors: tuple, entries: tuple):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "vectors", vectors)  # vectors[i][j] is an Element
        object.__setattr__(self, "entries", entries)  # [i][j]: a tuple of delta coordinates


def bracket_matrix(pd: PairData) -> BracketTensor:
    """Compute A = ([y_i, z_j]); membership in delta and symmetry are
    theorems here, so violations raise IdentityError."""
    pd.require_hypothesis()
    s = pd.s
    vectors = []
    entries = []
    for i in range(s):
        vrow = []
        erow = []
        for j in range(s):
            v = pd.bracket(i + 1, j + 1)
            c = pd.delta.coords_of(v)
            if c is None:
                raise IdentityError(
                    f"[y_{i + 1}, z_{j + 1}] is not in the center of the centralizer"
                )
            vrow.append(v)
            erow.append(tuple(c))
        vectors.append(tuple(vrow))
        entries.append(tuple(erow))
    for i in range(s):
        for j in range(i + 1, s):
            if entries[i][j] != entries[j][i]:
                raise IdentityError(f"bracket matrix is not symmetric at ({i + 1},{j + 1})")
    return BracketTensor(s, tuple(vectors), tuple(entries))


class StructureResult(ReadOnly):
    __slots__ = ("report", "betas")

    def __init__(self, report: CheckReport, betas: tuple):
        object.__setattr__(self, "report", report)
        object.__setattr__(self, "betas", betas)  # [y_i, z_{s+1-i}] = beta_i * Q_s(e)


def structure_checks(pd: PairData, a: BracketTensor) -> StructureResult:
    """Vanishing pattern, pseudo-triangularity, antidiagonal multiples and
    h-weights of the bracket matrix (distinct exponents required); the
    h-weights are read off the weights of the basis (_has_weight), with no
    bracket with h."""
    pd.require_hypothesis()
    pd.require_distinct_exponents()
    alg = pd.algebra
    weights = pd._h_weights
    s = pd.s
    exponent_set = set(pd.pair_exponents)
    report = CheckReport(f"{alg.name} bracket matrix structure")
    for i in range(s):
        for j in range(s):
            m_sum = pd.pair_exponents[i] + pd.pair_exponents[j] - 1
            v = a.vectors[i][j]
            if m_sum not in exponent_set:
                report.add(f"vanishing[{i + 1},{j + 1}]", v.is_zero())
            if i + j + 2 > s + 1:
                report.add(f"pseudo-triangular[{i + 1},{j + 1}]", v.is_zero())
            report.add(f"h-weight[{i + 1},{j + 1}]", _has_weight(weights, v, 2 * m_sum))
    zs_coords = pd.delta.coords_of(pd.z_vec[s - 1])
    betas = []
    for i in range(s):
        entry = a.entries[i][s - 1 - i]
        beta = None
        for ec, zc in zip(entry, zs_coords):
            if zc:
                beta = ec / zc
                break
        if beta is None:
            beta = ZERO
        ok = all(ec == beta * zc for ec, zc in zip(entry, zs_coords))
        report.add(f"antidiagonal-multiple[{i + 1}]", ok, f"beta = {beta}")
        betas.append(beta)
    if not report.passed:
        raise IdentityError("; ".join(item.name for item in report.failures()))
    return StructureResult(report, tuple(betas))


def _delta_variables(s: int):
    return tuple(f"t{k}" for k in range(s))


def symbolic_bracket_matrix(pd: PairData, a: BracketTensor):
    """A with each entry read as a linear form in delta coordinates."""
    variables = _delta_variables(pd.delta.dim)
    return [
        [Poly.linear(variables, entry) for entry in row] for row in a.entries
    ]


class IndexResult(ReadOnly):
    __slots__ = ("ind", "rank", "dim_delta", "det_nonzero", "det_consistent",
                 "prime_samples", "eval_ranks", "det")

    def __init__(
        self, ind: int, rank: int, dim_delta: int, det_nonzero: bool, det_consistent: bool,
        prime_samples: tuple, eval_ranks: tuple, det: Poly,
    ):
        object.__setattr__(self, "ind", ind)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "dim_delta", dim_delta)
        object.__setattr__(self, "det_nonzero", det_nonzero)
        object.__setattr__(self, "det_consistent", det_consistent)  # ind == 0 iff det A != 0
        object.__setattr__(self, "prime_samples", prime_samples)
        object.__setattr__(self, "eval_ranks", eval_ranks)
        object.__setattr__(self, "det", det)  # det A over delta, reused by det_shape_check


def index_pair(pd: PairData, a: BracketTensor, *, seed: int = 0) -> IndexResult:
    """ind(eta, delta) = dim delta - generic rank of A, the corank of A over
    delta, with the determinant-based zero test reported as a cross-check;
    rank and determinant come from one elimination of A.  On the so(2r)
    orbits (2r-3, 3), r = 4..7, ind is 1 while the defect
    ind eta - (rank g - dim delta) is 0."""
    pd.require_hypothesis()
    detail = generic_rank_detail(symbolic_bracket_matrix(pd, a), seed=seed)
    ind = pd.delta.dim - detail.rank
    det = detail.det
    det_nonzero = not det.is_zero()
    return IndexResult(
        ind=ind,
        rank=detail.rank,
        dim_delta=pd.delta.dim,
        det_nonzero=det_nonzero,
        det_consistent=(ind == 0) == det_nonzero,
        prime_samples=detail.prime_samples,
        eval_ranks=detail.eval_ranks,
        det=det,
    )


class DetShapeResult(ReadOnly):
    __slots__ = ("report", "det", "epsilon", "gamma", "matches", "gamma_nonzero", "betas")

    def __init__(
        self, report: CheckReport, det: Poly, epsilon: int, gamma, matches: bool,
        gamma_nonzero: bool, betas: tuple,
    ):
        object.__setattr__(self, "report", report)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "gamma", gamma)  # product of the betas; nonzero iff det A != 0
        object.__setattr__(self, "matches", matches)
        object.__setattr__(self, "gamma_nonzero", gamma_nonzero)
        object.__setattr__(self, "betas", betas)


def det_shape_check(pd: PairData, betas, det) -> DetShapeResult:
    """det A = epsilon * (prod beta_i) * (linear form of Q_s(e))^s, with
    epsilon the sign of the antidiagonal permutation.

    betas are structure_checks(pd, a).betas and det is IndexResult.det,
    both already computed by the pipeline."""
    pd.require_hypothesis()
    pd.require_distinct_exponents()
    s = pd.s
    variables = _delta_variables(pd.delta.dim)
    epsilon = -1 if (s * (s - 1) // 2) % 2 else 1
    gamma = ONE
    for b in betas:
        gamma = gamma * b
    zs_form = Poly.linear(variables, pd.delta.coords_of(pd.z_vec[s - 1]))
    expected = Poly.const(variables, gamma * epsilon) * zs_form**s
    matches = det == expected
    report = CheckReport(f"{pd.algebra.name} determinant shape")
    report.add(
        "det-shape",
        matches,
        f"det = {det.text()}, epsilon = {epsilon}, gamma = {gamma}",
    )
    if not matches:
        raise IdentityError("determinant does not match the antidiagonal product shape")
    return DetShapeResult(
        report=report,
        det=det,
        epsilon=epsilon,
        gamma=gamma,
        matches=matches,
        gamma_nonzero=gamma != 0,
        betas=tuple(betas),
    )


class ConvolutionResult(ReadOnly):
    """Gradient of the pairing function B(Q_i, Q_j) at e, its coordinates
    over the z basis, and the proportionality-constant audit: c_observed is
    twice c_reference = m'_i m'_j / (m'_i + m'_j)."""

    __slots__ = ("i", "j", "grad", "alphas", "c_observed", "c_reference")

    def __init__(self, i: int, j: int, grad: Element, alphas: tuple, c_observed, c_reference):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "grad", grad)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "c_observed", c_observed)  # [y_i, z_j] / grad; None if grad = 0
        object.__setattr__(self, "c_reference", c_reference)


def convolution_at(pd: PairData, i: int, j: int) -> ConvolutionResult:
    pd.require_hypothesis()
    s = pd.s
    if not (1 <= i <= s and 1 <= j <= s):
        raise IdentityError(f"pair index ({i},{j}) out of range 1..{s}")
    mi, mj = pd.pair_exponents[i - 1], pd.pair_exponents[j - 1]
    d_ij = pd.derivative(i, j)
    d_ji = pd.derivative(j, i)
    br = pd.bracket(i, j)
    if br != d_ij.scale(2 * mj):
        raise IdentityError(
            f"[y_{i}, z_{j}] != 2 m'_{j} dQ_{i}(e).Q_{j}(e): derivative audit failed"
        )
    if br != pd.bracket(j, i):
        raise IdentityError(f"bracket symmetry failed at ({i},{j})")
    grad = d_ij + d_ji
    coords = pd.delta.coords_of(grad)
    if coords is None:
        raise IdentityError(f"convolution gradient ({i},{j}) left the center")
    alphas = mat_vec(pd._z_in_delta_inverse, coords)
    c_observed = None
    if not grad.is_zero():
        q = next(q for q, v in enumerate(grad.num) if v)
        c_observed = Rat(br.num[q] * grad.den, br.den * grad.num[q])
        if br != grad.scale(c_observed):
            raise IdentityError(
                f"[y_{i}, z_{j}] is not proportional to the convolution gradient"
            )
    elif not br.is_zero():
        raise IdentityError("bracket nonzero while the convolution gradient vanishes")
    c_reference = Rat(mi * mj) / Rat(mi + mj)
    return ConvolutionResult(
        i=i, j=j, grad=grad, alphas=tuple(alphas), c_observed=c_observed,
        c_reference=c_reference,
    )


def convolution_entries(pd: PairData):
    """Yield ("i,j", alphas, constant audit) for every pair i <= j, in order."""
    for i in range(1, pd.s + 1):
        for j in range(i, pd.s + 1):
            conv = convolution_at(pd, i, j)
            audit = {
                "c_observed": str(conv.c_observed)
                if conv.c_observed is not None
                else None,
                "c_reference": str(conv.c_reference),
            }
            yield f"{i},{j}", conv.alphas, audit


class OrbitReport:
    """Per-orbit pipeline outcome, shaped for JSON/CSV serialization: built
    from the orbit's name, then filled in by analyze_orbit stage by stage."""

    __slots__ = ("family", "rank", "matrix_size", "partition", "skipped", "note", "error",
                 "dims", "pair_exponents", "s", "distinct_exponents", "hypothesis_ok", "ind",
                 "rank_a", "det_nonzero", "det_consistent", "det_text", "epsilon", "betas",
                 "gamma", "gamma_nonzero", "alphas", "const_audit", "prime_samples", "checks")

    def __init__(self, family: str, rank: int, matrix_size: int, partition: str):
        self.family = family
        self.rank = rank
        self.matrix_size = matrix_size
        self.partition = partition
        self.skipped = False
        self.note = ""
        self.error = ""
        self.dims = {}
        self.pair_exponents = ()
        self.s = 0
        self.distinct_exponents = True
        self.hypothesis_ok = False
        self.ind = None
        self.rank_a = None
        self.det_nonzero = None
        self.det_consistent = None
        self.det_text = ""
        self.epsilon = None
        self.betas = ()
        self.gamma = None
        self.gamma_nonzero = None
        self.alphas = {}
        self.const_audit = {}
        self.prime_samples = ()
        self.checks = []

    @property
    def passed(self) -> bool:
        if self.skipped:
            return True
        if self.error:
            return False
        return all(c["pass"] for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "matrix_size": self.matrix_size,
            "partition": self.partition,
            "skipped": self.skipped,
            "note": self.note,
            "error": self.error,
            "dims": dict(self.dims),
            "pair_exponents": list(self.pair_exponents),
            "s": self.s,
            "distinct_exponents": self.distinct_exponents,
            "hypothesis_ok": self.hypothesis_ok,
            "ind": self.ind,
            "rank_a": self.rank_a,
            "det_nonzero": self.det_nonzero,
            "det_consistent": self.det_consistent,
            "det": self.det_text,
            "epsilon": self.epsilon,
            "betas": [str(b) for b in self.betas],
            "gamma": str(self.gamma) if self.gamma is not None else None,
            "gamma_nonzero": self.gamma_nonzero,
            "alphas": {k: [str(a) for a in v] for k, v in self.alphas.items()},
            "const_audit": dict(self.const_audit),
            "prime_samples": [list(p) for p in self.prime_samples],
            "checks": list(self.checks),
            "pass": self.passed,
        }


def analyze_orbit(alg: AlgebraRealization, partition: Partition, *, seed: int = 0) -> OrbitReport:
    """Run the full pipeline on one orbit, capturing failures in the report."""
    report = OrbitReport(
        family=alg.family,
        rank=alg.rank_r,
        matrix_size=alg.matrix_size_N,
        partition=str(partition),
    )
    if all(p == 1 for p in partition.parts):
        report.skipped = True
        report.note = "e = 0"
        return report
    try:
        pd = build_pair_data(alg, triple_from_partition(alg, partition))
        report.dims = {
            "g": alg.dim,
            "z": pd.zcent.dim,
            "delta": pd.delta.dim,
            "eta": pd.eta.dim,
        }
        report.pair_exponents = pd.pair_exponents
        report.s = pd.s
        report.distinct_exponents = pd.distinct_exponents
        report.hypothesis_ok = pd.hypothesis_ok
        if not pd.distinct_exponents:
            report.note = "duplicated exponents: antidiagonal conclusions skipped"
        if not pd.hypothesis_ok:
            report.note = "hypothesis violated: center not spanned by gradients"
            return report
        report.checks.append(normalizer_decomposition_check(pd).to_dict())
        a = bracket_matrix(pd)
        idx = index_pair(pd, a, seed=seed)
        report.ind = idx.ind
        report.rank_a = idx.rank
        report.det_nonzero = idx.det_nonzero
        report.det_consistent = idx.det_consistent
        report.prime_samples = idx.prime_samples
        if pd.distinct_exponents:
            structure = structure_checks(pd, a)
            report.checks.append(structure.report.to_dict())
            shape = det_shape_check(pd, structure.betas, idx.det)
            report.checks.append(shape.report.to_dict())
            report.betas = shape.betas
            report.gamma = shape.gamma
            report.gamma_nonzero = shape.gamma_nonzero
            report.epsilon = shape.epsilon
            report.det_text = shape.det.text()
        for key, alphas, audit in convolution_entries(pd):
            report.alphas[key] = alphas
            report.const_audit[key] = audit
    except HypothesisViolation as exc:
        report.note = str(exc)
    except NilabError as exc:
        report.error = f"{type(exc).__name__}: {exc}"
    return report


def _partitions_desc(n: int, max_part: int | None = None):
    if n == 0:
        yield ()
        return
    cap = n if max_part is None else min(n, max_part)
    for first in range(cap, 0, -1):
        for rest in _partitions_desc(n - first, first):
            yield (first,) + rest


def valid_partitions(alg: AlgebraRealization):
    """All nilpotent-orbit partitions for the realization, descending lex."""
    out = []
    for parts in _partitions_desc(alg.matrix_size_N):
        p = Partition(parts)
        try:
            _validate_partition(alg, p)
        except PartitionError:
            continue
        out.append(p)
    return out


def sweep(family: str, n: int, *, seed: int = 0):
    """Run the pipeline on every valid partition of matrix size n.

    Per-orbit errors are captured in the reports and never abort the sweep;
    output order is the deterministic partition order.
    """
    alg = build_algebra(family, _family_rank_for_size(family, n))
    return [analyze_orbit(alg, p, seed=seed) for p in valid_partitions(alg)]
