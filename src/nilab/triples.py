"""Nilpotent orbits from partitions, with their sl(2)-triples.

A partition gives a block triple (h0, e0, f0) in closed form
(Collingwood-McGovern, ch. 5).  One Jordan block N_d carries
h0 = diag(d-1, d-3, ..., 1-d) and f0[t+1][t] = (t+1)(d-1-t); a pair of
blocks diag(N_d, -N_d^T), used for the parts whose multiplicity the
orthogonal or symplectic family constrains, carries
(diag(H, -H), diag(N, -N^T), diag(F, -F^T)).  For sl(n) each part is one
block and the block triple is the triple.  For so/sp the blocks carry
invariant bilinear forms (an alternating-sign antidiagonal form on one
block, a hyperbolic form on a pair) that assemble to a form G, and one
rational congruence T with T^t S T = G, S the realization's form, carries
all three into the split realization: T is built by matching
hyperbolic-plane decompositions of G and S.  Correctness is intrinsic, not
shape-based: each matrix is read back through the checked coordinate
read-off, so it lies in the algebra; e's Jordan type is checked on the
ranks of the walk of its powers that the orbit pipeline reads again
(_check_jordan_type); and Triplet checks the three bracket relations.

sl2_complete completes an arbitrary nonzero nilpotent e by a constructive
Jacobson-Morozov step, two plain rational linear systems with the
echelon-first solution taken so that results are deterministic; on e of a
partition's orbit it gives the same triple as the closed form.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from ._scalar import ZERO
from .algebras import (
    AlgebraRealization,
    Element,
    _power_walk,
    _zero_int_rows,
    ad_matrix,
    bracket,
    centralizer,
)
from .errors import ContractError, InternalError, PartitionError
from .linalg import _int_maps, _sparse_elimination, mat_mul, solve


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive integer parts."""

    parts: tuple

    def __post_init__(self):
        try:
            parts = tuple(operator.index(p) for p in self.parts)
        except TypeError as exc:
            raise PartitionError(f"parts must be integers, got {self.parts!r}") from exc
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise PartitionError("empty partition")
        if any(p <= 0 for p in parts):
            raise PartitionError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise PartitionError("parts must be weakly decreasing")

    @classmethod
    def parse(cls, text: str) -> "Partition":
        try:
            parts = tuple(int(p) for p in text.split(","))
        except ValueError as exc:
            raise PartitionError(f"cannot parse partition {text!r}") from exc
        return cls(parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def multiplicity(self, d: int) -> int:
        return sum(1 for p in self.parts if p == d)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class Triplet:
    """An sl(2)-triple (h, e, f); the defining brackets are checked exactly."""

    h: Element
    e: Element
    f: Element

    def __post_init__(self):
        h, e, f = self.h, self.e, self.f
        if bracket(h, e) != e.scale(2):
            raise InternalError("triple relation [h,e] = 2e failed")
        if bracket(h, f) != f.scale(-2):
            raise InternalError("triple relation [h,f] = -2f failed")
        if bracket(e, f) != h:
            raise InternalError("triple relation [e,f] = h failed")

    @property
    def algebra(self) -> AlgebraRealization:
        return self.e.algebra


def _validate_partition(alg: AlgebraRealization, p: Partition):
    if p.total != alg.matrix_size_N:
        raise PartitionError(
            f"partition sums to {p.total}, matrix size is {alg.matrix_size_N}"
        )
    if alg.form is None:
        return
    # Jordan blocks of the paired parity come in pairs: even sizes in so(N),
    # odd ones in sp(N)
    paired = 1 if alg.family == "C" else 0
    for d in set(p.parts):
        if d % 2 == paired and p.multiplicity(d) % 2:
            raise PartitionError(
                "symplectic family needs odd parts with even multiplicity"
                if paired
                else "orthogonal families need even parts with even multiplicity"
            )


def _pieces(alg: AlgebraRealization, p: Partition):
    """The blocks of the construction, ("single", d) or ("pair", d), in
    order along the diagonal.  Each part of an sl(n) partition is a single
    block; for so/sp the sizes descend and each size comes in pairs, with
    a single block left for an odd multiplicity (validated: only sizes the
    family does not constrain have one)."""
    if alg.family == "A":
        return [("single", d) for d in p.parts]
    pieces = []
    for d in sorted(set(p.parts), reverse=True):
        mult = p.multiplicity(d)
        pieces.extend(("pair", d) for _ in range(mult // 2))
        if mult % 2:
            pieces.append(("single", d))
    return pieces


def _block_triple(n, pieces):
    """Integer rows (h0, e0, f0) of the block triple of the pieces: per
    block (H, N, F), and (-H, -N^T, -F^T) for the second block of a pair."""
    h, e, f = _zero_int_rows(n), _zero_int_rows(n), _zero_int_rows(n)
    off = 0
    for kind, d in pieces:
        blocks = [(off, 1)] if kind == "single" else [(off, 1), (off + d, -1)]
        for start, sign in blocks:
            for t in range(d):
                h[start + t][start + t] = sign * (d - 1 - 2 * t)
            for t in range(d - 1):
                i, j = start + t, start + t + 1
                if sign < 0:
                    i, j = j, i
                e[i][j] = sign
                f[j][i] = sign * (t + 1) * (d - 1 - t)
        off += len(blocks) * d
    return h, e, f


def _hyperbolic_basis(alg: AlgebraRealization, pieces):
    """(G, U): the invariant form G of the so/sp block triple of the pieces,
    and U = 2 T^{-1} for the congruence T with T^t S T = G, as integer rows.

    The columns of U are a decomposition of G into hyperbolic pairs (u, w),
    G(u, w) = 1, plus one anisotropic line when N is odd, each doubled to
    stay integral.  Pair i goes to columns i and N-1-i and the line to the
    middle column, the positions of the split decomposition of S.
    """
    n = alg.matrix_size_N
    symmetric = alg.family in ("B", "D")
    singles = sum(1 for kind, _ in pieces if kind == "single")
    want_plus = (singles + 1) // 2  # leftover middle must pair to +1 when N is odd

    g = _zero_int_rows(n)
    hyper = []  # (u, w) as {row: entry} with G(u, w) = 4
    plus_mids = []
    minus_mids = []
    off = 0
    seen_singles = 0
    for kind, d in pieces:
        if kind == "pair":
            # diag(N_d, -N_d^T) preserves [[0, I], [c I, 0]], c = +1/-1
            for t in range(d):
                g[off + t][off + d + t] = 1
                g[off + d + t][off + t] = 1 if symmetric else -1
                hyper.append(({off + t: 2}, {off + d + t: 2}))
            off += 2 * d
        else:
            # one Jordan block; invariant form is antidiagonal with
            # alternating signs, rescaled by `sign` (orthogonal case only)
            # to keep the assembled form in the split congruence class.
            if symmetric:
                eps = 1 if (d - 1) // 2 % 2 == 0 else -1
                desired = 1 if seen_singles < want_plus else -1
                sign = desired * eps
                seen_singles += 1
            else:
                sign = 1
            for t in range(d):
                g[off + t][off + d - 1 - t] = sign * (-1) ** t
            for t in range(d // 2):
                hyper.append(({off + t: 2}, {off + d - 1 - t: 2 * sign * (-1) ** t}))
            if d % 2:
                mid = off + (d - 1) // 2
                (plus_mids if sign * (-1) ** ((d - 1) // 2) > 0 else minus_mids).append(mid)
            off += d

    # A (+1, -1) pair of middles spans a hyperbolic plane over the rationals.
    for pv, mv in zip(plus_mids, minus_mids):
        hyper.append(({pv: 2, mv: 2}, {pv: 1, mv: -1}))
    leftover = plus_mids[len(minus_mids) :]
    if len(hyper) != n // 2 or len(leftover) != n % 2:
        raise InternalError("hyperbolic decomposition does not match the form")

    u = _zero_int_rows(n)
    for i, pair in enumerate(hyper):
        for col, vec in zip((i, n - 1 - i), pair):
            for row, v in vec.items():
                u[row][col] = v
    if leftover:
        u[leftover[0]][n // 2] = 2
    return g, u


def _congruence(alg: AlgebraRealization, g, u):
    """2T from (G, U) of _hyperbolic_basis, after checking U^t G U = 4S.

    That identity says T^t S T = G for T = (U/2)^{-1}, and S is a signed
    permutation (S^t S = 1), so T = S^t (U/2)^t G: no inversion.  A
    mismatch raises InternalError.
    """
    ug = mat_mul([list(col) for col in zip(*u)], g)
    s = alg.form
    if mat_mul(ug, u) != [[4 * v for v in row] for row in s]:
        raise InternalError("form decompositions disagree")
    return mat_mul([list(col) for col in zip(*s)], ug)


def _check_jordan_type(e: Element, p: Partition):
    """InternalError unless e has Jordan type p: the kernel of e^k has
    dimension sum_i min(p_i, k) for k = 1..p_1.  The powers are the walk of
    the sparse integer rows of e (_power_walk; the denominator does not move
    a rank), zero past its end, each ranked by one sparse elimination."""
    n = e.algebra.matrix_size_N
    walk = _power_walk(e)
    for k in range(1, p.parts[0] + 1):
        power = walk[k] if k < len(walk) else {}
        rank = len(_sparse_elimination(_int_maps([dict(line) for line in power.values()], n)))
        if n - rank != sum(min(part, k) for part in p.parts):
            raise InternalError(f"constructed nilpotent has wrong Jordan type at power {k}")


def _partition_triple(alg: AlgebraRealization, p: Partition):
    """(h, e, f) of the block triple of p, carried into the realization
    (X -> T X T^{-1} for so/sp), with e checked for its Jordan type."""
    _validate_partition(alg, p)
    pieces = _pieces(alg, p)
    rows = _block_triple(alg.matrix_size_N, pieces)
    den = 1
    if alg.family != "A":
        g, u = _hyperbolic_basis(alg, pieces)
        t = _congruence(alg, g, u)
        rows = [mat_mul(mat_mul(t, x), u) for x in rows]
        den = 4  # (2T) X (2T^{-1})
    h, e, f = (alg.coords_of_rows(x, den) for x in rows)
    _check_jordan_type(e, p)
    return h, e, f


def nilpotent_from_partition(alg: AlgebraRealization, p: Partition) -> Element:
    """A nilpotent element of the given Jordan type in the realization: the
    e of triple_from_partition (zero for the partition 1, ..., 1)."""
    return _partition_triple(alg, p)[1]


def triple_from_partition(alg: AlgebraRealization, p: Partition) -> Triplet:
    """The sl(2)-triple (h, e, f) through nilpotent_from_partition(alg, p),
    built in closed form, with a diagonal integer h.  PartitionError for a
    partition that is not a Jordan type of the realization, ContractError
    for the zero orbit."""
    h, e, f = _partition_triple(alg, p)
    if e.is_zero():
        raise ContractError("cannot complete the zero element")
    return Triplet(h, e, f)


def _jacobson_morozov(alg: AlgebraRealization, e: Element) -> Triplet:
    """The triple through a nonzero nilpotent e from two linear systems: h
    inside the image of ad(e), solving [e, [e, w]] = -2e, then f from the
    stacked system [e, f] = h, [h, f] = -2f.  Both are consistent for any
    nonzero nilpotent in characteristic zero, so a failure raises
    InternalError."""
    dim = alg.dim
    ade = ad_matrix(e)
    w = solve(mat_mul(ade, ade), dim, [-2 * c for c in e.coords])
    if w is None:
        raise InternalError("no grading element in the image of ad(e)")
    h = bracket(e, Element(alg, w))
    adh = ad_matrix(h)
    for i, row in enumerate(adh):
        row[i] += 2
    rhs = list(h.coords) + [ZERO] * dim
    f = solve(ade + adh, dim, rhs)
    if f is None:
        raise InternalError("triple completion system is inconsistent")
    return Triplet(h, e, Element(alg, f))


def sl2_complete(alg: AlgebraRealization, e: Element) -> Triplet:
    """Complete a nonzero nilpotent e to an sl(2)-triple (h, e, f) by the
    Jacobson-Morozov step (echelon-first solutions, deterministic).
    triple_from_partition builds the triple of a partition's orbit directly,
    in closed form.
    """
    if e.algebra is not alg:
        raise ContractError("element does not belong to the given algebra")
    if e.is_zero():
        raise ContractError("cannot complete the zero element")
    if not e.is_nilpotent():
        raise ContractError("element is not nilpotent")
    return _jacobson_morozov(alg, e)


def principal_partition(alg: AlgebraRealization) -> Partition:
    n = alg.matrix_size_N
    if alg.family in ("A", "B", "C"):
        return Partition((n,))
    return Partition((n - 1, 1))


def principal_triplet(alg: AlgebraRealization) -> Triplet:
    """Triple through a regular nilpotent (centralizer dimension = rank)."""
    triple = triple_from_partition(alg, principal_partition(alg))
    if centralizer(triple.e).dim != alg.rank_r:
        raise InternalError("principal nilpotent is not regular in this realization")
    return triple
